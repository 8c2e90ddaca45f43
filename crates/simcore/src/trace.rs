//! Sim-time distributed tracing.
//!
//! A [`Tracer`] collects *spans* — named intervals of virtual time with
//! parent/child links — from every process of a simulation. Spans cross
//! process (and simulated network) boundaries through [`TraceCtx`], a
//! serializable causality token carried inside protocol messages, so a
//! single logical request can be followed from the client call through the
//! FaaS container into the storage tier and its replication rounds.
//!
//! Determinism: every timestamp is a [`SimTime`] taken from the kernel
//! clock, span ids are allocated in execution order, and the exporters
//! iterate in allocation order — two identically-seeded runs therefore
//! produce byte-identical exports. No wall clock is ever consulted.
//!
//! Hot-path cost: recording stores a compact row — names, categories,
//! process names, and annotation keys are interned behind `u32` symbols
//! (see [`crate::symbol`]), so a span begin/end performs no string
//! allocation after a name's first appearance. The exporters stream
//! straight from the rows and the symbol table under the lock, formatting
//! integers through a stack buffer; they never clone the span buffer.
//! [`Tracer::spans`] materializes owned [`SpanRecord`]s for tests and
//! ad-hoc inspection.
//!
//! Exports: [`Tracer::export_chrome_json`] writes the Chrome trace-event
//! format (load it in `chrome://tracing` or Perfetto), and
//! [`Tracer::export_jsonl`] writes one JSON object per span for ad-hoc
//! processing.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::codec::Wire;
use parking_lot::Mutex;

use crate::symbol::{Sym, SymbolTable};
use crate::time::SimTime;

/// Identifier of a span. `SpanId::NONE` (zero) means "no span": it is the
/// parent of root spans and the value carried by untraced requests.
///
/// Ids are plain integers so they can travel inside serialized protocol
/// messages; they are only meaningful relative to the [`Tracer`] of the
/// simulation that allocated them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Wire)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots, untraced requests).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpanId({})", self.0)
    }
}

/// The causality token a process propagates to work it causes elsewhere:
/// the current span under which new spans are parented.
///
/// Each process carries a current `TraceCtx` (see `Ctx::trace_ctx` /
/// `Ctx::set_trace_ctx` in the kernel); infrastructure code ships the
/// current span id inside its protocol messages and the receiving process
/// adopts it, re-rooting its own spans under the sender's.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceCtx {
    /// The span new work should be parented under.
    pub span: SpanId,
}

impl TraceCtx {
    /// A root context: spans started under it have no parent.
    pub fn root() -> TraceCtx {
        TraceCtx { span: SpanId::NONE }
    }

    /// A context parenting new spans under `span`.
    pub fn under(span: SpanId) -> TraceCtx {
        TraceCtx { span }
    }
}

/// Whether a record is an interval or a point event.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// An interval with a start and an end.
    Span,
    /// A zero-duration point event.
    Instant,
}

/// One recorded span, resolved to owned strings.
///
/// This is the *snapshot* type returned by [`Tracer::spans`]; internally
/// the tracer stores compact rows with interned names and only resolves
/// them on request.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// Span name, e.g. `"dso.call"`.
    pub name: String,
    /// Category, e.g. `"dso"` — becomes the Chrome-trace `cat` field.
    pub cat: String,
    /// Name of the process that began the span.
    pub proc_name: String,
    /// Pid of the process that began the span (the Chrome-trace `tid`).
    pub pid: u64,
    /// Virtual time the span began.
    pub start: SimTime,
    /// Virtual time the span ended; `None` while still open (exports treat
    /// open spans as zero-length).
    pub end: Option<SimTime>,
    /// Interval or instant.
    pub kind: SpanKind,
    /// Key/value annotations, in insertion order.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's duration (zero while open).
    pub fn duration(&self) -> std::time::Duration {
        self.end.unwrap_or(self.start).saturating_duration_since(self.start)
    }
}

/// The compact stored form of a span: names are interned [`Sym`]s, the id
/// is implicit (row `i` has id `i + 1`). Annotation *values* stay owned —
/// they are dynamic data (object names, counts), not vocabulary.
struct SpanRow {
    parent: SpanId,
    name: Sym,
    cat: Sym,
    proc_name: Sym,
    pid: u64,
    start: SimTime,
    end: Option<SimTime>,
    kind: SpanKind,
    args: Vec<(Sym, String)>,
}

impl SpanRow {
    /// Duration in nanoseconds (zero while open).
    fn dur_ns(&self) -> u64 {
        let end = self.end.unwrap_or(self.start);
        end.as_nanos().saturating_sub(self.start.as_nanos())
    }
}

#[derive(Default)]
struct TracerInner {
    /// Next id to allocate; ids start at 1 so that 0 can mean "none".
    next: u64,
    /// All rows, in allocation order (row `i` has id `i + 1`).
    rows: Vec<SpanRow>,
    /// Interned vocabulary for names, categories, processes, arg keys.
    symbols: SymbolTable,
}

impl TracerInner {
    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRow> {
        if id.is_none() {
            return None;
        }
        self.rows.get_mut((id.0 - 1) as usize)
    }

    /// Resolves row `i` into an owned snapshot record.
    fn resolve(&self, i: usize) -> SpanRecord {
        let r = &self.rows[i];
        SpanRecord {
            id: SpanId(i as u64 + 1),
            parent: r.parent,
            name: self.symbols.get(r.name).to_string(),
            cat: self.symbols.get(r.cat).to_string(),
            proc_name: self.symbols.get(r.proc_name).to_string(),
            pid: r.pid,
            start: r.start,
            end: r.end,
            kind: r.kind,
            args: r
                .args
                .iter()
                .map(|(k, v)| (self.symbols.get(*k).to_string(), v.clone()))
                .collect(),
        }
    }
}

/// Collects spans from every process of a simulation; cheap to clone
/// (clones share state). Install it on a `Sim` with `Sim::set_tracer`, then
/// read or export after the run.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// Creates an empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Begins a span at `now`. Prefer the `Ctx::span_begin` family inside
    /// simulated processes; this low-level entry exists for tests and
    /// host-side harness code.
    pub fn begin(
        &self,
        now: SimTime,
        pid: u64,
        proc_name: &str,
        parent: SpanId,
        name: &str,
        cat: &str,
    ) -> SpanId {
        self.push(now, pid, proc_name, parent, name, cat, SpanKind::Span)
    }

    /// Records a point event at `now`.
    pub fn instant(
        &self,
        now: SimTime,
        pid: u64,
        proc_name: &str,
        parent: SpanId,
        name: &str,
        cat: &str,
    ) -> SpanId {
        self.push(now, pid, proc_name, parent, name, cat, SpanKind::Instant)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        now: SimTime,
        pid: u64,
        proc_name: &str,
        parent: SpanId,
        name: &str,
        cat: &str,
        kind: SpanKind,
    ) -> SpanId {
        let mut g = self.inner.lock();
        g.next += 1;
        let id = SpanId(g.next);
        let name = g.symbols.intern(name);
        let cat = g.symbols.intern(cat);
        let proc_name = g.symbols.intern(proc_name);
        g.rows.push(SpanRow {
            parent,
            name,
            cat,
            proc_name,
            pid,
            start: now,
            end: if kind == SpanKind::Instant { Some(now) } else { None },
            kind,
            args: Vec::new(),
        });
        id
    }

    /// Ends a span at `now`. Ending [`SpanId::NONE`], an unknown id, or an
    /// already-ended span is a no-op.
    pub fn end(&self, id: SpanId, now: SimTime) {
        let mut g = self.inner.lock();
        if let Some(rec) = g.get_mut(id) {
            if rec.end.is_none() {
                rec.end = Some(now);
            }
        }
    }

    /// Attaches a `key = value` annotation to a span (no-op for
    /// [`SpanId::NONE`] or unknown ids). The key is interned; the value is
    /// stored as given.
    pub fn annotate(&self, id: SpanId, key: &str, value: impl Into<String>) {
        let mut g = self.inner.lock();
        let key = g.symbols.intern(key);
        if let Some(rec) = g.get_mut(id) {
            rec.args.push((key, value.into()));
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.lock().rows.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every record, in allocation order, resolved to owned
    /// strings. This materializes a fresh vector — use it for tests and
    /// inspection; the `export_*` methods stream without snapshotting.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let g = self.inner.lock();
        (0..g.rows.len()).map(|i| g.resolve(i)).collect()
    }

    /// Snapshot of the records whose name equals `name`.
    pub fn spans_named(&self, name: &str) -> Vec<SpanRecord> {
        let g = self.inner.lock();
        (0..g.rows.len())
            .filter(|&i| g.symbols.get(g.rows[i].name) == name)
            .map(|i| g.resolve(i))
            .collect()
    }

    /// Exports the Chrome trace-event format (`chrome://tracing`,
    /// Perfetto). Deterministic: byte-identical across identically-seeded
    /// runs. Each simulated process becomes one named thread track.
    ///
    /// Streams from the stored rows under the lock: no span clone, no
    /// per-span allocation beyond the output string itself.
    pub fn export_chrome_json(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::with_capacity(128 + g.rows.len() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // Thread-name metadata: one per distinct pid, in pid order.
        let mut names: BTreeMap<u64, Sym> = BTreeMap::new();
        for r in &g.rows {
            names.entry(r.pid).or_insert(r.proc_name);
        }
        for (pid, name) in &names {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            push_u64(&mut out, *pid);
            out.push_str(",\"args\":{\"name\":");
            json_string(&mut out, g.symbols.get(*name));
            out.push_str("}}");
        }
        for (i, r) in g.rows.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json_string(&mut out, g.symbols.get(r.name));
            out.push_str(",\"cat\":");
            json_string(&mut out, g.symbols.get(r.cat));
            match r.kind {
                SpanKind::Span => {
                    out.push_str(",\"ph\":\"X\",\"ts\":");
                    micros(&mut out, r.start.as_nanos());
                    out.push_str(",\"dur\":");
                    micros(&mut out, r.dur_ns());
                }
                SpanKind::Instant => {
                    out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                    micros(&mut out, r.start.as_nanos());
                }
            }
            out.push_str(",\"pid\":1,\"tid\":");
            push_u64(&mut out, r.pid);
            out.push_str(",\"args\":{\"id\":");
            push_u64(&mut out, i as u64 + 1);
            out.push_str(",\"parent\":");
            push_u64(&mut out, r.parent.0);
            for (k, v) in &r.args {
                out.push(',');
                json_string(&mut out, g.symbols.get(*k));
                out.push(':');
                json_string(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Exports one JSON object per span (newline-delimited), with integer
    /// nanosecond timestamps. Deterministic and streaming, like the Chrome
    /// export.
    pub fn export_jsonl(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::with_capacity(g.rows.len() * 160);
        for (i, r) in g.rows.iter().enumerate() {
            out.push_str("{\"id\":");
            push_u64(&mut out, i as u64 + 1);
            out.push_str(",\"parent\":");
            push_u64(&mut out, r.parent.0);
            out.push_str(",\"kind\":");
            out.push_str(match r.kind {
                SpanKind::Span => "\"span\"",
                SpanKind::Instant => "\"instant\"",
            });
            out.push_str(",\"name\":");
            json_string(&mut out, g.symbols.get(r.name));
            out.push_str(",\"cat\":");
            json_string(&mut out, g.symbols.get(r.cat));
            out.push_str(",\"proc\":");
            json_string(&mut out, g.symbols.get(r.proc_name));
            out.push_str(",\"pid\":");
            push_u64(&mut out, r.pid);
            out.push_str(",\"start_ns\":");
            push_u64(&mut out, r.start.as_nanos());
            out.push_str(",\"end_ns\":");
            push_u64(&mut out, r.end.unwrap_or(r.start).as_nanos());
            out.push_str(",\"args\":{");
            for (j, (k, v)) in r.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, g.symbols.get(*k));
                out.push(':');
                json_string(&mut out, v);
            }
            out.push_str("}}\n");
        }
        out
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(spans={})", self.len())
    }
}

/// Appends `v`'s decimal digits through a stack buffer — no `format!`
/// machinery, no intermediate `String`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ascii"));
}

/// Writes a nanosecond count as microseconds with nanosecond decimals
/// (`123.456`), the unit Chrome traces expect.
fn micros(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let frac = ns % 1_000;
    if frac != 0 {
        out.push('.');
        out.push((b'0' + (frac / 100) as u8) as char);
        out.push((b'0' + (frac / 10 % 10) as u8) as char);
        out.push((b'0' + (frac % 10) as u8) as char);
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[(c as usize >> 4) & 0xf] as char);
                out.push(HEX[c as usize & 0xf] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_export() {
        let t = Tracer::new();
        let root = t.begin(SimTime::from_millis(1), 3, "client", SpanId::NONE, "call", "dso");
        let child = t.begin(SimTime::from_millis(2), 4, "server", root, "exec", "dso");
        t.annotate(child, "obj", "AtomicLong/x");
        t.end(child, SimTime::from_millis(3));
        t.end(root, SimTime::from_millis(4));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, SpanId(1));
        assert_eq!(spans[1].parent, SpanId(1));
        assert_eq!(spans[1].duration(), Duration::from_millis(1));
        let chrome = t.export_chrome_json();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"obj\":\"AtomicLong/x\""));
        let jsonl = t.export_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"start_ns\":1000000"));
    }

    #[test]
    fn open_span_exports_zero_duration() {
        let t = Tracer::new();
        let id = t.begin(SimTime::from_micros(5), 1, "p", SpanId::NONE, "open", "x");
        assert!(t.spans()[0].end.is_none());
        assert_eq!(t.spans()[0].duration(), Duration::ZERO);
        // Ending twice keeps the first end.
        t.end(id, SimTime::from_micros(9));
        t.end(id, SimTime::from_micros(50));
        assert_eq!(t.spans()[0].end, Some(SimTime::from_micros(9)));
    }

    #[test]
    fn ids_allocate_in_order_and_none_is_ignored() {
        let t = Tracer::new();
        let a = t.begin(SimTime::ZERO, 1, "p", SpanId::NONE, "a", "c");
        let b = t.instant(SimTime::ZERO, 1, "p", a, "b", "c");
        assert_eq!((a, b), (SpanId(1), SpanId(2)));
        t.end(SpanId::NONE, SimTime::from_secs(1)); // no-op
        t.annotate(SpanId::NONE, "k", "v"); // no-op
        t.annotate(SpanId(99), "k", "v"); // unknown: no-op
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans_named("b").len(), 1);
        assert_eq!(t.spans()[1].kind, SpanKind::Instant);
        assert_eq!(t.spans()[1].end, Some(SimTime::ZERO));
    }

    #[test]
    fn exports_are_deterministic_for_same_inputs() {
        let build = || {
            let t = Tracer::new();
            let a = t.begin(SimTime::from_nanos(1500), 2, "p-a", SpanId::NONE, "alpha", "c");
            t.annotate(a, "k", "line\n\"quoted\"");
            t.end(a, SimTime::from_nanos(2750));
            t.instant(SimTime::from_nanos(2000), 7, "p-b", a, "beta", "c");
            (t.export_chrome_json(), t.export_jsonl())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn ctx_api_records_spans_and_metrics() {
        use crate::{MetricsRegistry, Sim};
        let mut sim = Sim::new(1);
        let tracer = Tracer::new();
        let metrics = MetricsRegistry::new();
        sim.set_tracer(&tracer);
        sim.set_metrics(&metrics);
        sim.spawn("worker", |ctx| {
            let root = ctx.span_begin("outer", "test");
            let prev = ctx.set_trace_ctx(TraceCtx::under(root));
            assert_eq!(prev, TraceCtx::root());
            ctx.sleep(Duration::from_millis(2));
            let inner = ctx.span_begin("inner", "test");
            ctx.sleep(Duration::from_millis(3));
            ctx.span_end(inner);
            ctx.span_end(root);
            ctx.metric_incr("ops");
            ctx.metric_record("lat", Duration::from_millis(5));
        });
        sim.run_until_idle().expect_quiescent();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].start, SimTime::from_millis(2));
        assert_eq!(spans[1].end, Some(SimTime::from_millis(5)));
        assert_eq!(spans[0].proc_name, "worker");
        assert_eq!(metrics.counter_value("ops"), 1);
        assert_eq!(metrics.histogram("lat").count(), 1);
    }

    #[test]
    fn ctx_api_is_noop_without_installation() {
        use crate::Sim;
        let mut sim = Sim::new(2);
        sim.spawn("worker", |ctx| {
            let id = ctx.span_begin("nothing", "test");
            assert!(id.is_none());
            ctx.span_end(id);
            ctx.span_annotate(id, "k", "v");
            assert!(ctx.span_instant("tick", "test").is_none());
            ctx.metric_incr("ops");
            assert!(ctx.tracer().is_none());
            assert!(ctx.metrics().is_none());
        });
        sim.run_until_idle().expect_quiescent();
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn stack_buffer_integer_writer_matches_display() {
        for v in [0u64, 1, 9, 10, 999, 1_000, 123_456_789, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
        // The Chrome µs formatter: trailing .000 omitted, zero-padded frac.
        let cases =
            [(0u64, "0"), (1_000, "1"), (1_500, "1.500"), (123_456, "123.456"), (7, "0.007")];
        for (ns, want) in cases {
            let mut s = String::new();
            micros(&mut s, ns);
            assert_eq!(s, want, "ns={ns}");
        }
    }
}
