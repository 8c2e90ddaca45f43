//! The metric tables — the same names, units, directions and bounds as
//! `BENCHMARK.json` — and the per-layer numbers of the traced pass.

use std::collections::BTreeMap;

use simcore::{MetricsRegistry, SpanRecord};

use crate::json::Metric;
use crate::spans::{attribute, durations};
use crate::stats::{mean, median, percentile};
use crate::workloads::Rep;

/// Whether a metric is read off the host clock or is exact for a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which it may worsen between runs of
    /// one seed on one box: what `--aa` holds two sets to and what
    /// `unresolved` is judged against. Virtual-time metrics repeat exactly
    /// for a seed, so for them it is what a change to the model is held to.
    pub bound: f64,
    /// Absolute slack under which two values agree whatever their ratio:
    /// a 3 ms set-up is not 10 % steady, and does not need to be.
    pub floor: f64,
    pub clock: Clock,
    /// The bound `BENCHMARK.json` gives the acceptance driver, whose every
    /// run draws another seed and so also sees the spread between seeds.
    /// `None` where some workload has nothing to report (no latency
    /// samples, no bill, no crash, no failed op): the driver takes an
    /// end-to-end metric only if every workload reports it and never as 0,
    /// so the traced pass reports these and `BENCHMARK.json` lists them
    /// per layer.
    pub across_seeds: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    (bound, floor): (f64, f64),
    clock: Clock,
    across_seeds: Option<f64>,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better, bound, floor, clock, across_seeds }
}

pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", false, (0.10, 0.05), Clock::Host, Some(0.25)),
    e2e("host_wall_s", "s", false, (0.10, 0.0), Clock::Host, Some(0.25)),
    e2e("host_us_per_op", "us", false, (0.10, 0.0), Clock::Host, Some(0.25)),
    e2e("host_peak_rss_mb", "MB", false, (0.10, 8.0), Clock::Host, Some(0.15)),
    e2e("sim_ops_per_s", "1/vs", true, (0.01, 0.0), Clock::Virtual, Some(0.10)),
    e2e("sim_op_p50_us", "vus", false, (0.01, 0.0), Clock::Virtual, None),
    e2e("sim_op_p99_us", "vus", false, (0.02, 0.0), Clock::Virtual, None),
    e2e("sim_makespan_s", "vs", false, (0.01, 0.0), Clock::Virtual, Some(0.08)),
    e2e("sim_cost_usd", "usd", false, (0.01, 0.0), Clock::Virtual, None),
    e2e("sim_recovery_s", "vs", false, (0.01, 0.0), Clock::Virtual, None),
    // No share of a median that is 0: one op in a thousand, absolute. A
    // run over it also fails its output checks.
    e2e("failed_op_share", "ratio", false, (0.0, FAILED_OP_SHARE_MAX), Clock::Virtual, None),
];

/// The most failed, shed or timed-out ops a correct run may have, as a
/// share of the ops attempted.
pub const FAILED_OP_SHARE_MAX: f64 = 0.001;

/// Per-layer metrics, `(name, unit, clock)`: the traced pass reports every
/// one on every workload, 0 where the layer did no work. Units name the
/// clock too: `vs` and `vus` are virtual seconds and microseconds, exact
/// for a seed; `s`, `us` and `ns` are host time as measured. The host
/// microbenches of `benchmark layers` do not depend on the workload and
/// are not among them.
pub const PER_LAYER: [(&str, &str, Clock); 52] = [
    ("sim_op_samples", "count", Clock::Virtual),
    ("pinned_cpu", "count", Clock::Host),
    ("simcore.kernel.host_ns_per_event", "ns", Clock::Host),
    ("simcore.kernel.events_per_host_s", "1/s", Clock::Host),
    ("simcore.kernel.events_per_op", "count", Clock::Virtual),
    ("simcore.kernel.handoffs_per_event", "ratio", Clock::Host),
    ("simcore.kernel.sys_cpu_share", "ratio", Clock::Host),
    ("simcore.trace.overhead_share", "ratio", Clock::Host),
    ("simcore.trace.spans_per_op", "count", Clock::Virtual),
    ("simcore.trace.attributed_share", "ratio", Clock::Virtual),
    ("simcore.trace.unattributed_us", "vus", Clock::Virtual),
    ("dso.client.invokes_per_op", "count", Clock::Virtual),
    ("dso.client.retries", "count", Clock::Virtual),
    ("dso.client.call_self_us_p50", "vus", Clock::Virtual),
    ("dso.client.attempt_wait_us_p50", "vus", Clock::Virtual),
    ("dso.client.attempt_wait_us_p99", "vus", Clock::Virtual),
    ("dso.server.exec_self_us_p50", "vus", Clock::Virtual),
    ("dso.server.queue_depth_mean", "count", Clock::Virtual),
    ("dso.server.shed", "count", Clock::Virtual),
    ("dso.skeen.rounds_per_write", "count", Clock::Virtual),
    ("dso.skeen.round_us_p50", "vus", Clock::Virtual),
    ("dso.skeen.round_us_p99", "vus", Clock::Virtual),
    ("dso.read_cache.hit_ratio", "ratio", Clock::Virtual),
    ("dso.node_cache.hit_ratio", "ratio", Clock::Virtual),
    ("dso.node_cache.invalidations", "count", Clock::Virtual),
    ("dso.read_policy.stale_reads", "count", Clock::Virtual),
    ("dso.read_policy.max_staleness_us", "vus", Clock::Virtual),
    ("dso.durability.records_per_append", "count", Clock::Virtual),
    ("dso.durability.wal_append_us_p50", "vus", Clock::Virtual),
    ("dso.durability.wal_backlog_max", "count", Clock::Virtual),
    ("dso.durability.sync_deferred_acks", "count", Clock::Virtual),
    ("dso.durability.checkpoints", "count", Clock::Virtual),
    ("dso.durability.checkpoint_bytes", "count", Clock::Virtual),
    ("dso.durability.recover_bytes", "count", Clock::Virtual),
    ("dso.durability.recover_segments", "count", Clock::Virtual),
    ("dso.membership.view_changes", "count", Clock::Virtual),
    ("faas.platform.invocations", "count", Clock::Virtual),
    ("faas.platform.cold_start_ratio", "ratio", Clock::Virtual),
    ("faas.platform.throttled", "count", Clock::Virtual),
    ("faas.platform.coldstart_us_p50", "vus", Clock::Virtual),
    ("faas.platform.dispatch_self_us_p50", "vus", Clock::Virtual),
    ("faas.platform.exec_us_p50", "vus", Clock::Virtual),
    ("faas.billing.gb_seconds", "count", Clock::Virtual),
    ("crucial.thread.starts", "count", Clock::Virtual),
    ("crucial.thread.retries", "count", Clock::Virtual),
    ("crucial.thread.overhead_us_p50", "vus", Clock::Virtual),
    ("crucial.pi.hits", "count", Clock::Virtual),
    ("cloudstore.s3.put_us_p50", "vus", Clock::Virtual),
    ("cloudstore.s3.get_us_p50", "vus", Clock::Virtual),
    ("cloudstore.s3.requests", "count", Clock::Virtual),
    ("ml.kmeans.iteration_s", "vs", Clock::Virtual),
    ("ml.kmeans.sse_final", "count", Clock::Virtual),
];

/// What `--trace 1` prints, in order: the end-to-end metrics some workload
/// cannot report, then [`PER_LAYER`].
pub fn traced_metrics() -> impl Iterator<Item = (&'static str, &'static str, Clock)> {
    let partial = END_TO_END.iter().filter(|m| m.across_seeds.is_none());
    partial.map(|m| (m.name, m.unit, m.clock)).chain(PER_LAYER)
}

/// Host cost of the untraced and traced simulations of a traced pass,
/// medians over its repeats.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostLayer {
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// `/proc` deltas over the untraced timed region.
    pub handoffs: f64,
    pub utime: f64,
    pub stime: f64,
    pub pinned_cpu: usize,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p_us(sorted: &[u64], p: f64) -> f64 {
    percentile(sorted, p, 0).map_or(0.0, us)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one simulation says of a virtual-time end-to-end metric; 0 where
/// the workload has nothing to report.
fn virtual_value(rep: &Rep, name: &str) -> f64 {
    match name {
        "sim_ops_per_s" => rep.sim_ops_per_s,
        "sim_op_p50_us" => p_us(&rep.latencies_ns, 0.5),
        // A p99 is reported only with ten samples beyond it.
        "sim_op_p99_us" => percentile(&rep.latencies_ns, 0.99, 10).map_or(0.0, us),
        "sim_makespan_s" => rep.sim_makespan_s,
        "sim_cost_usd" => rep.sim_cost_usd,
        "sim_recovery_s" => rep.sim_recovery_s,
        "failed_op_share" => rep.failed_op_share(),
        other => unreachable!("{other} is not a virtual-time end-to-end metric"),
    }
}

/// What `--trace 0` prints: the end-to-end metrics every workload reports,
/// from a timed run's repeats (all of one seed: the virtual-time values
/// are those of the first).
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let host = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let value = |name: &str| match name {
        "setup_s" => host(|r| r.host.setup.as_secs_f64()),
        "host_wall_s" => host(|r| r.host.wall.as_secs_f64()),
        "host_us_per_op" => host(|r| r.host.wall.as_secs_f64() * 1e6 / r.ops.max(1) as f64),
        "host_peak_rss_mb" => peak_rss_mb,
        name => virtual_value(&reps[0], name),
    };
    let everywhere = END_TO_END.iter().filter(|m| m.across_seeds.is_some());
    everywhere.map(|m| Metric::new(m.name, value(m.name), m.unit)).collect()
}

/// The per-layer metrics of a traced pass: `rep` is the traced simulation
/// whose spans and counters `spans` and `reg` hold. Also returns the
/// self-time table of the op's span tree, for the run's notes.
pub fn per_layer(
    rep: &Rep,
    spans: &[SpanRecord],
    reg: &MetricsRegistry,
    host: &HostLayer,
) -> (Vec<Metric>, Vec<String>) {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let (from, to) = rep.window_ns;
    let ops = rep.ops.max(1) as f64;
    let counter = |name: &str| reg.counter_value(name) as f64;
    let span_p = |name: &str, p: f64| p_us(&durations(spans, name, from, to), p);

    for metric in END_TO_END.iter().filter(|m| m.across_seeds.is_none()) {
        m.insert(metric.name, virtual_value(rep, metric.name));
    }
    m.insert("sim_op_samples", rep.latencies_ns.len() as f64);
    m.insert("pinned_cpu", host.pinned_cpu as f64);

    let events = rep.events as f64;
    m.insert("simcore.kernel.host_ns_per_event", ratio(host.untraced_wall_s * 1e9, events));
    m.insert("simcore.kernel.events_per_host_s", ratio(events, host.untraced_wall_s));
    m.insert("simcore.kernel.events_per_op", events / ops);
    m.insert("simcore.kernel.handoffs_per_event", ratio(host.handoffs, events));
    m.insert("simcore.kernel.sys_cpu_share", ratio(host.stime, host.utime + host.stime));
    m.insert(
        "simcore.trace.overhead_share",
        ratio(host.traced_wall_s - host.untraced_wall_s, host.untraced_wall_s),
    );
    let in_window = |s: &&SpanRecord| (from..to).contains(&s.start.as_nanos());
    m.insert("simcore.trace.spans_per_op", spans.iter().filter(in_window).count() as f64 / ops);

    let at = attribute(spans, rep.root_span, from, to);
    m.insert("simcore.trace.attributed_share", at.attributed_share());
    m.insert("simcore.trace.unattributed_us", mean(&at.unattributed_ns) / 1e3);
    let self_p = |name: &str, p: f64| {
        let mut v = at.self_ns.get(name).cloned().unwrap_or_default();
        v.sort_unstable();
        p_us(&v, p)
    };
    let calls = spans.iter().filter(in_window).filter(|s| s.name == "dso.call").count();
    m.insert("dso.client.invokes_per_op", calls as f64 / ops);
    m.insert("dso.client.retries", counter("dso.retries"));
    m.insert("dso.client.call_self_us_p50", self_p("dso.call", 0.5));
    m.insert("dso.client.attempt_wait_us_p50", self_p("dso.attempt", 0.5));
    m.insert("dso.client.attempt_wait_us_p99", self_p("dso.attempt", 0.99));
    m.insert("dso.server.exec_self_us_p50", self_p("dso.exec", 0.5));
    let depth: Vec<f64> = reg.series("dso.queue_depth").points().iter().map(|p| p.1).collect();
    m.insert("dso.server.queue_depth_mean", ratio(depth.iter().sum(), depth.len() as f64));
    m.insert("dso.server.shed", counter("dso.shed"));
    // Roots with a round under them are the replicated writes.
    let writes = at.self_ns.get("dso.smr_round").map_or(0, Vec::len);
    let rounds = durations(spans, "dso.smr_round", from, to);
    m.insert("dso.skeen.rounds_per_write", ratio(rounds.len() as f64, writes as f64));
    m.insert("dso.skeen.round_us_p50", p_us(&rounds, 0.5));
    m.insert("dso.skeen.round_us_p99", p_us(&rounds, 0.99));
    let hit_ratio = |tier: &str| {
        let hit = counter(&format!("dso.{tier}.hit"));
        ratio(hit, hit + counter(&format!("dso.{tier}.miss")))
    };
    m.insert("dso.read_cache.hit_ratio", hit_ratio("read_cache"));
    m.insert("dso.node_cache.hit_ratio", hit_ratio("node_cache"));
    m.insert("dso.node_cache.invalidations", counter("dso.node_cache.invalidate"));
    m.insert("dso.read_policy.stale_reads", counter("dso.stale_reads"));
    m.insert(
        "dso.durability.records_per_append",
        ratio(counter("dso.wal_records"), counter("dso.wal_appends")),
    );
    m.insert("dso.durability.wal_append_us_p50", span_p("dso.wal_append", 0.5));
    let backlog = reg.series("dso.wal_backlog").points().iter().map(|p| p.1).fold(0.0, f64::max);
    m.insert("dso.durability.wal_backlog_max", backlog);
    m.insert("dso.durability.sync_deferred_acks", counter("dso.sync_deferred_acks"));
    m.insert("dso.durability.checkpoints", counter("dso.checkpoints"));
    m.insert("dso.durability.checkpoint_bytes", counter("dso.checkpoint_bytes"));
    m.insert("dso.membership.view_changes", counter("dso.view_changes"));
    m.insert("faas.platform.invocations", counter("faas.invocations"));
    m.insert(
        "faas.platform.cold_start_ratio",
        ratio(counter("faas.cold_starts"), counter("faas.invocations")),
    );
    m.insert("faas.platform.throttled", counter("faas.throttled"));
    m.insert("faas.platform.coldstart_us_p50", span_p("faas.coldstart", 0.5));
    m.insert("faas.platform.dispatch_self_us_p50", self_p("faas.invoke", 0.5));
    m.insert("faas.platform.exec_us_p50", span_p("faas.exec", 0.5));
    m.insert("crucial.thread.starts", counter("core.thread_starts"));
    m.insert("crucial.thread.retries", counter("core.thread_retries"));
    m.insert("crucial.thread.overhead_us_p50", self_p("cloud.thread", 0.5));

    // What only the workload itself can know wins over the generic value.
    for (name, value) in &rep.extra {
        m.insert(name, *value);
    }
    let metrics = traced_metrics()
        .map(|(name, unit, _)| Metric::new(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    (metrics, at.table())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::layers::METRICS)
            .collect();
        for n in &names {
            let ok = n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        let bounds = END_TO_END.iter().filter_map(|m| m.across_seeds);
        assert!(bounds.clone().all(|b| b > 0.0 && b <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("listed");
        assert_eq!(setup.across_seeds, bounds.reduce(f64::max), "set-up has the largest bound");
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; these tables
    /// are what the program prints. They must say the same.
    #[test]
    fn tables_match_benchmark_json() {
        use crate::json::Value;
        let doc = Value::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items,
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        };
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
        for w in list("workloads") {
            let why = text(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let e2e = list("end_to_end");
        let ours: Vec<_> = END_TO_END.iter().filter(|m| m.across_seeds.is_some()).collect();
        assert_eq!(e2e.len(), ours.len());
        for (json, ours) in e2e.iter().zip(ours) {
            assert_eq!(text(json, "name"), ours.name);
            assert_eq!(text(json, "unit"), ours.unit);
            let better = if ours.higher_is_better { "higher" } else { "lower" };
            assert_eq!(text(json, "better"), better, "{}", ours.name);
            assert_eq!(json.get("bound"), ours.across_seeds.map(Value::Num).as_ref());
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), traced_metrics().count());
        for (json, (name, unit, _)) in layers.iter().zip(traced_metrics()) {
            assert_eq!((text(json, "name"), text(json, "unit")), (name.into(), unit.into()));
        }
    }
}
