//! Lightweight measurement helpers: latency statistics and time series.
//!
//! These are plain owned values (cheaply clonable handles around shared
//! state) that experiment harnesses read after the simulation finishes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use crate::time::SimTime;

/// Sums `f64` terms with a `+0.0` identity for the empty case.
///
/// `Iterator::sum::<f64>()` over an empty iterator yields `-0.0`, which
/// leaks a "-0.00" into rendered cost tables the first time an empty
/// ledger is formatted. Every GB-second/ledger fold in the workspace goes
/// through this one helper so the fix lives in exactly one place.
///
/// # Examples
///
/// ```
/// assert!(simcore::fsum(std::iter::empty()).is_sign_positive());
/// assert_eq!(simcore::fsum([1.0, 2.0, 3.0]), 6.0);
/// ```
pub fn fsum<I: IntoIterator<Item = f64>>(terms: I) -> f64 {
    terms.into_iter().fold(0.0, |acc, x| acc + x)
}

/// Accumulates latency observations and reports summary statistics.
///
/// Stores every sample (simulations here are small enough), so exact
/// percentiles are available.
///
/// # Examples
///
/// ```
/// use simcore::LatencyStats;
/// use std::time::Duration;
///
/// let stats = LatencyStats::new("put");
/// stats.record(Duration::from_micros(100));
/// stats.record(Duration::from_micros(300));
/// assert_eq!(stats.count(), 2);
/// assert_eq!(stats.mean(), Duration::from_micros(200));
/// ```
#[derive(Clone)]
pub struct LatencyStats {
    inner: Rc<RefCell<LatencyInner>>,
}

struct LatencyInner {
    name: String,
    samples: Vec<u64>, // nanos
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty accumulator labelled `name`.
    pub fn new(name: &str) -> LatencyStats {
        LatencyStats {
            inner: Rc::new(RefCell::new(LatencyInner {
                name: name.to_string(),
                samples: Vec::new(),
                sorted: true,
            })),
        }
    }

    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let mut g = self.inner.borrow_mut();
        g.samples.push(d.as_nanos().min(u64::MAX as u128) as u64);
        g.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.inner.borrow().samples.len()
    }

    /// Mean latency; zero if empty.
    pub fn mean(&self) -> Duration {
        let g = self.inner.borrow();
        if g.samples.is_empty() {
            return Duration::ZERO;
        }
        let sum: u128 = g.samples.iter().map(|&s| s as u128).sum();
        Duration::from_nanos((sum / g.samples.len() as u128) as u64)
    }

    /// Exact percentile in `[0, 100]`; zero if empty.
    pub fn percentile(&self, p: f64) -> Duration {
        let mut g = self.inner.borrow_mut();
        if g.samples.is_empty() {
            return Duration::ZERO;
        }
        if !g.sorted {
            g.samples.sort_unstable();
            g.sorted = true;
        }
        let idx = ((p / 100.0) * (g.samples.len() - 1) as f64).round() as usize;
        Duration::from_nanos(g.samples[idx.min(g.samples.len() - 1)])
    }

    /// Minimum observation; zero if empty.
    pub fn min(&self) -> Duration {
        let g = self.inner.borrow();
        Duration::from_nanos(g.samples.iter().copied().min().unwrap_or(0))
    }

    /// Maximum observation; zero if empty.
    pub fn max(&self) -> Duration {
        let g = self.inner.borrow();
        Duration::from_nanos(g.samples.iter().copied().max().unwrap_or(0))
    }

    /// Label given at construction.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }
}

impl fmt::Debug for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyStats")
            .field("name", &self.name())
            .field("count", &self.count())
            .field("mean", &self.mean())
            .finish()
    }
}

/// A shared counter, e.g. completed operations.
#[derive(Clone, Default)]
pub struct Counter {
    inner: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.set(self.inner.get() + n);
    }

    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.get()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A time series of `(virtual time, value)` points — e.g. Fig. 8's
/// inference completions. Only `Ctx::metric_push` appends a point, so every
/// point carries the kernel's virtual time at the push.
#[derive(Clone, Default)]
pub struct Series {
    inner: Rc<RefCell<Vec<(SimTime, f64)>>>,
}

impl Series {
    /// Appends a point.
    pub(crate) fn push(&self, t: SimTime, v: f64) {
        self.inner.borrow_mut().push((t, v));
    }

    /// Snapshot of all points in insertion order.
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        self.inner.borrow().clone()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean of values within `[from, to)`; `None` if no points fall there.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let g = self.inner.borrow();
        let vals: Vec<f64> =
            g.iter().filter(|(t, _)| *t >= from && *t < to).map(|(_, v)| *v).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Series(len={})", self.len())
    }
}

/// A named registry of [`Counter`]s, [`LatencyStats`] histograms, and
/// [`Series`] — the shared measurement surface of a simulation.
///
/// Install one on a `Sim` with `Sim::set_metrics`; processes then record
/// through `Ctx::metric_incr` / `Ctx::metric_record` (or by fetching a
/// handle with [`MetricsRegistry::counter`] / [`histogram`]), and the
/// harness reads everything back by name after the run. Instruments are
/// created lazily on first use and stored in sorted (`BTreeMap`) order, so
/// snapshots iterate deterministically.
///
/// [`histogram`]: MetricsRegistry::histogram
///
/// # Examples
///
/// ```
/// use simcore::MetricsRegistry;
/// use std::time::Duration;
///
/// let m = MetricsRegistry::new();
/// m.incr("dso.invokes");
/// m.record("put", Duration::from_micros(150));
/// assert_eq!(m.counter_value("dso.invokes"), 1);
/// assert_eq!(m.histogram("put").count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, LatencyStats>,
    series: BTreeMap<String, Series>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use. The returned
    /// handle shares state with the registry.
    ///
    /// Looks up by `&str` first so the steady-state path (instrument
    /// already exists) never allocates an owned key.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.borrow_mut();
        if let Some(c) = g.counters.get(name) {
            return c.clone();
        }
        g.counters.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first use (allocation
    /// only on that first use, like [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> LatencyStats {
        let mut g = self.inner.borrow_mut();
        if let Some(h) = g.histograms.get(name) {
            return h.clone();
        }
        g.histograms.entry(name.to_string()).or_insert_with(|| LatencyStats::new(name)).clone()
    }

    /// The time series named `name`, created empty on first use (allocation
    /// only on that first use, like [`MetricsRegistry::counter`]).
    pub fn series(&self, name: &str) -> Series {
        let mut g = self.inner.borrow_mut();
        if let Some(s) = g.series.get(name) {
            return s.clone();
        }
        g.series.entry(name.to_string()).or_default().clone()
    }

    /// Increments the counter named `name`.
    pub fn incr(&self, name: &str) {
        self.counter(name).incr();
    }

    /// Adds `n` to the counter named `name`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Records one observation into the histogram named `name`.
    pub fn record(&self, name: &str, d: Duration) {
        self.histogram(name).record(d);
    }

    /// Current value of the counter named `name`; zero if it was never
    /// touched (does not create it).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Snapshot of all counters as `(name, value)`, in name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.borrow().counters.iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// Snapshot of all histograms as `(name, handle)`, in name order.
    pub fn histograms(&self) -> Vec<(String, LatencyStats)> {
        self.inner.borrow().histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Human-readable dump of every instrument, in name order (so the text
    /// is deterministic across identically-seeded runs).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "histogram {name}: n={} mean={:?} p50={:?} p99={:?} max={:?}\n",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.max(),
            ));
        }
        let g = self.inner.borrow();
        for (name, s) in g.series.iter() {
            out.push_str(&format!("series    {name}: {} points\n", s.len()));
        }
        out
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.inner.borrow();
        write!(
            f,
            "MetricsRegistry(counters={}, histograms={}, series={})",
            g.counters.len(),
            g.histograms.len(),
            g.series.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basics() {
        let s = LatencyStats::new("x");
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.percentile(50.0), Duration::ZERO);
        for us in [10u64, 20, 30, 40, 50] {
            s.record(Duration::from_micros(us));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), Duration::from_micros(30));
        assert_eq!(s.percentile(0.0), Duration::from_micros(10));
        assert_eq!(s.percentile(50.0), Duration::from_micros(30));
        assert_eq!(s.percentile(100.0), Duration::from_micros(50));
        assert_eq!(s.min(), Duration::from_micros(10));
        assert_eq!(s.max(), Duration::from_micros(50));
        assert_eq!(s.name(), "x");
    }

    #[test]
    fn percentile_after_interleaved_records() {
        let s = LatencyStats::new("y");
        s.record(Duration::from_micros(30));
        let _ = s.percentile(50.0); // forces a sort
        s.record(Duration::from_micros(10)); // unsorted again
        assert_eq!(s.percentile(0.0), Duration::from_micros(10));
    }

    #[test]
    fn counter() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.incr();
        assert_eq!(c.get(), 6, "clones share state");
    }

    #[test]
    fn registry_shares_instruments_and_orders_snapshots() {
        let m = MetricsRegistry::new();
        m.incr("z.last");
        m.add("a.first", 3);
        let c = m.counter("a.first");
        c.incr();
        assert_eq!(m.counter_value("a.first"), 4, "handles share state");
        assert_eq!(m.counter_value("untouched"), 0);
        m.record("put", Duration::from_micros(10));
        m.record("put", Duration::from_micros(30));
        assert_eq!(m.histogram("put").mean(), Duration::from_micros(20));
        m.series("tput").push(SimTime::from_secs(1), 5.0);
        let names: Vec<String> = m.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first".to_string(), "z.last".to_string()]);
        let clone = m.clone();
        clone.incr("a.first");
        assert_eq!(m.counter_value("a.first"), 5, "registry clones share state");
        let s = m.summary();
        assert!(s.contains("counter   a.first = 5"), "{s}");
        assert!(s.contains("histogram put: n=2"), "{s}");
        assert!(s.contains("series    tput: 1 points"), "{s}");
    }

    #[test]
    fn series_mean_in_window() {
        let s = Series::default();
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        s.push(SimTime::from_secs(3), 60.0);
        assert_eq!(s.len(), 3);
        let m = s.mean_in(SimTime::from_secs(1), SimTime::from_secs(3)).expect("points");
        assert!((m - 15.0).abs() < 1e-9);
        assert!(s.mean_in(SimTime::from_secs(10), SimTime::from_secs(20)).is_none());
    }
}
