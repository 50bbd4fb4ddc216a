#![deny(missing_docs)]
#![deny(clippy::unwrap_used)]

//! Lightweight observability for the ISDL suite: an atomic
//! counter / gauge / histogram / span-timer [`Registry`] with
//! near-zero overhead when disabled, JSON snapshot emission, a
//! structured event [`log`], an always-on [`flight`] recorder, and
//! Prometheus exposition ([`prom`]) — see `docs/OBSERVABILITY.md`
//! for the full schema reference.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path safety.** Every metric is lock-free to *record*
//!    ([`Counter::add`], [`Histogram::record`] are relaxed atomics);
//!    locks appear only on the registration and snapshot paths.
//! 2. **Near-zero overhead when disabled.** Each metric shares its
//!    registry's [`Gate`]; a disabled gate turns `record` into one
//!    relaxed load and a predictable branch, and [`Histogram::span`]
//!    additionally skips the `Instant::now` syscall entirely.
//! 3. **No dependencies.** The workspace builds offline; the [`json`]
//!    module supplies the value type, serializer, and parser that
//!    every stats file in the suite uses.
//!
//! # Examples
//!
//! ```
//! let reg = obs::Registry::new();
//! let evals = reg.counter("explore.evaluated");
//! let latency = reg.histogram("explore.eval_latency_us");
//! evals.add(3);
//! latency.record(120);
//! {
//!     let _span = latency.span(); // records elapsed µs on drop
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("counters").and_then(|c| c.get_u64("explore.evaluated")), Some(3));
//! ```

pub mod flight;
pub mod json;
pub mod log;
pub mod prom;
pub mod trace;

pub use json::Json;
pub use log::{Filter as LogFilter, Level};
pub use trace::{ChromeTrace, RingSink, StreamSink, TraceSink};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Serializes the unit tests that touch process-wide state — the log
/// dispatcher and the flight recorder's rings, dump directory, and dump
/// counter — so parallel test threads never interleave on it. A flight
/// note also reaches the log dispatcher, so both modules share this one
/// guard.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A shared on/off switch for a family of metrics.
///
/// Cloning a gate shares the underlying flag (it is an `Arc`), so a
/// registry and all metrics created from it flip together.
#[derive(Debug, Clone)]
pub struct Gate(Arc<AtomicBool>);

impl Gate {
    /// A new gate in the given state.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self(Arc::new(AtomicBool::new(enabled)))
    }

    /// Whether metrics behind this gate record (one relaxed load).
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Enables or disables every metric sharing this gate.
    pub fn set(&self, enabled: bool) {
        self.0.store(enabled, Ordering::Relaxed);
    }
}

impl Default for Gate {
    fn default() -> Self {
        Self::new(true)
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    gate: Gate,
}

impl Counter {
    /// A standalone, always-enabled counter.
    #[must_use]
    pub fn new() -> Self {
        Self::gated(Gate::new(true))
    }

    /// A counter controlled by `gate`.
    #[must_use]
    pub fn gated(gate: Gate) -> Self {
        Self { value: AtomicU64::new(0), gate }
    }

    /// Adds `n` (no-op when the gate is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.gate.enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-value metric: [`Gauge::set`] overwrites, [`Gauge::get`]
/// reads. Gated like [`Counter`] — a disabled gate turns `set` into
/// one relaxed load and a branch. Used for instantaneous quantities
/// (frontier size, cache entries, live workers) where a monotone
/// counter would be wrong.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
    gate: Gate,
}

impl Gauge {
    /// A standalone, always-enabled gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::gated(Gate::new(true))
    }

    /// A gauge controlled by `gate`.
    #[must_use]
    pub fn gated(gate: Gate) -> Self {
        Self { value: AtomicU64::new(0), gate }
    }

    /// Sets the current value (no-op when the gate is disabled).
    #[inline]
    pub fn set(&self, v: u64) {
        if self.gate.enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The last value set.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of power-of-two buckets: bucket *i* counts values `v` with
/// `v.ilog2() == i` (bucket 0 additionally holds `v == 0`), so the
/// full `u64` range is covered.
const BUCKETS: usize = 64;

/// A lock-free histogram over `u64` samples (power-of-two buckets),
/// tracking count, sum, min, and max exactly and quantiles to within
/// one octave.
///
/// Units are the caller's choice; the suite records **microseconds**
/// in every latency histogram (`*_us` names).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    gate: Gate,
}

impl Histogram {
    /// A standalone, always-enabled histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::gated(Gate::new(true))
    }

    /// A histogram controlled by `gate`.
    #[must_use]
    pub fn gated(gate: Gate) -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            gate,
        }
    }

    /// Records one sample (no-op when the gate is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.gate.enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = if v == 0 { 0 } else { v.ilog2() as usize };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a span that records its elapsed **microseconds** into
    /// this histogram when dropped (or via [`Span::finish`]). When the
    /// gate is disabled the span is inert and never reads the clock.
    #[must_use]
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: self.gate.enabled().then(Instant::now) }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time summary of the distribution.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of bucket i: 2^(i+1) - 1.
                    return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                }
            }
            self.max.load(Ordering::Relaxed)
        };
        Summary {
            count,
            sum,
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain-data snapshot of a [`Histogram`] — cloneable, comparable,
/// and embeddable in result structs (e.g. `archex`'s exploration
/// trace). Quantiles are bucket upper bounds: exact to within one
/// power of two.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median, as a power-of-two upper bound.
    pub p50: u64,
    /// 90th percentile, as a power-of-two upper bound.
    pub p90: u64,
    /// 99th percentile, as a power-of-two upper bound.
    pub p99: u64,
}

impl Summary {
    /// The summary as a JSON object (the `histogram` schema object of
    /// `docs/OBSERVABILITY.md`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min)
            .with("max", self.max)
            .with("mean", self.mean)
            .with("p50", self.p50)
            .with("p90", self.p90)
            .with("p99", self.p99)
    }
}

/// An in-flight timed section; records elapsed microseconds into its
/// histogram when dropped.
#[derive(Debug)]
pub struct Span<'h> {
    hist: &'h Histogram,
    /// `None` when the gate was disabled at start — the drop is free.
    start: Option<Instant>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.hist.record(us);
        }
    }
}

/// A named collection of metrics sharing one [`Gate`].
///
/// Metrics are created on first use and identified by name; asking for
/// the same name twice returns the same underlying metric. Snapshots
/// list metrics in name order so emitted JSON is deterministic.
#[derive(Debug)]
pub struct Registry {
    gate: Gate,
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

impl Registry {
    /// An enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_gate(Gate::new(true))
    }

    /// A registry that starts disabled; its metrics record nothing
    /// until [`Registry::set_enabled`] flips the shared gate.
    #[must_use]
    pub fn disabled() -> Self {
        Self::with_gate(Gate::new(false))
    }

    fn with_gate(gate: Gate) -> Self {
        Self {
            gate,
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// The registry's gate (shared with every metric it created).
    #[must_use]
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// Enables or disables all metrics at once.
    pub fn set_enabled(&self, enabled: bool) {
        self.gate.set(enabled);
    }

    /// Whether metrics currently record.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.gate.enabled()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut list = self.counters.lock().expect("metric list lock");
        if let Some((_, c)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::gated(self.gate.clone()));
        list.push((name.to_owned(), Arc::clone(&c)));
        c
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut list = self.gauges.lock().expect("metric list lock");
        if let Some((_, g)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::gated(self.gate.clone()));
        list.push((name.to_owned(), Arc::clone(&g)));
        g
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut list = self.histograms.lock().expect("metric list lock");
        if let Some((_, h)) = list.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::gated(self.gate.clone()));
        list.push((name.to_owned(), Arc::clone(&h)));
        h
    }

    /// A point-in-time JSON snapshot of every metric (the
    /// `obs-snapshot/1` schema of `docs/OBSERVABILITY.md`): counters
    /// and gauges as `name: value`, histograms as `name: summary`,
    /// all sorted by name. The `gauges` member is additive — readers
    /// of pre-gauge snapshots see no change until a gauge exists.
    #[must_use]
    pub fn snapshot(&self) -> Json {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("metric list lock")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64)> = self
            .gauges
            .lock()
            .expect("metric list lock")
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, Summary)> = self
            .histograms
            .lock()
            .expect("metric list lock")
            .iter()
            .map(|(n, h)| (n.clone(), h.summary()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Json::obj()
            .with("schema", "obs-snapshot/1")
            .with("enabled", self.enabled())
            .with("counters", Json::Obj(counters.into_iter().map(|(n, v)| (n, v.into())).collect()))
            .with("gauges", Json::Obj(gauges.into_iter().map(|(n, v)| (n, v.into())).collect()))
            .with(
                "histograms",
                Json::Obj(histograms.into_iter().map(|(n, s)| (n, s.to_json())).collect()),
            )
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3, "same name, same counter");
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.inc();
        g.set(9);
        h.record(5);
        h.span().finish();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        c.inc();
        g.set(9);
        h.record(5);
        assert_eq!(c.get(), 1, "gate re-enables existing metrics");
        assert_eq!(g.get(), 9);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn gauges_hold_last_value_and_snapshot_additively() {
        let reg = Registry::new();
        let g = reg.gauge("explore.frontier");
        g.set(3);
        g.set(11);
        assert_eq!(g.get(), 11, "last value wins");
        assert!(Arc::ptr_eq(&g, &reg.gauge("explore.frontier")), "same name, same gauge");
        reg.gauge("explore.cache_entries").set(2);
        let snap = reg.snapshot();
        let gauges = snap.get("gauges").expect("gauges block");
        assert_eq!(gauges.get_u64("explore.frontier"), Some(11));
        assert_eq!(gauges.get_u64("explore.cache_entries"), Some(2));
        match gauges {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "explore.cache_entries", "sorted by name");
            }
            other => panic!("gauges not an object: {other:?}"),
        }
    }

    #[test]
    fn histogram_summary_tracks_exact_and_bucketed_stats() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 1106.0 / 6.0).abs() < 1e-9);
        assert!(s.p50 >= 2 && s.p50 <= 3, "median within its octave: {}", s.p50);
        assert!(s.p99 >= 1000, "p99 upper bound covers the max: {}", s.p99);
        assert_eq!(Histogram::new().summary(), Summary::default(), "empty summary is zeroed");
    }

    #[test]
    fn span_records_elapsed_micros() {
        let h = Histogram::new();
        {
            let _span = h.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000, "at least ~2ms recorded, got {}µs", s.max);
    }

    #[test]
    fn snapshot_is_sorted_and_parseable() {
        let reg = Registry::new();
        reg.counter("z.last").add(9);
        reg.counter("a.first").add(1);
        reg.histogram("lat").record(7);
        let snap = reg.snapshot();
        let text = snap.to_pretty();
        let parsed = Json::parse(&text).expect("snapshot parses");
        assert_eq!(parsed.get_str("schema"), Some("obs-snapshot/1"));
        let counters = parsed.get("counters").expect("counters");
        match counters {
            Json::Obj(members) => {
                assert_eq!(members[0].0, "a.first", "sorted by name");
                assert_eq!(members[1].0, "z.last");
            }
            other => panic!("counters not an object: {other:?}"),
        }
        assert_eq!(
            parsed.get("histograms").and_then(|h| h.get("lat")).and_then(|l| l.get_u64("count")),
            Some(1)
        );
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let h = reg.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
