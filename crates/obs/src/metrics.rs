//! The metric primitives and their registry.

use crate::span::SpanAgg;
use dhub_sync::{CachePadded, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Stable small integer per thread, used to pick a counter shard. Slots
/// are handed out on first use and never recycled; the shard index is the
/// slot masked to the shard count, so two threads share a shard only when
/// more threads than shards exist.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

/// Shard count for new counters: enough for the machine's parallelism,
/// power of two, capped so idle counters stay small.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
        .next_power_of_two()
        .min(64)
}

struct CounterShards {
    shards: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

/// A monotone counter sharded over cache-padded atomics: increments touch
/// one line per thread, reads sum the shards. Reads are monotone across
/// non-overlapping read pairs (each shard is individually monotone), which
/// is what a `/metrics` scraper needs.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterShards>,
}

impl Counter {
    /// A counter not registered anywhere (still fully functional; used by
    /// bookkeeping structs that may outlive any registry).
    pub fn detached() -> Counter {
        let n = default_shards();
        let shards: Box<[CachePadded<AtomicU64>]> =
            (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect();
        Counter { inner: Arc::new(CounterShards { shards, mask: n - 1 }) }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let i = thread_slot() & self.inner.mask;
        self.inner.shards[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum of shards).
    pub fn get(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

/// A [`Counter`] handle paired with its value at attach time: `add` feeds
/// the live metric, `delta` reads only this run's contribution. This is
/// how report structs are derived from a long-lived registry — the counter
/// stays monotone for scrapers while the report sees an exact per-run
/// figure.
#[derive(Clone)]
pub struct DeltaCounter {
    counter: Counter,
    start: u64,
}

impl DeltaCounter {
    /// A delta over a fresh detached counter (delta == counter value).
    pub fn detached() -> DeltaCounter {
        DeltaCounter { counter: Counter::detached(), start: 0 }
    }

    /// Attaches to `reg`'s counter `name`, remembering its current value.
    pub fn on(reg: &MetricsRegistry, name: &str) -> DeltaCounter {
        let counter = reg.counter(name);
        DeltaCounter { start: counter.get(), counter }
    }

    /// Adds 1 to the underlying counter.
    pub fn inc(&self) {
        self.counter.inc();
    }

    /// Adds `n` to the underlying counter.
    pub fn add(&self, n: u64) {
        self.counter.add(n);
    }

    /// This run's contribution: current value minus the attach-time value.
    pub fn delta(&self) -> u64 {
        self.counter.get() - self.start
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { bits: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }

    /// A gauge not registered anywhere — for components that want
    /// observability to be optional without branching at every set.
    pub fn detached() -> Gauge {
        Gauge::new()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets: bucket `i` holds values whose bit length is `i`
/// (i.e. `v` in `[2^(i-1), 2^i)`); bucket 0 holds zero.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A log2-bucketed histogram of `u64` observations (latencies in ns, blob
/// sizes in bytes). Exact enough for order-of-magnitude dashboards at the
/// cost of two atomic adds per observation.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Bucket index of a value: its bit length (0 for 0).
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.inner.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, indexed by bit length.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (i, b) in self.inner.buckets.iter().enumerate() {
            out[i] = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// A named collection of metrics plus span aggregates. Handles returned by
/// the accessors are `Arc`-backed: callers resolve a name once, then record
/// lock-free. `BTreeMap` keeps every export deterministically ordered.
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    pub(crate) spans: RwLock<BTreeMap<String, Arc<SpanAgg>>>,
    /// XOR of every span id ever entered: an order-independent digest of
    /// the trace, equal across runs (and thread counts) exactly when the
    /// set of spans is — the replayability check.
    pub(crate) span_id_xor: AtomicU64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            span_id_xor: AtomicU64::new(0),
        }
    }

    /// The process-global registry — what `dhub serve` exposes at
    /// `/metrics` when no explicit registry is wired in. Library code and
    /// tests should prefer a fresh registry per run: counters here are
    /// cumulative for the process lifetime.
    pub fn global() -> Arc<MetricsRegistry> {
        static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new())).clone()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters.write().entry(name.to_string()).or_insert_with(Counter::detached).clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges.write().entry(name.to_string()).or_insert_with(Gauge::new).clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms.write().entry(name.to_string()).or_insert_with(Histogram::new).clone()
    }

    /// Current value of a counter (0 if it was never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map(|c| c.get()).unwrap_or(0)
    }

    /// Current value of a gauge (0.0 if it was never created).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.read().get(name).map(|g| g.get()).unwrap_or(0.0)
    }

    pub(crate) fn counters_map(&self) -> BTreeMap<String, u64> {
        self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    pub(crate) fn gauges_map(&self) -> BTreeMap<String, f64> {
        self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    pub(crate) fn histograms_map(&self) -> BTreeMap<String, Histogram> {
        self.histograms.read().iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_exactly_under_contention() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total");
        dhub_sync::work_crew(8, |_| {
            for _ in 0..10_000 {
                c.inc();
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(reg.counter_value("t_total"), 80_000);
    }

    #[test]
    fn counter_handles_alias_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(3);
        reg.counter("x").add(4);
        assert_eq!(reg.counter_value("x"), 7);
        assert_eq!(reg.counter_value("never_touched"), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("ratio");
        g.set(0.25);
        g.set(0.5);
        assert_eq!(reg.gauge_value("ratio"), 0.5);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("sizes");
        for v in [0u64, 1, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1032);
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 1);
        assert_eq!(b[3], 1);
        assert_eq!(b[11], 1);
    }

    #[test]
    fn counter_reads_are_monotone() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("mono");
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = {
                let c = c.clone();
                let done = &done;
                s.spawn(move || {
                    for _ in 0..200_000 {
                        c.inc();
                    }
                    done.store(true, Ordering::Relaxed);
                })
            };
            let mut last = 0u64;
            while !done.load(Ordering::Relaxed) {
                let now = c.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
            }
            writer.join().unwrap();
        });
        assert_eq!(c.get(), 200_000);
    }
}
