//! The lock-sharded global metrics registry.
//!
//! Three metric kinds, all safe to hammer from many threads:
//!
//! * [`Counter`] — monotonically increasing `u64` (messages sent,
//!   updates accepted, …);
//! * [`Gauge`] — a settable `i64` level (remaining DP budget, queue
//!   depth, …);
//! * [`Histogram`] — log-bucketed latency distribution with
//!   p50/p95/p99/max quantile queries; the recording target of
//!   [`span!`](crate::span!) guards.
//!
//! Metrics are named with dotted paths (`crate.component.phase`, see
//! DESIGN.md §8) and interned on first use: `counter("pbft.executed")`
//! returns the same [`Counter`] from every call site. Name lookups hash
//! into one of [`SHARDS`] independently locked maps so unrelated hot
//! paths never contend on a single registry lock; increments themselves
//! are lock-free atomics on the returned handle.
//!
//! A look-up is a lock, a hash of the name and an `Arc` clone, so code
//! that records per event does it once, not per event: a [`Handle`] is a
//! `static` that names a metric of the global registry and keeps the
//! resolved `Arc` after its first use. The [`counter!`](crate::counter!),
//! [`gauge!`](crate::gauge!), [`histogram!`](crate::histogram!) and
//! [`span!`](crate::span!) macros declare one per call site.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independently locked name→metric maps.
const SHARDS: usize = 16;

#[cfg(not(feature = "disabled"))]
static ENABLED: AtomicBool = AtomicBool::new(true);
#[cfg(feature = "disabled")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True iff recording is active. With the `disabled` cargo feature this
/// is a constant `false`, letting the compiler strip instrumentation;
/// otherwise it is a relaxed atomic load, togglable at runtime.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "disabled")]
    {
        false
    }
    #[cfg(not(feature = "disabled"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Enables or disables recording at runtime (no-op build: stays off).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable level.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Log-bucketed histogram.
//
// Values 0..16 get exact unit buckets; beyond that each power-of-two
// octave splits into 8 geometric sub-buckets (3 mantissa bits), so any
// recorded value lands in a bucket whose width is at most 1/8 of its
// lower bound — quantile estimates read the bucket midpoint and carry
// at most ~6.25% relative error. 64-bit range ⇒ 496 buckets.
// ---------------------------------------------------------------------

/// Mantissa bits kept per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUBS: u64 = 1 << SUB_BITS;
/// Values below this are their own bucket.
const EXACT_LIMIT: u64 = 2 * SUBS; // 16
/// Total bucket count for the full u64 range.
pub(crate) const NUM_BUCKETS: usize = (64 - SUB_BITS as usize - 1) * SUBS as usize + EXACT_LIMIT as usize;

/// Maps a value to its bucket index.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= 4
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUBS - 1)) as usize;
    ((msb - SUB_BITS) as usize - 1) * SUBS as usize + EXACT_LIMIT as usize + sub
}

/// The smallest value mapping to bucket `i`.
pub(crate) fn bucket_lower(i: usize) -> u64 {
    if (i as u64) < EXACT_LIMIT {
        return i as u64;
    }
    let off = i - EXACT_LIMIT as usize;
    let exp = off / SUBS as usize + 1;
    let sub = (off % SUBS as usize) as u64;
    (SUBS + sub) << exp
}

/// The representative (midpoint) value reported for bucket `i`.
pub(crate) fn bucket_mid(i: usize) -> u64 {
    if (i as u64) < EXACT_LIMIT {
        return i as u64;
    }
    let lo = bucket_lower(i);
    let hi = if i + 1 < NUM_BUCKETS { bucket_lower(i + 1) - 1 } else { u64::MAX };
    lo + (hi - lo) / 2
}

/// A concurrent log-bucketed histogram (values are typically
/// nanoseconds, but any `u64` works).
#[derive(Debug)]
pub struct Histogram {
    /// Observations per bucket; their total is the count, so recording
    /// keeps no separate one.
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Almost no observation moves an extreme: look before the
        // read-modify-write.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations (a sum over the buckets: reading is rare,
    /// recording is not).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX { 0 } else { m }
    }

    /// Mean observation (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 { 0.0 } else { self.sum() as f64 / c as f64 }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket
    /// midpoints, clamped to the observed min/max. Returns 0 if empty.
    ///
    /// Uses the continuous-rank estimator (linear interpolation between
    /// the order statistics at `floor(h)` and `ceil(h)` for fractional
    /// rank `h = q·(n−1)`), so nearby quantiles stay distinct even at
    /// small sample counts — a pure ceil-rank lookup reported identical
    /// p95/p99 whenever both ranks landed on the same observation (for
    /// n < 20, p95 and p99 *always* shared the top sample). Values
    /// between order statistics are still bucket-midpoint estimates;
    /// resolution is bounded by the bucket width (±1/16 per octave).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let h = q.clamp(0.0, 1.0) * (count - 1) as f64;
        let lo_rank = h.floor() as u64 + 1; // 1-based order statistic
        let frac = h - h.floor();
        let lo = self.value_at_rank(lo_rank, count);
        let v = if frac < 1e-9 || lo_rank >= count {
            lo as f64
        } else {
            let hi = self.value_at_rank(lo_rank + 1, count);
            lo as f64 + (hi as f64 - lo as f64) * frac
        };
        (v.round() as u64).clamp(self.min(), self.max())
    }

    /// The bucket-midpoint estimate of the `rank`-th smallest of `count`
    /// observations (1-based). The extreme ranks are exact: the 1st
    /// order statistic is the tracked min, the nth the tracked max.
    fn value_at_rank(&self, rank: u64, count: u64) -> u64 {
        if rank <= 1 {
            return self.min();
        }
        if rank >= count {
            return self.max();
        }
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_mid(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Freezes the current state into a [`HistogramSnapshot`].
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_mid(i), c))
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Mean observation.
    pub mean: f64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty buckets as `(representative value, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Standard deviation estimated from the bucket midpoints.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean;
        let var = self
            .buckets
            .iter()
            .map(|&(v, c)| {
                let d = v as f64 - mean;
                d * d * c as f64
            })
            .sum::<f64>()
            / self.count as f64;
        var.sqrt()
    }
}

// ---------------------------------------------------------------------
// The sharded registry.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum MetricEntry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics, sharded by name hash.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<RwLock<HashMap<String, MetricEntry>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a, for shard selection (stable, dependency-free).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, MetricEntry>> {
        &self.shards[(fnv1a(name) % SHARDS as u64) as usize]
    }

    fn get_or_insert<T, F, G>(&self, name: &str, extract: F, create: G) -> Arc<T>
    where
        F: Fn(&MetricEntry) -> Option<Arc<T>>,
        G: FnOnce() -> MetricEntry,
    {
        let shard = self.shard(name);
        if let Some(entry) = shard.read().expect("obs shard poisoned").get(name) {
            return extract(entry).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with a different kind")
            });
        }
        let mut map = shard.write().expect("obs shard poisoned");
        let entry = map.entry(name.to_string()).or_insert_with(create);
        extract(entry)
            .unwrap_or_else(|| panic!("metric `{name}` already registered with a different kind"))
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            |e| match e {
                MetricEntry::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || MetricEntry::Counter(Arc::new(Counter::default())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            |e| match e {
                MetricEntry::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || MetricEntry::Gauge(Arc::new(Gauge::default())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            |e| match e {
                MetricEntry::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || MetricEntry::Histogram(Arc::new(Histogram::default())),
        )
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for shard in &self.shards {
            for (name, entry) in shard.read().expect("obs shard poisoned").iter() {
                match entry {
                    MetricEntry::Counter(c) => s.counters.push((name.clone(), c.get())),
                    MetricEntry::Gauge(g) => s.gauges.push((name.clone(), g.get())),
                    MetricEntry::Histogram(h) => s.histograms.push(h.snapshot(name)),
                }
            }
        }
        s.counters.sort();
        s.gauges.sort();
        s.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        s
    }

}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// True iff nothing was recorded (all counts/values zero counts as
    /// recorded — emptiness means no metrics registered at all).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all instrumentation records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Global shorthand for [`Registry::counter`].
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Global shorthand for [`Registry::gauge`].
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Global shorthand for [`Registry::histogram`].
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Global shorthand for [`Registry::snapshot`].
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Records `ns` into the global histogram `name` (the exporter treats
/// histogram values as nanoseconds).
pub fn observe_ns(name: &str, ns: u64) {
    if enabled() {
        histogram(name).record(ns);
    }
}

/// A metric of the global registry, named at compile time and looked up
/// once: the first [`Handle::get`] interns the name and keeps the `Arc`,
/// every later one is a load. Meant to live in a `static` (the
/// [`counter!`](crate::counter!) family declares one per call site).
#[derive(Debug)]
pub struct Handle<T: 'static> {
    name: &'static str,
    lookup: fn(&str) -> Arc<T>,
    metric: OnceLock<Arc<T>>,
}

impl Handle<Counter> {
    /// The global counter `name`.
    pub const fn new(name: &'static str) -> Self {
        Handle { name, lookup: counter, metric: OnceLock::new() }
    }
}

impl Handle<Gauge> {
    /// The global gauge `name`.
    pub const fn new(name: &'static str) -> Self {
        Handle { name, lookup: gauge, metric: OnceLock::new() }
    }
}

impl Handle<Histogram> {
    /// The global histogram `name`.
    pub const fn new(name: &'static str) -> Self {
        Handle { name, lookup: histogram, metric: OnceLock::new() }
    }
}

impl<T> Handle<T> {
    /// The metric's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The metric itself, resolved on first use.
    #[inline]
    pub fn get(&self) -> &T {
        self.metric.get_or_init(|| (self.lookup)(self.name))
    }
}

/// The global counter `$name` (a string literal or constant), through a
/// [`Handle`] declared at the call site: looked up once, not per event.
///
/// ```
/// prever_obs::counter!("doc.requests").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: $crate::Handle<$crate::Counter> = $crate::Handle::<$crate::Counter>::new($name);
        HANDLE.get()
    }};
}

/// The global gauge `$name`, through a call-site [`Handle`]; see
/// [`counter!`](crate::counter!).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: $crate::Handle<$crate::Gauge> = $crate::Handle::<$crate::Gauge>::new($name);
        HANDLE.get()
    }};
}

/// The global histogram `$name`, through a call-site [`Handle`]; see
/// [`counter!`](crate::counter!).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: $crate::Handle<$crate::Histogram> =
            $crate::Handle::<$crate::Histogram>::new($name);
        HANDLE.get()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_invariants() {
        // Every value maps to a bucket containing it, bucket bounds are
        // monotone, and the relative width stays under 1/8 beyond the
        // exact range.
        let probes: Vec<u64> = (0..200)
            .chain((1..60).map(|e| (1u64 << e) - 1))
            .chain((1..60).map(|e| 1u64 << e))
            .chain((1..60).map(|e| (1u64 << e) + 1))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            let lo = bucket_lower(i);
            let hi = if i + 1 < NUM_BUCKETS { bucket_lower(i + 1) - 1 } else { u64::MAX };
            assert!(lo <= v && v <= hi, "v={v} not in bucket {i} [{lo}, {hi}]");
            if v >= EXACT_LIMIT {
                let width = hi - lo + 1;
                assert!(
                    width <= lo / SUBS + 1,
                    "bucket {i} too wide: [{lo}, {hi}] for {v}"
                );
            }
        }
        for i in 1..NUM_BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bounds not monotone at {i}");
        }
    }

    #[test]
    fn exact_buckets_below_sixteen() {
        for v in 0..EXACT_LIMIT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn quantiles_match_sorted_vector_reference() {
        // Deterministic pseudo-random sample; compare histogram
        // quantiles against the exact order statistics.
        let h = Histogram::default();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) + 1; // ~24-bit values
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        assert_eq!(h.max(), *values.last().unwrap());
        assert_eq!(h.min(), values[0]);
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let est = h.quantile(q) as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.0725, "q={q}: est {est} vs exact {exact} (rel {rel:.4})");
        }
    }

    #[test]
    fn small_sample_quantiles_are_distinct() {
        // Pins the n < 20 semantics: with the continuous-rank
        // estimator, p95 and p99 interpolate at different fractional
        // ranks between the same pair of top order statistics, so they
        // differ whenever the top two samples differ — the old
        // ceil-rank lookup returned the identical top sample for both.
        let h = Histogram::default();
        for v in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 10_000] {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        // n = 10: h95 = 8.55, h99 = 8.91 — both between ranks 9 and 10,
        // but at different fractions of the 900..10_000 gap.
        assert!(p95 < p99, "p95 {p95} must be < p99 {p99} at n=10");
        assert!(p50 < p95);
        // Interpolated values stay inside the observed range (bucket
        // midpoints are clamped to min/max).
        assert!(p99 <= h.max() && h.min() <= p50);
        // Exact-rank quantiles hit the order statistic's bucket
        // midpoint: p0/p100 are exactly min/max after clamping.
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
        // Degenerate n = 1: every quantile is the single sample.
        let one = Histogram::default();
        one.record(42);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42);
        }
    }

    #[test]
    fn concurrent_counter_increments_from_8_threads() {
        let reg = Registry::new();
        let c = reg.counter("test.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(reg.snapshot().counter("test.concurrent"), Some(80_000));
    }

    #[test]
    fn concurrent_histogram_records() {
        let reg = Registry::new();
        let h = reg.histogram("test.hist.concurrent");
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8_000);
    }

    #[test]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("test.kind");
        let err = std::panic::catch_unwind(|| reg.histogram("test.kind"));
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("z.last").add(3);
        reg.counter("a.first").add(1);
        reg.gauge("m.level").set(-4);
        reg.histogram("h.lat").record(100);
        let s = reg.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counters[1].0, "z.last");
        assert_eq!(s.gauge("m.level"), Some(-4));
        let h = s.histogram("h.lat").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.p50 >= 96 && h.p50 <= 104, "p50 {} off", h.p50);
        assert!(s.histogram("nope").is_none());
        assert!(!s.is_empty());
        assert!(Registry::new().snapshot().is_empty());
    }
}
