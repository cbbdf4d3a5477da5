//! The event layer: counters, gauges and histograms.
//!
//! [`AtomicRecorder`] holds named instruments backed by `AtomicU64`.
//! Looking an instrument up by name takes a short read lock; *using* a
//! held handle ([`Counter`], [`Gauge`], [`Histogram`]) is a single
//! relaxed atomic op, so hot loops resolve their handles once and stay
//! lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A handle to one monotonic counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to one gauge (last write wins). Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: bucket `i` counts samples whose
/// value needs `i` significant bits (bucket 0 holds the value 0).
const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free log₂-bucketed histogram of `u64` samples.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn observe(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize; // 0 for value 0
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// A handle to one histogram. Cloning shares the cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.observe(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Cumulative bucket snapshot for exposition: `(upper_bound,
    /// cumulative_count)` pairs in ascending bound order, truncated
    /// after the last non-empty bucket (so an idle histogram renders
    /// compactly). Bucket `i` holds values needing `i` significant
    /// bits, so its inclusive upper bound is `0` for `i == 0` and
    /// `2^i - 1` otherwise. The snapshot is taken bucket-by-bucket
    /// without locking; a torn read can momentarily disagree with
    /// [`Histogram::count`], which renderers must clamp for.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let last = match counts.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut cumulative = 0u64;
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            cumulative = cumulative.saturating_add(c);
            let bound = if i == 0 {
                0
            } else {
                (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1)
            };
            out.push((bound, cumulative));
        }
        out
    }

    /// Approximate quantile from the log₂ buckets: returns the upper
    /// bound of the bucket containing the `q`-quantile sample
    /// (`0.0 ..= 1.0`). Coarse by construction — within a factor of two.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 {
                    0
                } else {
                    (1u64 << (i - 1)).saturating_mul(2) - 1
                };
            }
        }
        u64::MAX
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// A registry of named atomic instruments. Thread-safe: enumeration
/// workers and server threads report into one registry without
/// coordination.
///
/// The name-based calls ([`add`](AtomicRecorder::add),
/// [`set`](AtomicRecorder::set), [`observe`](AtomicRecorder::observe))
/// take a read lock to find the cell; for hot paths, resolve a
/// [`Counter`]/[`Gauge`]/[`Histogram`] handle once via
/// [`counter`](AtomicRecorder::counter) & friends and update it
/// lock-free.
#[derive(Default)]
pub struct AtomicRecorder {
    instruments: RwLock<Instruments>,
}

impl std::fmt::Debug for AtomicRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot_counters();
        f.debug_struct("AtomicRecorder")
            .field("counters", &snap)
            .finish()
    }
}

impl AtomicRecorder {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&self, key: &'static str, delta: u64) {
        self.counter(key).add(delta);
    }

    /// Set the named gauge to `value` (last write wins).
    pub fn set(&self, key: &'static str, value: u64) {
        self.gauge(key).set(value);
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, key: &'static str, value: u64) {
        self.histogram(key).observe(value);
    }

    /// Handle to the named counter, creating it on first use.
    pub fn counter(&self, key: &'static str) -> Counter {
        if let Some(c) = self.instruments.read().unwrap().counters.get(key) {
            return c.clone();
        }
        let mut w = self.instruments.write().unwrap();
        w.counters.entry(key).or_default().clone()
    }

    /// Handle to the named gauge, creating it on first use.
    pub fn gauge(&self, key: &'static str) -> Gauge {
        if let Some(g) = self.instruments.read().unwrap().gauges.get(key) {
            return g.clone();
        }
        let mut w = self.instruments.write().unwrap();
        w.gauges.entry(key).or_default().clone()
    }

    /// Handle to the named histogram, creating it on first use.
    pub fn histogram(&self, key: &'static str) -> Histogram {
        if let Some(h) = self.instruments.read().unwrap().histograms.get(key) {
            return h.clone();
        }
        let mut w = self.instruments.write().unwrap();
        w.histograms.entry(key).or_default().clone()
    }

    /// Sorted snapshot of every counter's current value.
    pub fn snapshot_counters(&self) -> BTreeMap<&'static str, u64> {
        self.instruments
            .read()
            .unwrap()
            .counters
            .iter()
            .map(|(&k, c)| (k, c.get()))
            .collect()
    }

    /// Sorted snapshot of every gauge's current value.
    pub fn snapshot_gauges(&self) -> BTreeMap<&'static str, u64> {
        self.instruments
            .read()
            .unwrap()
            .gauges
            .iter()
            .map(|(&k, g)| (k, g.get()))
            .collect()
    }

    /// Snapshot of every histogram as `(count, sum, max)`.
    pub fn snapshot_histograms(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        self.instruments
            .read()
            .unwrap()
            .histograms
            .iter()
            .map(|(&k, h)| (k, (h.count(), h.sum(), h.max())))
            .collect()
    }

    /// Sorted handles to every registered histogram. Cloned handles
    /// share the live cells, so callers (e.g. the `/metrics` renderer)
    /// can drop the registry lock before reading bucket contents.
    pub fn histogram_handles(&self) -> Vec<(&'static str, Histogram)> {
        self.instruments
            .read()
            .unwrap()
            .histograms
            .iter()
            .map(|(&k, h)| (k, h.clone()))
            .collect()
    }
}

/// The nearest-rank `q` quantile (`0.0..=1.0`) of ascending `sorted`
/// samples: the smallest sample at or above a `q` share of them; 0 for
/// no samples. Exact, where [`Histogram::quantile_upper_bound`] is a
/// log₂ bucket bound.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = AtomicRecorder::new();
        r.add("cliques", 3);
        r.add("cliques", 4);
        r.add("levels", 1);
        assert_eq!(r.counter("cliques").get(), 7);
        let snap = r.snapshot_counters();
        assert_eq!(snap.get("cliques"), Some(&7));
        assert_eq!(snap.get("levels"), Some(&1));
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = AtomicRecorder::new();
        r.set("projected_bytes", 100);
        r.set("projected_bytes", 42);
        assert_eq!(r.gauge("projected_bytes").get(), 42);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        // the 0-quantile bucket bound is exact for 0
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        // the max lives in the [512, 1023] bucket
        assert!(h.quantile_upper_bound(1.0) >= 1000);
        assert_eq!(Histogram::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn histogram_empty_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.0), 0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        assert_eq!(h.quantile_upper_bound(1.0), 0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn histogram_single_sample() {
        let h = Histogram::default();
        h.observe(700);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 700);
        assert_eq!(h.max(), 700);
        assert_eq!(h.mean(), 700.0);
        // Every quantile lands in the one occupied bucket [512, 1023].
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_upper_bound(q), 1023, "q={q}");
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last(), Some(&(1023, 1)));
        // All earlier cumulative counts are zero.
        assert!(buckets[..buckets.len() - 1].iter().all(|&(_, c)| c == 0));
    }

    #[test]
    fn histogram_all_samples_one_bucket() {
        let h = Histogram::default();
        for v in [16u64, 20, 25, 31] {
            h.observe(v); // all need 5 significant bits: bucket [16, 31]
        }
        assert_eq!(h.quantile_upper_bound(0.01), 31);
        assert_eq!(h.quantile_upper_bound(0.5), 31);
        assert_eq!(h.quantile_upper_bound(1.0), 31);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last(), Some(&(31, 4)));
        assert_eq!(buckets.iter().filter(|&&(_, c)| c > 0).count(), 1);
    }

    #[test]
    fn histogram_sum_overflow_wraps_but_count_and_quantiles_survive() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(3);
        // fetch_add wraps on overflow: sum is meaningless past u64::MAX
        // but must not panic, and count/max/quantiles stay correct.
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX.wrapping_add(u64::MAX).wrapping_add(3));
        assert_eq!(h.quantile_upper_bound(0.01), 3);
        assert!(h.quantile_upper_bound(1.0) > 1u64 << 62);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().map(|&(_, c)| c), Some(3));
    }

    #[test]
    fn histogram_handles_enumerate_shared_cells() {
        let r = AtomicRecorder::new();
        r.observe("a_ns", 5);
        r.observe("b_ns", 9);
        let handles = r.histogram_handles();
        let names: Vec<&str> = handles.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a_ns", "b_ns"]);
        // The handle shares cells with the registry: later observes are
        // visible through the already-returned handle.
        r.observe("a_ns", 6);
        assert_eq!(handles[0].1.count(), 2);
    }

    #[test]
    fn handles_are_lock_free_shared_cells() {
        let r = AtomicRecorder::new();
        let c = r.counter("shared");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared").get(), 4000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        // Nearest rank, not an interpolated or rounded index.
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }
}
