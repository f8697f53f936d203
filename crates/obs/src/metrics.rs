//! A small metrics registry: named monotonic counters and log2-bucket
//! histograms with a snapshot/delta API.
//!
//! Handles returned by [`Registry::counter`] / [`Registry::histogram`]
//! are `Arc`s over atomics, so the hot path (incrementing) is lock-free;
//! the registry lock is only taken to register or snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::json::{self, Layout};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i` (i.e. value 0 → bucket 0, values in `[2^(i-1), 2^i)` →
/// bucket `i`).
pub const BUCKETS: usize = 65;

/// A histogram with power-of-two buckets.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The bucket `value` lands in: its bit length (see [`BUCKETS`]).
pub const fn bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Adds observations tallied elsewhere in plain integers: `count`
    /// of them summing to `sum`, `buckets[i]` of them in bucket `i`
    /// (see [`bucket`]). Equal to recording each one, at one atomic
    /// add per nonzero bucket.
    pub fn add_totals(&self, count: u64, sum: u64, buckets: &[u64; BUCKETS]) {
        for (cell, &n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 ..= 1.0`); 0 if empty.
    pub fn quantile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
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

    /// Upper bound of the bucket containing the median (p50); 0 if
    /// empty. Like all log2-bucket quantiles this is an *upper bound*
    /// on the true quantile, never an interpolation — the bound is
    /// exact when every observation in the decisive bucket shares a
    /// bit length.
    pub fn p50(&self) -> u64 {
        self.quantile_bound(0.50)
    }

    /// Upper bound of the bucket containing the 95th percentile; 0 if
    /// empty.
    pub fn p95(&self) -> u64 {
        self.quantile_bound(0.95)
    }

    /// Upper bound of the bucket containing the 99th percentile; 0 if
    /// empty.
    pub fn p99(&self) -> u64 {
        self.quantile_bound(0.99)
    }

    /// Bucket-wise difference vs an earlier snapshot (saturating).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// A registry of named counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The histogram named `name`, creating it empty if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .unwrap()
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Convenience: `counter(name).add(n)`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen registry state; keys are sorted (BTreeMap) so serialization
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Difference vs an earlier snapshot (saturating; metrics absent
    /// from `earlier` are reported at full value).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let base = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(base))
            })
            .collect();
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        };
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let base = earlier.histograms.get(k).unwrap_or(&empty);
                (k.clone(), v.delta(base))
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Serializes the snapshot as deterministic (sorted-key) JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |o| {
            o.field("counters", &self.counters)
                .object("histograms", |hs| {
                    for (k, h) in &self.histograms {
                        hs.object(k, |o| {
                            o.field("count", &h.count)
                                .field("sum", &h.sum)
                                .field("buckets", &h.buckets);
                        });
                    }
                });
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = Registry::new();
        reg.counter("a").inc();
        reg.add("a", 4);
        reg.add("b", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 2);
    }

    #[test]
    fn counter_handles_are_shared() {
        let reg = Registry::new();
        let h1 = reg.counter("x");
        let h2 = reg.counter("x");
        h1.add(3);
        h2.add(4);
        assert_eq!(reg.counter("x").get(), 7);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[11], 1);
        assert!((s.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn added_totals_equal_the_recorded_observations() {
        let values = [0u64, 1, 3, 3, 1024, u64::MAX >> 1];
        let recorded = Histogram::default();
        let mut buckets = [0u64; BUCKETS];
        for v in values {
            recorded.record(v);
            buckets[bucket(v)] += 1;
        }
        let added = Histogram::default();
        added.record(7);
        added.add_totals(values.len() as u64, values.iter().sum(), &buckets);
        recorded.record(7);
        assert_eq!(added.snapshot(), recorded.snapshot());
    }

    #[test]
    fn quantile_bound_is_monotone() {
        let h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.quantile_bound(0.2) <= s.quantile_bound(0.9));
        assert!(s.quantile_bound(1.0) >= 1000);
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_bound(0.5), 0);
    }

    #[test]
    fn quantiles_pin_bucket_boundaries() {
        // 100 observations of exactly 1000 (bit length 10 → bucket 10,
        // upper bound 2^10 - 1 = 1023): every quantile reports the
        // bucket's upper bound, not an interpolation.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 1023);
        assert_eq!(s.p95(), 1023);
        assert_eq!(s.p99(), 1023);

        // 95 small + 5 large: p50 stays in the small bucket, p95 is
        // exactly at the boundary (ceil(0.95 * 100) = 95 ≤ 95 seen in
        // the small bucket), p99 lands in the large bucket.
        let h = Histogram::default();
        for _ in 0..95 {
            h.record(1); // bucket 1, bound 1
        }
        for _ in 0..5 {
            h.record(1 << 20); // bucket 21, bound 2^21 - 1
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 1);
        assert_eq!(s.p95(), 1, "boundary target counts the earlier bucket");
        assert_eq!(s.p99(), (1u64 << 21) - 1);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p95(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn quantiles_of_zero_valued_observations_stay_zero() {
        // Value 0 lands in bucket 0 whose bound is 0 — quantiles of an
        // all-zero histogram must not report bucket 1's bound.
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn snapshot_delta() {
        let reg = Registry::new();
        reg.add("runs", 2);
        reg.histogram("steps").record(10);
        let before = reg.snapshot();
        reg.add("runs", 3);
        reg.add("new", 1);
        reg.histogram("steps").record(20);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counters["runs"], 3);
        assert_eq!(d.counters["new"], 1);
        assert_eq!(d.histograms["steps"].count, 1);
        assert_eq!(d.histograms["steps"].sum, 20);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_parses() {
        let reg = Registry::new();
        reg.add("b", 2);
        reg.add("a", 1);
        reg.histogram("h").record(5);
        let a = reg.snapshot().to_json();
        let b = reg.snapshot().to_json();
        assert_eq!(a, b);
        let v = crate::json::parse(&a).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn registry_is_share_safe() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.counter("n").inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 4000);
    }
}
