//! Typed counter/histogram metrics registry.
//!
//! The observability substrate of the reproduction: components register
//! named metrics once (at construction time) and receive copyable integer
//! [`Counter`]/[`Histogram`] handles; the hot path then updates metrics by
//! handle — a bounds-checked array index plus an integer add, no hashing,
//! no locking, no allocation. This crate sits at the bottom of the
//! dependency graph (it depends on nothing) so the simulator, the kernel
//! and the benches can all thread the same registry type through their hot
//! loops; `regvault-core` re-exports it as `regvault_core::metrics`.
//!
//! Handles are only meaningful for the registry that created them; indexing
//! a registry with a foreign handle panics (debug) or reads the wrong slot
//! (never unsafe — the crate forbids `unsafe` code).
//!
//! # Examples
//!
//! ```
//! use regvault_metrics::MetricsRegistry;
//!
//! let mut registry = MetricsRegistry::new();
//! let hits = registry.counter("clb_hits");
//! let latency = registry.histogram("syscall_cycles");
//! registry.inc(hits);
//! registry.add(hits, 2);
//! registry.observe(latency, 180);
//! assert_eq!(registry.counter_value(hits), 3);
//! assert_eq!(registry.get("clb_hits"), Some(3));
//! assert_eq!(registry.histogram_data(latency).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Handle to a named monotonic counter inside a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Counter(u32);

/// Handle to a named histogram inside a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Histogram(u32);

/// Number of histogram buckets: one for zero plus one per power of two up
/// to `2^63`.
pub const BUCKETS: usize = 65;

/// Accumulated distribution data behind a [`Histogram`] handle.
///
/// Values are bucketed by order of magnitude (`bucket 0` holds zeros,
/// `bucket k` holds values in `[2^(k-1), 2^k)`), which is exact enough for
/// latency-shaped data while keeping `observe` branch-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramData {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for HistogramData {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

/// Bucket index for `value`: 0 for zero, `floor(log2(value)) + 1` otherwise.
#[must_use]
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl HistogramData {
    /// Records one observation directly. Standalone use (e.g. per-worker
    /// histograms merged later) — inside a [`MetricsRegistry`], prefer
    /// [`MetricsRegistry::observe`].
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The log2 bucket array (see [`bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets,
    /// or `None` when the histogram is empty.
    ///
    /// The estimate interpolates linearly *within* the bucket holding the
    /// target rank (bucket `k` spans `[2^(k-1), 2^k)`), then clamps to the
    /// recorded `min`/`max` so single-bucket histograms report exact
    /// extrema instead of a bucket midpoint. Error is bounded by the bucket
    /// width — at most a factor of two, which is adequate for the
    /// latency-shaped p50/p99 reporting this registry feeds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based: ceil(q * count),
        // floored at 1 so q = 0.0 selects the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let value = if i == 0 {
                    0
                } else {
                    // Position of the target rank inside this bucket,
                    // in (0.0, 1.0].
                    let into = (rank - seen) as f64 / n as f64;
                    let lo = (1u64 << (i - 1)) as f64;
                    (lo + lo * into) as u64
                };
                return Some(value.clamp(self.min, self.max));
            }
            seen += n;
        }
        self.max()
    }

    /// Folds another histogram's observations into this one, as if every
    /// value recorded into `other` had been recorded here. Order-free and
    /// associative, so per-worker histograms merged in any grouping yield
    /// the same result — the fleet bench relies on this to aggregate
    /// per-instance latency distributions deterministically.
    pub fn merge(&mut self, other: &HistogramData) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// `(lower_bound, count)` for each non-empty bucket, in order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
    }
}

/// Registry of named counters and histograms.
///
/// Registration (by name, idempotent) happens off the hot path and returns
/// a handle; updates go through the handle. The registry is plain owned
/// data (`Clone` + `Default`), so embedding it in a cloneable machine model
/// costs nothing beyond its arrays.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramData)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) the counter `name` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct counters — far beyond any sane use.
    pub fn counter(&mut self, name: &str) -> Counter {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return Counter(u32::try_from(i).expect("counter index fits u32"));
        }
        let index = u32::try_from(self.counters.len()).expect("counter count fits u32");
        self.counters.push((name.to_owned(), 0));
        Counter(index)
    }

    /// Registers (or looks up) the histogram `name` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct histograms.
    pub fn histogram(&mut self, name: &str) -> Histogram {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return Histogram(u32::try_from(i).expect("histogram index fits u32"));
        }
        let index = u32::try_from(self.histograms.len()).expect("histogram count fits u32");
        self.histograms
            .push((name.to_owned(), HistogramData::default()));
        Histogram(index)
    }

    /// Adds 1 to a counter (the hot-path operation: one indexed add).
    #[inline]
    pub fn inc(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.0 as usize].1 += n;
    }

    /// Adds `n` to the counter `name`, registering it first if needed. An
    /// export-path convenience: hot paths update through a handle.
    pub fn add_named(&mut self, name: &str, n: u64) {
        let counter = self.counter(name);
        self.add(counter, n);
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, histogram: Histogram, value: u64) {
        self.histograms[histogram.0 as usize].1.record(value);
    }

    /// Folds every counter and histogram of `other` into this registry by
    /// name; names this registry lacks are registered in `other`'s order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in other.counters() {
            self.add_named(name, value);
        }
        for (name, data) in other.histograms() {
            let histogram = self.histogram(name);
            self.histograms[histogram.0 as usize].1.merge(data);
        }
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.0 as usize].1
    }

    /// Current value of the counter named `name`, if registered.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Accumulated data behind `histogram`.
    #[must_use]
    pub fn histogram_data(&self, histogram: Histogram) -> &HistogramData {
        &self.histograms[histogram.0 as usize].1
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramData)> {
        self.histograms.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// Zeroes every counter and histogram, keeping all registrations (and
    /// therefore every outstanding handle) valid.
    pub fn reset_values(&mut self) {
        for (_, v) in &mut self.counters {
            *v = 0;
        }
        for (_, d) in &mut self.histograms {
            *d = HistogramData::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        assert_ne!(a, b);
        assert_eq!(r.counter("a"), a);
        assert_eq!(r.counters().count(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("ops");
        r.inc(c);
        r.add(c, 41);
        assert_eq!(r.counter_value(c), 42);
        assert_eq!(r.get("ops"), Some(42));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [0, 1, 2, 3, 1000] {
            r.observe(h, v);
        }
        let d = r.histogram_data(h);
        assert_eq!(d.count(), 5);
        assert_eq!(d.sum(), 1006);
        assert_eq!(d.min(), Some(0));
        assert_eq!(d.max(), Some(1000));
        let buckets: Vec<(u64, u64)> = d.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat");
        assert_eq!(r.histogram_data(h).quantile(0.5), None, "empty");

        // A single value: every quantile is that value (clamped to extrema).
        r.observe(h, 700);
        let d = r.histogram_data(h);
        assert_eq!(d.quantile(0.0), Some(700));
        assert_eq!(d.quantile(0.5), Some(700));
        assert_eq!(d.quantile(1.0), Some(700));

        // A spread: quantiles are monotone, bracketed by min/max, and the
        // p50 lands within a factor of two of the true median.
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in 1..=1000u64 {
            r.observe(h, v);
        }
        let d = r.histogram_data(h);
        let p50 = d.quantile(0.5).unwrap();
        let p90 = d.quantile(0.9).unwrap();
        let p99 = d.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(p99 <= 1000);
        assert_eq!(d.quantile(1.0), Some(1000));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut r = MetricsRegistry::new();
        let all = r.histogram("all");
        let a = r.histogram("a");
        let b = r.histogram("b");
        for v in [0u64, 1, 5, 900, 7] {
            r.observe(all, v);
        }
        for v in [0u64, 1, 5] {
            r.observe(a, v);
        }
        for v in [900u64, 7] {
            r.observe(b, v);
        }
        let mut merged = r.histogram_data(a).clone();
        merged.merge(r.histogram_data(b));
        assert_eq!(&merged, r.histogram_data(all));

        // Merging an empty histogram is a no-op (min stays untouched).
        merged.merge(&HistogramData::default());
        assert_eq!(&merged, r.histogram_data(all));
        let mut empty = HistogramData::default();
        empty.merge(r.histogram_data(all));
        assert_eq!(&empty, r.histogram_data(all));
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("empty");
        let d = r.histogram_data(h);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
        assert_eq!(d.mean(), 0.0);
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        r.add(c, 7);
        r.observe(h, 7);
        r.reset_values();
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.histogram_data(h).count(), 0);
        r.inc(c); // handle still valid after reset
        assert_eq!(r.counter_value(c), 1);
    }

    #[test]
    fn merge_appends_new_names_and_sums_shared_ones() {
        let (mut src, mut dst) = (MetricsRegistry::new(), MetricsRegistry::new());
        src.add_named("b", 2);
        src.add_named("a", 5);
        let h = src.histogram("lat");
        src.observe(h, 9);
        dst.add_named("a", 1);
        dst.merge(&src);
        assert_eq!(dst.counters().collect::<Vec<_>>(), [("a", 6), ("b", 2)]);
        assert_eq!(
            dst.histograms().next(),
            Some(("lat", src.histogram_data(h)))
        );
    }

    #[test]
    fn clone_is_independent() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("c");
        r.inc(c);
        let mut fork = r.clone();
        fork.inc(c);
        assert_eq!(r.counter_value(c), 1);
        assert_eq!(fork.counter_value(c), 2);
    }
}
