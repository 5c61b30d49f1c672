//! A mergeable log-bucketed latency histogram.
//!
//! [`LogHistogram`] is the fixed-memory backing store of
//! [`crate::stats::LatencyStats`]: recording is O(1) (a bit-twiddle plus one
//! array increment), merging is a bucket-wise add, and percentile queries
//! walk the bucket array instead of sorting samples.  The layout follows the
//! HdrHistogram idea: values below [`LogHistogram::PRECISION`] get one bucket
//! each (exact), and every power-of-two range above that is split into
//! [`LogHistogram::SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantization error of any reported percentile by
//! [`LogHistogram::MAX_RELATIVE_ERROR`].
//!
//! The open-loop load harness can push millions of samples per run through
//! one of these without the unbounded `Vec<u64>` growth — and the repeated
//! clone-and-sort on every percentile query — of the previous
//! sample-retaining implementation.

/// log2 of the linear sub-bucket resolution.
const SUB_BITS: u32 = 7;
/// First power of two whose range is bucketed rather than exact.
const PRECISION: u64 = 1 << SUB_BITS; // 128
/// Sub-buckets per power-of-two range above the exact region (the top half
/// of a 2^SUB_BITS split: values in [2^m, 2^(m+1)) share the leading bit).
const SUB_BUCKETS: usize = 1 << (SUB_BITS - 1); // 64
/// Number of bucketed power-of-two ranges: exponents SUB_BITS..=63.
const OCTAVES: usize = 64 - SUB_BITS as usize; // 57
/// Total bucket count (exact region + bucketed octaves).
const NUM_BUCKETS: usize = PRECISION as usize + OCTAVES * SUB_BUCKETS; // 3776

/// A fixed-memory histogram of `u64` samples with logarithmic bucketing.
///
/// All operations are deterministic; two histograms fed the same multiset of
/// samples in any order are equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    /// Bucket occupancy counts; allocated to `NUM_BUCKETS` on first record
    /// so an empty histogram costs nothing.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Values below this threshold each get their own bucket (no error).
    pub const PRECISION: u64 = PRECISION;
    /// Linear sub-buckets per power-of-two range above the exact region.
    pub const SUB_BUCKETS: usize = SUB_BUCKETS;
    /// Total number of buckets — the histogram's fixed memory footprint in
    /// `u64` counters once any sample has been recorded.
    pub const NUM_BUCKETS: usize = NUM_BUCKETS;
    /// Upper bound on the relative error of a reported percentile: a bucket
    /// spanning `[2^m, 2^(m+1))` has width `2^m / SUB_BUCKETS` and reports
    /// its midpoint, so the error is at most half a bucket width relative to
    /// the bucket's lower bound.
    pub const MAX_RELATIVE_ERROR: f64 = 0.5 / SUB_BUCKETS as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of a value.
    fn index(v: u64) -> usize {
        if v < PRECISION {
            v as usize
        } else {
            let m = 63 - v.leading_zeros(); // m >= SUB_BITS
            let shift = m - (SUB_BITS - 1);
            let sub = (v >> shift) as usize - SUB_BUCKETS;
            PRECISION as usize + (m - SUB_BITS) as usize * SUB_BUCKETS + sub
        }
    }

    /// The representative value reported for a bucket: its lower bound for
    /// exact buckets, its midpoint for bucketed ranges.
    fn representative(idx: usize) -> u64 {
        if idx < PRECISION as usize {
            idx as u64
        } else {
            let r = idx - PRECISION as usize;
            let m = SUB_BITS + (r / SUB_BUCKETS) as u32;
            let sub = (r % SUB_BUCKETS) as u64;
            let shift = m - (SUB_BITS - 1);
            let lower = (SUB_BUCKETS as u64 + sub) << shift;
            lower + (1u64 << shift) / 2
        }
    }

    /// Records one sample.  O(1); allocates the bucket array on first use.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of the same sample value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[Self::index(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = other.counts.clone();
            self.min = other.min;
            self.max = other.max;
        } else {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (exact — tracked as a running sum), or `None` if
    /// empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(self.sum as f64 / self.count as f64)
    }

    /// The smallest recorded sample (exact).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// The largest recorded sample (exact).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-th percentile (0.0 ≤ q ≤ 100.0) by the nearest-rank method
    /// over bucket representatives, clamped to the exact observed
    /// `[min, max]` range; `None` if empty.
    ///
    /// The result differs from the exact sample percentile by at most
    /// [`Self::MAX_RELATIVE_ERROR`] (relatively), and is exact for values
    /// below [`Self::PRECISION`] and for the extreme ranks.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        // The extreme ranks are tracked exactly; answer them from `min` /
        // `max` directly.  Walking the buckets instead used to report the
        // *midpoint* of the lowest occupied bucket for `percentile(0.0)`,
        // which can exceed the true minimum (e.g. min = 128 lives in the
        // width-2 bucket [128, 130) whose representative is 129).
        if rank <= 1 {
            return Some(self.min as f64);
        }
        if rank == self.count {
            return Some(self.max as f64);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let rep = Self::representative(idx).clamp(self.min, self.max);
                return Some(rep as f64);
            }
        }
        // Unreachable: counts sum to self.count >= rank.
        Some(self.max as f64)
    }

    /// Number of allocated bucket counters — `0` before the first record,
    /// [`Self::NUM_BUCKETS`] afterwards, regardless of how many samples have
    /// been recorded.  This is the fixed-memory guarantee the regression
    /// tests pin.
    pub fn allocated_buckets(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.allocated_buckets(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean().unwrap(), 50.5);
        assert_eq!(h.percentile(50.0).unwrap(), 50.0);
        assert_eq!(h.percentile(95.0).unwrap(), 95.0);
        assert_eq!(h.percentile(100.0).unwrap(), 100.0);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn index_and_representative_roundtrip_within_error() {
        for shift in 0..60 {
            for base in [137u64, 255, 1000, 4097] {
                let v = base << shift;
                let idx = LogHistogram::index(v);
                assert!(idx < NUM_BUCKETS, "index in range for {v}");
                let rep = LogHistogram::representative(idx);
                let err = (rep as f64 - v as f64).abs() / v as f64;
                assert!(
                    err <= LogHistogram::MAX_RELATIVE_ERROR,
                    "value {v}: representative {rep} err {err}"
                );
            }
        }
        // The largest representable value still maps to a valid bucket.
        assert!(LogHistogram::index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn large_value_percentiles_bound_relative_error() {
        // A geometric-ish spread of large values; compare against the exact
        // sorted percentile.
        let values: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * i).collect();
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1] as f64;
            let approx = h.percentile(q).unwrap();
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= LogHistogram::MAX_RELATIVE_ERROR,
                "p{q}: exact {exact} approx {approx} err {err}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut combined = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, combined);
        // Merging into an empty histogram clones the other side.
        let mut empty = LogHistogram::new();
        empty.merge(&combined);
        assert_eq!(empty, combined);
        // Merging an empty histogram is a no-op.
        let before = combined.clone();
        combined.merge(&LogHistogram::new());
        assert_eq!(combined, before);
    }

    #[test]
    fn memory_is_fixed_regardless_of_sample_count() {
        let mut h = LogHistogram::new();
        h.record(1);
        assert_eq!(h.allocated_buckets(), LogHistogram::NUM_BUCKETS);
        for i in 0..100_000u64 {
            h.record(i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        assert_eq!(h.allocated_buckets(), LogHistogram::NUM_BUCKETS);
        assert_eq!(h.count(), 100_001);
    }

    /// Satellite regression: `u64::MAX` maps into the last bucket without
    /// overflow anywhere (index, representative, sum).
    #[test]
    fn record_u64_max_is_safe_and_exact_at_the_extremes() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(1);
        h.record_n(u64::MAX, 2);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.sum(), 1 + 3 * u128::from(u64::MAX));
        assert_eq!(h.percentile(0.0).unwrap(), 1.0);
        assert_eq!(h.percentile(100.0).unwrap(), u64::MAX as f64);
        // The p50 answer comes from the top bucket; it must stay within the
        // histogram's relative-error bound of the exact answer (u64::MAX).
        let p50 = h.percentile(50.0).unwrap();
        let err = (p50 - u64::MAX as f64).abs() / u64::MAX as f64;
        assert!(
            err <= LogHistogram::MAX_RELATIVE_ERROR,
            "p50 {p50} err {err}"
        );
    }

    /// Satellite regression: `percentile(0.0)` must be the exact minimum.
    /// Pre-fix it reported the lowest occupied bucket's representative,
    /// which for min = 128 (bucket [128, 130), representative 129) was 129.
    #[test]
    fn percentile_zero_is_exact_min() {
        let mut h = LogHistogram::new();
        h.record(128);
        h.record(129);
        assert_eq!(h.percentile(0.0).unwrap(), 128.0);
        // percentile(1.0) is the p1 (rank 1 here): also the exact min.
        assert_eq!(h.percentile(1.0).unwrap(), 128.0);
        // And the top extreme is the exact max even when the bucket
        // representative would round elsewhere.
        assert_eq!(h.percentile(100.0).unwrap(), 129.0);
    }

    /// Satellite regression: merging an empty histogram must not clobber
    /// `min`/`max` (an empty histogram's zeroed fields must never
    /// participate), in either direction.
    #[test]
    fn merge_with_empty_preserves_min_and_max() {
        let mut h = LogHistogram::new();
        h.record(500);
        h.record(9_000);
        h.merge(&LogHistogram::new());
        assert_eq!(h.min(), Some(500));
        assert_eq!(h.max(), Some(9_000));
        assert_eq!(h.count(), 2);
        let mut empty = LogHistogram::new();
        empty.merge(&h);
        assert_eq!(empty.min(), Some(500));
        assert_eq!(empty.max(), Some(9_000));
        assert_eq!(empty, h);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LogHistogram::new();
        a.record_n(700, 5);
        a.record_n(3, 0); // no-op
        let mut b = LogHistogram::new();
        for _ in 0..5 {
            b.record(700);
        }
        assert_eq!(a, b);
        assert_eq!(a.sum(), 3500);
    }
}
