//! Latency statistics: mean and tail percentiles.
//!
//! The paper reports, for every configuration, both the *average* and the
//! *95th percentile* of measured times ("for many interactive applications,
//! what one cares about is the latency near the tail").  [`LatencyStats`]
//! accumulates samples and reports both, plus a few extra summaries used by
//! the harness output.
//!
//! Samples are stored in a [`LogHistogram`] rather than retained
//! individually: recording is O(1), memory is fixed no matter how many
//! samples an open-loop run pushes through, and percentile queries walk the
//! bucket array instead of cloning and sorting a sample vector.  Mean, min,
//! and max are exact; percentiles are exact for values below
//! [`LogHistogram::PRECISION`] and within [`LogHistogram::MAX_RELATIVE_ERROR`]
//! (relatively) above it.

use crate::histogram::LogHistogram;
use std::time::Duration;

/// An accumulator of latency samples (in nanoseconds internally).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    hist: LogHistogram,
}

impl LatencyStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sample expressed as a [`Duration`].
    pub fn record(&mut self, d: Duration) {
        self.hist
            .record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records a sample expressed in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.hist.record(ns);
    }

    /// Records a sample expressed in abstract "steps" or microseconds — any
    /// unit is fine as long as it is used consistently.
    pub fn record_value(&mut self, v: u64) {
        self.hist.record(v);
    }

    /// Merges another accumulator into this one (bucket-wise addition — the
    /// cost is bounded by the histogram's fixed bucket count, not by how
    /// many samples either side holds).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Arithmetic mean of the samples (exact), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        self.hist.mean()
    }

    /// The `q`-th percentile (0.0 ≤ q ≤ 100.0) using the nearest-rank method
    /// over the histogram buckets, or `None` if empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.hist.percentile(q)
    }

    /// The 95th percentile, the paper's tail metric.
    pub fn p95(&self) -> Option<f64> {
        self.percentile(95.0)
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The maximum sample (exact).
    pub fn max(&self) -> Option<u64> {
        self.hist.max()
    }

    /// The minimum sample (exact).
    pub fn min(&self) -> Option<u64> {
        self.hist.min()
    }

    /// Mean expressed in microseconds (assuming samples were recorded in
    /// nanoseconds).
    pub fn mean_micros(&self) -> Option<f64> {
        self.mean().map(|m| m / 1_000.0)
    }

    /// 95th percentile expressed in microseconds (assuming nanosecond
    /// samples).
    pub fn p95_micros(&self) -> Option<f64> {
        self.p95().map(|m| m / 1_000.0)
    }

    /// The backing histogram (for error-bound and memory-footprint
    /// inspection).
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }
}

/// The ratio between two statistics, used for the paper's
/// "responsiveness ratio" and "compute time ratio" figures
/// (baseline / treatment, so values above 1 mean the treatment is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSummary {
    /// Ratio of the means.
    pub mean_ratio: f64,
    /// Ratio of the 95th percentiles.
    pub p95_ratio: f64,
}

/// Computes baseline/treatment ratios of mean and p95.
///
/// Returns `None` if either side is empty or the treatment mean/p95 is zero.
pub fn ratio(baseline: &LatencyStats, treatment: &LatencyStats) -> Option<RatioSummary> {
    let bm = baseline.mean()?;
    let tm = treatment.mean()?;
    let bp = baseline.p95()?;
    let tp = treatment.p95()?;
    if tm == 0.0 || tp == 0.0 {
        return None;
    }
    Some(RatioSummary {
        mean_ratio: bm / tm,
        p95_ratio: bp / tp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_none() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.p95(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn mean_and_percentiles() {
        let mut s = LatencyStats::new();
        for v in 1..=100u64 {
            s.record_value(v);
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean().unwrap() - 50.5).abs() < 1e-9);
        assert_eq!(s.p95().unwrap(), 95.0);
        assert_eq!(s.median().unwrap(), 50.0);
        assert_eq!(s.percentile(100.0).unwrap(), 100.0);
        assert_eq!(s.min(), Some(1));
        assert_eq!(s.max(), Some(100));
    }

    #[test]
    fn single_sample_percentiles() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_nanos(42));
        assert_eq!(s.p95().unwrap(), 42.0);
        assert_eq!(s.mean().unwrap(), 42.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record_value(1);
        let mut b = LatencyStats::new();
        b.record_value(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().unwrap(), 2.0);
    }

    #[test]
    fn micro_conversions() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_micros(10));
        assert!((s.mean_micros().unwrap() - 10.0).abs() < 1e-9);
        // A single sample is exact: the histogram clamps percentile
        // representatives to the observed [min, max].
        assert!((s.p95_micros().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ratios() {
        let mut base = LatencyStats::new();
        let mut treat = LatencyStats::new();
        for v in [10, 20, 30] {
            base.record_value(v * 2);
            treat.record_value(v);
        }
        let r = ratio(&base, &treat).unwrap();
        assert!((r.mean_ratio - 2.0).abs() < 1e-9);
        assert!((r.p95_ratio - 2.0).abs() < 1e-9);
        assert!(ratio(&LatencyStats::new(), &treat).is_none());
    }

    /// Regression test for the old clone-and-sort percentile path: the
    /// stats no longer retain samples at all, so storage stays at the
    /// histogram's fixed bucket count no matter how many samples arrive
    /// (this test does not compile against the pre-histogram code), and
    /// percentiles on a known heavy-tailed distribution stay within the
    /// histogram's documented relative-error bound.
    #[test]
    fn percentile_error_is_bounded_and_memory_fixed() {
        let values: Vec<u64> = (1..=50_000u64).map(|i| i * 17 + (i % 13) * 1_000).collect();
        let mut s = LatencyStats::new();
        for &v in &values {
            s.record_ns(v);
        }
        assert_eq!(
            s.histogram().allocated_buckets(),
            LogHistogram::NUM_BUCKETS,
            "storage is the fixed bucket array, not the 50k samples"
        );
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [50.0, 90.0, 95.0, 99.0] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1] as f64;
            let approx = s.percentile(q).unwrap();
            let err = (approx - exact).abs() / exact;
            assert!(
                err <= LogHistogram::MAX_RELATIVE_ERROR,
                "p{q}: exact {exact} approx {approx} err {err}"
            );
        }
    }
}
