//! I/O latency models.
//!
//! The case studies perform their "I/O" against an in-process substrate; the
//! latency of each operation is drawn from one of these models, standing in
//! for real network and disk variance.

use crate::clock::VirtualTime;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Duration;

/// A distribution of I/O latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every operation takes exactly this many microseconds.
    Constant {
        /// The fixed latency in microseconds.
        micros: u64,
    },
    /// Uniformly distributed between `lo` and `hi` microseconds (inclusive).
    Uniform {
        /// Lower bound in microseconds.
        lo: u64,
        /// Upper bound in microseconds.
        hi: u64,
    },
    /// Exponentially distributed with the given mean, truncated at `cap`
    /// microseconds (a simple model of heavy-ish tails without unbounded
    /// outliers).
    Exponential {
        /// Mean latency in microseconds.
        mean: u64,
        /// Upper truncation bound in microseconds.
        cap: u64,
    },
}

impl LatencyModel {
    /// A model with zero latency (useful to disable I/O effects).
    pub fn zero() -> Self {
        LatencyModel::Constant { micros: 0 }
    }

    /// The mean latency of the model in microseconds.
    pub fn mean_micros(&self) -> f64 {
        match *self {
            LatencyModel::Constant { micros } => micros as f64,
            LatencyModel::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
            LatencyModel::Exponential { mean, cap } => (mean as f64).min(cap as f64),
        }
    }
}

/// A seeded sampler for a [`LatencyModel`].
#[derive(Debug)]
pub struct LatencySampler {
    model: LatencyModel,
    rng: StdRng,
}

impl LatencySampler {
    /// Creates a sampler with a deterministic seed.
    pub fn new(model: LatencyModel, seed: u64) -> Self {
        LatencySampler {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The model being sampled.
    pub fn model(&self) -> LatencyModel {
        self.model
    }

    /// Draws one latency in microseconds.
    pub fn sample_micros(&mut self) -> u64 {
        match self.model {
            LatencyModel::Constant { micros } => micros,
            LatencyModel::Uniform { lo, hi } => self.rng.gen_range(lo..=hi),
            LatencyModel::Exponential { mean, cap } => {
                if mean == 0 {
                    return 0;
                }
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let x = -(u.ln()) * mean as f64;
                (x as u64).min(cap)
            }
        }
    }

    /// Draws one latency as a [`Duration`].
    pub fn sample_duration(&mut self) -> Duration {
        Duration::from_micros(self.sample_micros())
    }

    /// Draws one latency as a [`VirtualTime`] delta.
    pub fn sample_virtual(&mut self) -> VirtualTime {
        VirtualTime::from_micros(self.sample_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_is_constant() {
        let mut s = LatencySampler::new(LatencyModel::Constant { micros: 7 }, 1);
        for _ in 0..10 {
            assert_eq!(s.sample_micros(), 7);
        }
        assert_eq!(LatencyModel::zero().mean_micros(), 0.0);
    }

    #[test]
    fn uniform_model_stays_in_range() {
        let mut s = LatencySampler::new(LatencyModel::Uniform { lo: 10, hi: 20 }, 2);
        for _ in 0..100 {
            let v = s.sample_micros();
            assert!((10..=20).contains(&v));
        }
        assert_eq!(LatencyModel::Uniform { lo: 10, hi: 20 }.mean_micros(), 15.0);
    }

    #[test]
    fn exponential_model_respects_cap_and_mean() {
        let model = LatencyModel::Exponential {
            mean: 100,
            cap: 1000,
        };
        let mut s = LatencySampler::new(model, 3);
        let n = 2000;
        let mut sum = 0u64;
        for _ in 0..n {
            let v = s.sample_micros();
            assert!(v <= 1000);
            sum += v;
        }
        let mean = sum as f64 / n as f64;
        assert!(mean > 50.0 && mean < 150.0, "sample mean {mean}");
        assert_eq!(model.mean_micros(), 100.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = LatencyModel::Uniform { lo: 0, hi: 1000 };
        let a: Vec<u64> = {
            let mut s = LatencySampler::new(model, 9);
            (0..10).map(|_| s.sample_micros()).collect()
        };
        let b: Vec<u64> = {
            let mut s = LatencySampler::new(model, 9);
            (0..10).map(|_| s.sample_micros()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn duration_and_virtual_conversions() {
        let mut s = LatencySampler::new(LatencyModel::Constant { micros: 250 }, 0);
        assert_eq!(s.sample_duration(), Duration::from_micros(250));
        assert_eq!(s.sample_virtual(), VirtualTime::from_micros(250));
        assert_eq!(s.model(), LatencyModel::Constant { micros: 250 });
    }

    #[test]
    fn zero_mean_exponential_is_zero() {
        let mut s = LatencySampler::new(LatencyModel::Exponential { mean: 0, cap: 10 }, 5);
        assert_eq!(s.sample_micros(), 0);
    }
}
