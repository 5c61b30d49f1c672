//! The job-server case study (§5.1).
//!
//! Jobs of four classes arrive according to a Poisson process and are
//! executed under a *smallest-work-first* priority assignment: the job class
//! with the least work gets the highest priority.  The classes (and their
//! priority order, highest first) are: matrix multiplication (`matmul`),
//! Fibonacci (`fib`), mergesort (`sort`), and Smith–Waterman sequence
//! alignment (`sw`) — the same classes as the paper, with input sizes scaled
//! down so the experiments run in seconds rather than minutes.

use crate::harness::{
    drive_open_loop, run_report, ExperimentConfig, ExperimentReport, LoadMode, OpenLoopConfig,
    OpenLoopOutcome,
};
use rp_icilk::runtime::{Runtime, SchedulerKind};
use rp_sim::poisson::PoissonProcess;
use rp_sim::stats::LatencyStats;
use std::sync::Arc;
use std::time::Duration;

/// Priority level names, lowest first (smallest-work-first: matmul is the
/// cheapest job class, so it gets the highest priority).
pub const LEVELS: [&str; 4] = ["sw", "sort", "fib", "matmul"];

// ---------------------------------------------------------------------------
// The compute kernels.
// ---------------------------------------------------------------------------

/// Naive recursive Fibonacci — the classic exponential-work microbenchmark.
pub fn fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib(n - 1) + fib(n - 2)
    }
}

/// Dense matrix multiplication of two `n × n` matrices generated from the
/// seed; returns a checksum of the product.
pub fn matmul_checksum(n: usize, seed: u64) -> u64 {
    let a: Vec<u64> = (0..n * n)
        .map(|i| (i as u64).wrapping_mul(seed) % 97)
        .collect();
    let b: Vec<u64> = (0..n * n)
        .map(|i| (i as u64).wrapping_add(seed) % 89)
        .collect();
    let mut c = vec![0u64; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] = c[i * n + j].wrapping_add(aik.wrapping_mul(b[k * n + j]));
            }
        }
    }
    c.iter()
        .fold(0u64, |h, &x| h.wrapping_mul(31).wrapping_add(x))
}

/// Mergesort of a pseudo-random vector; returns the median element.
pub fn mergesort_median(n: usize, seed: u64) -> u64 {
    fn sort(v: &mut Vec<u64>) {
        let n = v.len();
        if n <= 1 {
            return;
        }
        let mut right = v.split_off(n / 2);
        sort(v);
        sort(&mut right);
        let mut merged = Vec::with_capacity(n);
        let (mut i, mut j) = (0, 0);
        while i < v.len() && j < right.len() {
            if v[i] <= right[j] {
                merged.push(v[i]);
                i += 1;
            } else {
                merged.push(right[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&v[i..]);
        merged.extend_from_slice(&right[j..]);
        *v = merged;
    }
    let mut v: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33)
        .collect();
    sort(&mut v);
    v[n / 2]
}

/// Smith–Waterman local alignment score of two pseudo-random sequences of
/// length `n`.
pub fn smith_waterman(n: usize, seed: u64) -> i64 {
    let alphabet = [b'A', b'C', b'G', b'T'];
    let seq = |salt: u64| -> Vec<u8> {
        (0..n)
            .map(|i| alphabet[((i as u64).wrapping_mul(salt ^ seed) % 4) as usize])
            .collect()
    };
    let (a, b) = (seq(0x9E3779B97F4A7C15), seq(0xC2B2AE3D27D4EB4F));
    let (match_s, mismatch, gap) = (2i64, -1i64, -1i64);
    let mut prev = vec![0i64; n + 1];
    let mut best = 0i64;
    for i in 1..=n {
        let mut current = vec![0i64; n + 1];
        for j in 1..=n {
            let diag = prev[j - 1]
                + if a[i - 1] == b[j - 1] {
                    match_s
                } else {
                    mismatch
                };
            let up = prev[j] + gap;
            let left = current[j - 1] + gap;
            current[j] = diag.max(up).max(left).max(0);
            best = best.max(current[j]);
        }
        prev = current;
    }
    best
}

/// A job class with its kernel and input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Divide-and-conquer matrix multiplication (highest priority).
    Matmul {
        /// Matrix dimension.
        n: usize,
    },
    /// Recursive Fibonacci.
    Fib {
        /// Argument.
        n: u64,
    },
    /// Mergesort.
    Sort {
        /// Number of elements.
        n: usize,
    },
    /// Smith–Waterman alignment (lowest priority).
    Sw {
        /// Sequence length.
        n: usize,
    },
}

impl JobClass {
    /// The default job mix used by the experiments (sizes scaled down from
    /// the paper's `matmul 1024 / fib 36 / sort 1.1e7 / sw 1024`).
    pub fn default_mix() -> [JobClass; 4] {
        [
            JobClass::Matmul { n: 48 },
            JobClass::Fib { n: 21 },
            JobClass::Sort { n: 20_000 },
            JobClass::Sw { n: 220 },
        ]
    }

    /// The priority level index of this class (position in [`LEVELS`]).
    pub fn level(&self) -> usize {
        match self {
            JobClass::Sw { .. } => 0,
            JobClass::Sort { .. } => 1,
            JobClass::Fib { .. } => 2,
            JobClass::Matmul { .. } => 3,
        }
    }

    /// The level name of this class.
    pub fn level_name(&self) -> &'static str {
        LEVELS[self.level()]
    }

    /// Executes the job, returning a checksum-ish result.
    pub fn execute(&self, seed: u64) -> u64 {
        match *self {
            JobClass::Matmul { n } => matmul_checksum(n, seed),
            JobClass::Fib { n } => fib(n),
            JobClass::Sort { n } => mergesort_median(n, seed),
            JobClass::Sw { n } => smith_waterman(n, seed) as u64,
        }
    }
}

/// Drives the job server on one runtime: jobs of each class arrive according
/// to independent Poisson processes whose rate scales with
/// `config.connections`; returns the response times of the highest-priority
/// class (matmul), the server's "interactive" jobs.
pub fn drive_jobs(rt: &Arc<Runtime>, config: &ExperimentConfig) -> LatencyStats {
    let mix = JobClass::default_mix();
    // Arrival rate per class: `connections` jobs per class over the run.
    let jobs_per_class = config.connections.max(1) * config.requests_per_connection.max(1) / 4;
    let mut arrivals =
        PoissonProcess::with_mean_inter_arrival(Duration::from_micros(400), config.seed);
    let mut stats = LatencyStats::new();
    let mut futures = Vec::new();
    for i in 0..jobs_per_class.max(1) {
        for job in mix {
            let gap = arrivals.next_gap();
            // Pace the open-loop arrival process in real time (capped so the
            // experiment stays fast).
            std::thread::sleep(gap.min(Duration::from_micros(300)));
            let priority = rt
                .priority_by_index(job.level())
                .expect("job classes map onto the runtime's levels");
            let seed = config.seed.wrapping_add(i as u64);
            let submitted = std::time::Instant::now();
            let fut = rt.fcreate(priority, move || job.execute(seed));
            futures.push((job, submitted, fut));
        }
    }
    for (job, submitted, fut) in futures {
        let _ = rt.ftouch_blocking(&fut);
        if matches!(job, JobClass::Matmul { .. }) {
            stats.record(submitted.elapsed());
        }
    }
    rt.drain(Duration::from_secs(20));
    stats
}

/// Open-loop variant of [`drive_jobs`]: jobs cycle through the default mix
/// and arrive at seeded Poisson times.  Unlike the closed loop (which
/// reports only the interactive `matmul` class), the returned outcome's
/// latency covers every job class — per-class tails come from the runtime's
/// per-level metrics.
pub fn drive_jobs_open(
    rt: &Arc<Runtime>,
    config: &ExperimentConfig,
    open: &OpenLoopConfig,
) -> OpenLoopOutcome {
    let mix = JobClass::default_mix();
    drive_open_loop(open, config.seed, |i| {
        let job = mix[i % mix.len()];
        let priority = rt
            .priority_by_index(job.level())
            .expect("job classes map onto the runtime's levels");
        let seed = config.seed.wrapping_add(i as u64);
        rt.fcreate(priority, move || job.execute(seed))
    })
}

/// Drives the job server in the mode `config.mode` selects.
pub fn drive(rt: &Arc<Runtime>, config: &ExperimentConfig) -> LatencyStats {
    match config.mode {
        LoadMode::Closed => drive_jobs(rt, config),
        LoadMode::Open(open) => {
            let outcome = drive_jobs_open(rt, config, &open);
            outcome.warn_if_lossy("jserver");
            rt.drain(Duration::from_secs(20));
            outcome.latency
        }
    }
}

/// Runs the job-server case study on both schedulers.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentReport {
    let mut reports = Vec::new();
    for scheduler in [SchedulerKind::ICilk, SchedulerKind::Baseline] {
        let rt = Arc::new(config.start_runtime(scheduler, &LEVELS));
        let client = drive(&rt, config);
        reports.push(run_report(scheduler, &rt, &LEVELS, client));
        crate::harness::shutdown_runtime(rt, Duration::from_secs(10));
    }
    let baseline = reports.pop().expect("two runs");
    let icilk = reports.pop().expect("two runs");
    ExperimentReport {
        app: "jserver".into(),
        config: config.clone(),
        icilk,
        baseline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_sim::latency::LatencyModel;

    #[test]
    fn kernels_compute_plausible_results() {
        assert_eq!(fib(10), 55);
        assert_eq!(fib(1), 1);
        let m1 = matmul_checksum(8, 1);
        let m2 = matmul_checksum(8, 1);
        assert_eq!(m1, m2, "deterministic");
        assert_ne!(matmul_checksum(8, 2), 0);
        let median = mergesort_median(101, 3);
        let median2 = mergesort_median(101, 3);
        assert_eq!(median, median2);
        let score = smith_waterman(32, 5);
        assert!(score >= 0);
        assert_eq!(score, smith_waterman(32, 5));
    }

    #[test]
    fn job_classes_map_to_levels() {
        let mix = JobClass::default_mix();
        assert_eq!(mix[0].level(), 3);
        assert_eq!(mix[0].level_name(), "matmul");
        assert_eq!(mix[3].level(), 0);
        assert_eq!(mix[3].level_name(), "sw");
        for job in mix {
            assert!(job.execute(1) > 0 || matches!(job, JobClass::Sw { .. }));
        }
    }

    #[test]
    fn experiment_runs_on_both_schedulers() {
        let config = ExperimentConfig {
            workers: 2,
            connections: 2,
            requests_per_connection: 4,
            io_latency: LatencyModel::Constant { micros: 100 },
            ..ExperimentConfig::default()
        };
        let report = run_experiment(&config);
        assert!(report.icilk.client_response.count() > 0);
        assert!(report.baseline.client_response.count() > 0);
        assert_eq!(report.icilk.levels.len(), 4);
        // Every class executed at least once on each scheduler.
        assert!(report.icilk.levels.iter().all(|l| l.compute.count() > 0));
    }
}
