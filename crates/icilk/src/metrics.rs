//! Per-priority-level task metrics.
//!
//! The evaluation (Section 5.2) reports, per priority level, the *response
//! time* (request sent → handled) and the *compute time* (task start →
//! finish), as averages and 95th percentiles.  [`MetricsCollector`] gathers
//! both for every task the runtime executes.
//!
//! # Sharding
//!
//! Every task completion on every worker goes through
//! [`MetricsCollector::record_task`], so under an open-loop flood this is a
//! hot path.  The collector therefore keeps one shard per recording thread
//! (threads are assigned to shards round-robin on first use): a worker only
//! ever locks its own shard, which is uncontended in the common case of at
//! most [`DEFAULT_SHARDS`] recording threads.  Shards are merged only when
//! [`MetricsCollector::snapshot`] is called — a cheap bucket-wise histogram
//! addition thanks to the fixed-size [`LatencyStats`] backing.

use parking_lot::Mutex;
use rp_sim::stats::LatencyStats;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Default number of metrics shards; recording threads beyond this many
/// share shards (round-robin), trading a little contention for fixed memory.
pub const DEFAULT_SHARDS: usize = 16;

/// A process-wide ordinal for each recording thread, assigned on the
/// thread's first record and reused for every collector: thread → shard
/// assignment stays stable and contention-free without per-collector
/// registration.
static NEXT_THREAD_ORDINAL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub(crate) fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|slot| {
        let mut ord = slot.get();
        if ord == usize::MAX {
            ord = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            slot.set(ord);
        }
        ord
    })
}

#[derive(Debug, Default)]
struct Inner {
    response: Vec<LatencyStats>,
    compute: Vec<LatencyStats>,
    completed: Vec<u64>,
}

impl Inner {
    fn new(levels: usize) -> Self {
        Inner {
            response: vec![LatencyStats::new(); levels],
            compute: vec![LatencyStats::new(); levels],
            completed: vec![0; levels],
        }
    }

    fn record(&mut self, level: usize, response: Duration, compute: Duration) {
        if level < self.response.len() {
            self.response[level].record(response);
            self.compute[level].record(compute);
            self.completed[level] += 1;
        }
    }
}

/// One metrics shard, padded to its own cache lines so concurrent workers
/// recording into adjacent shards never false-share a line.
#[derive(Debug)]
#[repr(align(128))]
struct Shard(Mutex<Inner>);

/// Thread-safe collector of per-level task statistics, sharded per
/// recording thread (see the module docs).
#[derive(Debug)]
pub struct MetricsCollector {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; the shard count is a power of two so shard
    /// selection is a mask, not a division, on the hot path.
    shard_mask: usize,
    levels: usize,
}

/// An immutable snapshot of the collected statistics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Response time (creation → completion) per level, lowest level first.
    pub response: Vec<LatencyStats>,
    /// Compute time (start → completion) per level, lowest level first.
    pub compute: Vec<LatencyStats>,
    /// Number of completed tasks per level.
    pub completed: Vec<u64>,
}

impl MetricsSnapshot {
    /// Mean response time in microseconds for a level, if any task completed.
    pub fn mean_response_micros(&self, level: usize) -> Option<f64> {
        self.response.get(level).and_then(|s| s.mean_micros())
    }

    /// 95th-percentile response time in microseconds for a level.
    pub fn p95_response_micros(&self, level: usize) -> Option<f64> {
        self.response.get(level).and_then(|s| s.p95_micros())
    }

    /// Mean compute time in microseconds for a level.
    pub fn mean_compute_micros(&self, level: usize) -> Option<f64> {
        self.compute.get(level).and_then(|s| s.mean_micros())
    }

    /// 95th-percentile compute time in microseconds for a level.
    pub fn p95_compute_micros(&self, level: usize) -> Option<f64> {
        self.compute.get(level).and_then(|s| s.p95_micros())
    }

    /// Total tasks completed across all levels.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }
}

impl MetricsCollector {
    /// A collector for `levels` priority levels with [`DEFAULT_SHARDS`]
    /// shards.
    pub fn new(levels: usize) -> Self {
        Self::with_shards(levels, DEFAULT_SHARDS)
    }

    /// A collector with an explicit shard count (≥ 1; rounded up to the
    /// next power of two so shard selection stays a mask).
    pub fn with_shards(levels: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        MetricsCollector {
            shards: (0..shards)
                .map(|_| Shard(Mutex::new(Inner::new(levels))))
                .collect(),
            shard_mask: shards - 1,
            levels,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records one completed task at the given level.
    ///
    /// Hot path: locks only the calling thread's shard, so concurrent
    /// workers never contend with each other (up to the shard count).
    pub fn record_task(&self, level: usize, response: Duration, compute: Duration) {
        let shard = &self.shards[thread_ordinal() & self.shard_mask];
        shard.0.lock().record(level, response, compute);
    }

    /// Takes a snapshot of everything recorded so far, merging the shards.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged = Inner::new(self.levels);
        for shard in &self.shards {
            let inner = shard.0.lock();
            for level in 0..self.levels {
                merged.response[level].merge(&inner.response[level]);
                merged.compute[level].merge(&inner.compute[level]);
                merged.completed[level] += inner.completed[level];
            }
        }
        MetricsSnapshot {
            response: merged.response,
            compute: merged.compute,
            completed: merged.completed,
        }
    }
}

/// The pre-sharding implementation, kept as the oracle the sharded
/// collector's totals are tested against.
#[cfg(test)]
mod reference {
    use super::{Inner, MetricsSnapshot};
    use parking_lot::Mutex;
    use std::time::Duration;

    /// The original collector: one global mutex on the task-completion hot
    /// path; not used by the runtime.
    #[derive(Debug)]
    pub struct MutexMetricsCollector {
        inner: Mutex<Inner>,
    }

    impl MutexMetricsCollector {
        /// A collector for `levels` priority levels.
        pub fn new(levels: usize) -> Self {
            MutexMetricsCollector {
                inner: Mutex::new(Inner::new(levels)),
            }
        }

        /// Records one completed task at the given level (all threads
        /// funnel through the one mutex).
        pub fn record_task(&self, level: usize, response: Duration, compute: Duration) {
            self.inner.lock().record(level, response, compute);
        }

        /// Takes a snapshot of everything recorded so far.
        pub fn snapshot(&self) -> MetricsSnapshot {
            let inner = self.inner.lock();
            MetricsSnapshot {
                response: inner.response.clone(),
                compute: inner.compute.clone(),
                completed: inner.completed.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_per_level() {
        let m = MetricsCollector::new(2);
        m.record_task(0, Duration::from_micros(100), Duration::from_micros(40));
        m.record_task(1, Duration::from_micros(10), Duration::from_micros(5));
        m.record_task(1, Duration::from_micros(30), Duration::from_micros(15));
        let snap = m.snapshot();
        assert_eq!(snap.completed, vec![1, 2]);
        assert_eq!(snap.total_completed(), 3);
        assert!((snap.mean_response_micros(0).unwrap() - 100.0).abs() < 1.0);
        assert!((snap.mean_response_micros(1).unwrap() - 20.0).abs() < 1.0);
        assert!((snap.mean_compute_micros(1).unwrap() - 10.0).abs() < 1.0);
        assert!(snap.p95_response_micros(1).unwrap() >= 29.0);
        assert!(snap.p95_compute_micros(0).is_some());
    }

    #[test]
    fn out_of_range_level_is_ignored() {
        let m = MetricsCollector::new(1);
        m.record_task(7, Duration::from_micros(1), Duration::from_micros(1));
        assert_eq!(m.snapshot().total_completed(), 0);
    }

    #[test]
    fn empty_levels_report_none() {
        let m = MetricsCollector::new(2);
        let snap = m.snapshot();
        assert!(snap.mean_response_micros(0).is_none());
        assert!(snap.p95_response_micros(1).is_none());
    }

    #[test]
    fn snapshot_merges_records_from_many_threads() {
        let m = Arc::new(MetricsCollector::with_shards(3, 4));
        let per_thread = 500usize;
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let level = (t + i) % 3;
                        m.record_task(
                            level,
                            Duration::from_micros(100 + i as u64),
                            Duration::from_micros(50),
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.total_completed(), 8 * per_thread as u64);
        for level in 0..3 {
            assert!(snap.completed[level] > 0);
            assert!(snap.mean_response_micros(level).is_some());
        }
    }

    #[test]
    fn sharded_and_reference_agree_on_totals() {
        let sharded = MetricsCollector::new(2);
        let mutexed = reference::MutexMetricsCollector::new(2);
        for i in 0..100u64 {
            let (r, c) = (Duration::from_micros(i + 1), Duration::from_micros(i / 2));
            sharded.record_task((i % 2) as usize, r, c);
            mutexed.record_task((i % 2) as usize, r, c);
        }
        let a = sharded.snapshot();
        let b = mutexed.snapshot();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_response_micros(0), b.mean_response_micros(0));
        assert_eq!(a.p95_response_micros(1), b.p95_response_micros(1));
    }

    #[test]
    fn single_shard_still_works() {
        let m = MetricsCollector::with_shards(1, 1);
        assert_eq!(m.shard_count(), 1);
        m.record_task(0, Duration::from_micros(5), Duration::from_micros(5));
        assert_eq!(m.snapshot().total_completed(), 1);
    }
}
