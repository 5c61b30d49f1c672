//! The two-level adaptive master scheduler (Section 4.3).
//!
//! Every scheduling quantum the master:
//!
//! 1. computes each priority level's *utilization* over the quantum —
//!    useful work performed divided by the capacity it was allotted;
//! 2. updates each level's *desire*: multiply by the growth parameter γ when
//!    utilization exceeded the threshold and the previous desire was
//!    satisfied, keep it when utilization was high but the desire was not
//!    met, and divide by γ otherwise;
//! 3. hands out cores in priority order, highest first, each level receiving
//!    `min(desire, remaining)` cores, and maps workers to levels
//!    accordingly (left-over cores go to the lowest level, so every worker
//!    has an assignment).
//!
//! An assignment is a preference, not a fence: it decides where an idle
//! worker looks first, not where a spawn goes (children go on the spawning
//! worker's deque, see [`crate::pool`]); a worker with nothing at its level
//! runs other levels, and one with nothing at all parks.  A parked worker
//! records no busy time, so its level's utilization — and next its desire —
//! falls.
//!
//! Between re-evaluations the master waits in a timed park on its own
//! thread handle, not on the workers' condvar (a wake-up meant for a worker
//! must never land on the master).  [`Runtime::shutdown`] unparks it, so
//! stopping a runtime does not wait out the rest of a quantum; any other
//! wake-up re-checks the deadline and parks again.
//!
//! An idle runtime costs no CPU: once a re-evaluation finds nothing queued
//! and nothing run at any level, with every desire already at one (so the
//! next would change nothing), the master parks without a timeout until a
//! shutdown or an `fcreate` from outside the pool wakes it (see
//! `SharedState::park_master`).  Woken every 500 µs instead, an idle
//! 2-worker runtime's master used 16–18 ms of CPU per second.
//!
//! [`Runtime::shutdown`]: crate::runtime::Runtime::shutdown

use crate::pool::SharedState;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunable parameters of the master scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterConfig {
    /// The scheduling quantum (the paper uses 500µs).
    pub quantum: Duration,
    /// The utilization threshold above which a level's desire grows
    /// (the paper uses 90%).
    pub utilization_threshold: f64,
    /// The multiplicative growth parameter γ (the paper uses 2).
    pub growth: f64,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            quantum: Duration::from_micros(500),
            utilization_threshold: 0.9,
            growth: 2.0,
        }
    }
}

/// One master re-evaluation: reads each level's pending count and busy time
/// through [`SharedState::level_load`], updates desires, and recomputes
/// allotments and the worker→level assignment.  Extracted from the master
/// loop so it can be unit-tested without threads.
///
/// Returns whether the runtime was quiet: no level had a task pending or
/// ran one in the quantum, and every desire was already one, so another
/// re-evaluation without new work would change nothing.
pub fn rebalance(shared: &SharedState, config: &MasterConfig) -> bool {
    let quantum_nanos = config.quantum.as_nanos().max(1) as f64;
    let num_levels = shared.levels.len();
    let num_workers = shared.num_workers;
    let mut quiet = true;

    // Step 1 & 2: utilization and desire updates.
    for (level_ix, level) in shared.levels.iter().enumerate() {
        let load = shared.level_load(level_ix);
        // The busy counter only grows: this quantum's share is its growth
        // since the previous quantum.
        let seen = level.busy_seen.swap(load.busy_nanos, Ordering::Relaxed);
        let busy = load.busy_nanos.saturating_sub(seen) as f64;
        let allotment = level.allotment.load(Ordering::Relaxed);
        let desire = level.desire.load(Ordering::Relaxed).max(1);
        let pending = load.pending;
        let capacity = (allotment.max(1) as f64) * quantum_nanos;
        let utilization = (busy / capacity).min(1.0);
        let satisfied = allotment >= desire;
        quiet &= pending == 0 && busy == 0.0 && desire == 1;
        let new_desire = if pending == 0 && busy == 0.0 {
            // Nothing queued and nothing ran: shrink toward one core.
            ((desire as f64) / config.growth).floor().max(1.0) as usize
        } else if utilization >= config.utilization_threshold && satisfied {
            (((desire as f64) * config.growth).ceil() as usize).min(num_workers)
        } else if utilization >= config.utilization_threshold {
            desire
        } else {
            ((desire as f64) / config.growth).floor().max(1.0) as usize
        };
        level.desire.store(new_desire, Ordering::Relaxed);
    }

    // Step 3: allot cores from the highest priority downward.
    let mut remaining = num_workers;
    let mut allotments = vec![0usize; num_levels];
    for level_ix in (0..num_levels).rev() {
        let desire = shared.levels[level_ix].desire.load(Ordering::Relaxed);
        let grant = desire.min(remaining);
        allotments[level_ix] = grant;
        remaining -= grant;
    }
    // Left-over cores go to the lowest level so no core idles by fiat.
    allotments[0] += remaining;
    for (level_ix, &a) in allotments.iter().enumerate() {
        shared.levels[level_ix]
            .allotment
            .store(a, Ordering::Relaxed);
    }

    // Map workers to levels: highest priority levels get the first workers.
    let mut worker = 0usize;
    for level_ix in (0..num_levels).rev() {
        for _ in 0..allotments[level_ix] {
            if worker < shared.assignment.len() {
                shared.assignment[worker].store(level_ix, Ordering::Relaxed);
                worker += 1;
            }
        }
    }
    while worker < shared.assignment.len() {
        shared.assignment[worker].store(0, Ordering::Relaxed);
        worker += 1;
    }
    quiet
}

/// The master thread: rebalances every quantum until shutdown.  Each quantum
/// is a timed park that only an unpark after a shutdown request cuts short;
/// after a quiet quantum it parks until new work arrives.
pub fn master_loop(shared: Arc<SharedState>, config: MasterConfig) {
    while !shared.is_shutting_down() {
        let deadline = Instant::now() + config.quantum;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::park_timeout(deadline - now);
            if shared.is_shutting_down() {
                return;
            }
        }
        if rebalance(&shared, &config) {
            shared.park_master();
        }
    }
}

/// Spawns the master scheduler thread.
pub fn spawn_master(shared: &Arc<SharedState>, config: MasterConfig) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("icilk-master".to_string())
        .spawn(move || master_loop(shared, config))
        .expect("spawning the master thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolKind, SharedState, Task};
    use crate::priority::PrioritySet;

    fn shared(workers: usize) -> Arc<SharedState> {
        SharedState::new(
            PrioritySet::new(["lo", "mid", "hi"]),
            workers,
            PoolKind::Prioritized,
        )
    }

    /// Gives `level` `quanta` quanta of busy time and `pending` queued
    /// tasks, through the same calls the workers make.
    fn load(s: &SharedState, config: &MasterConfig, level: usize, quanta: u64, pending: usize) {
        s.record_busy(level, quanta * config.quantum.as_nanos() as u64);
        for _ in 0..pending {
            s.push_task(Task {
                run: Box::new(|| {}),
                level,
                enqueued_at: std::time::Instant::now(),
                trace: None,
            });
        }
    }

    #[test]
    fn high_priority_levels_get_cores_first() {
        let s = shared(4);
        let config = MasterConfig::default();
        // Pretend the high level was fully busy and wants more.
        s.levels[2].desire.store(3, Ordering::Relaxed);
        s.levels[2].allotment.store(3, Ordering::Relaxed);
        load(&s, &config, 2, 3, 5);
        // The low level also wants everything.
        s.levels[0].desire.store(4, Ordering::Relaxed);
        s.levels[0].allotment.store(1, Ordering::Relaxed);
        load(&s, &config, 0, 1, 5);
        rebalance(&s, &config);
        let hi = s.levels[2].allotment.load(Ordering::Relaxed);
        let lo = s.levels[0].allotment.load(Ordering::Relaxed);
        assert!(hi >= 3, "high level keeps or grows its cores, got {hi}");
        assert!(hi + lo <= 4, "allotments never exceed the worker count");
        // Workers 0.. are assigned to the high level first.
        assert_eq!(s.assignment[0].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn desire_grows_when_utilized_and_satisfied() {
        let s = shared(4);
        let config = MasterConfig::default();
        s.levels[1].desire.store(1, Ordering::Relaxed);
        s.levels[1].allotment.store(1, Ordering::Relaxed);
        load(&s, &config, 1, 1, 3);
        rebalance(&s, &config);
        assert_eq!(
            s.levels[1].desire.load(Ordering::Relaxed),
            2,
            "γ = 2 doubles"
        );
    }

    #[test]
    fn busy_time_counts_in_one_quantum_only() {
        let s = shared(4);
        let config = MasterConfig::default();
        s.levels[1].allotment.store(1, Ordering::Relaxed);
        load(&s, &config, 1, 1, 3);
        rebalance(&s, &config);
        assert_eq!(s.levels[1].desire.load(Ordering::Relaxed), 2);
        // No new busy time: utilization is 0 and the desire halves, though
        // the level's cumulative busy time has not changed.
        s.levels[1].allotment.store(2, Ordering::Relaxed);
        rebalance(&s, &config);
        assert_eq!(s.levels[1].desire.load(Ordering::Relaxed), 1);
        assert_eq!(s.level_load(1).busy_nanos, config.quantum.as_nanos() as u64);
    }

    #[test]
    fn desire_shrinks_when_idle() {
        let s = shared(4);
        let config = MasterConfig::default();
        s.levels[2].desire.store(4, Ordering::Relaxed);
        s.levels[2].allotment.store(4, Ordering::Relaxed);
        // No busy time, nothing pending.
        rebalance(&s, &config);
        assert_eq!(s.levels[2].desire.load(Ordering::Relaxed), 2);
        rebalance(&s, &config);
        assert_eq!(s.levels[2].desire.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn leftover_cores_go_to_the_lowest_level() {
        let s = shared(8);
        let config = MasterConfig::default();
        // Every level wants one core; 8 − 3 = 5 left over.
        rebalance(&s, &config);
        let total: usize = (0..3)
            .map(|i| s.levels[i].allotment.load(Ordering::Relaxed))
            .sum();
        assert_eq!(total, 8, "all cores are assigned");
        assert!(s.levels[0].allotment.load(Ordering::Relaxed) >= 5);
    }

    /// An unpark that is not a shutdown does not end the quantum early; the
    /// one after a shutdown request stops the master at once.
    #[test]
    fn only_shutdown_cuts_the_quantum_short() {
        let s = shared(4);
        // With no load, the first rebalance halves this desire.
        s.levels[2].desire.store(4, Ordering::Relaxed);
        let quantum = Duration::from_secs(5);
        let started = Instant::now();
        let master = spawn_master(
            &s,
            MasterConfig {
                quantum,
                ..MasterConfig::default()
            },
        );
        for _ in 0..50 {
            master.thread().unpark();
            std::thread::sleep(Duration::from_millis(1));
        }
        let desire = s.levels[2].desire.load(Ordering::Relaxed);
        if started.elapsed() < quantum {
            assert_eq!(desire, 4, "a spurious wake-up ran a rebalance early");
        }
        s.request_shutdown();
        master.thread().unpark();
        let stopping = Instant::now();
        master.join().unwrap();
        assert!(stopping.elapsed() < Duration::from_secs(1));
    }

    /// Rebalance rounds until a top level with a 64-task backlog, fully
    /// busy on whatever it holds, is granted every one of `workers` cores.
    fn rounds_until_saturated(config: &MasterConfig, workers: usize) -> usize {
        let s = shared(workers);
        load(&s, config, 2, 0, 64);
        for round in 1..=64 {
            let allot = s.levels[2].allotment.load(Ordering::Relaxed).max(1) as u64;
            load(&s, config, 2, allot, 0);
            rebalance(&s, config);
            if s.levels[2].allotment.load(Ordering::Relaxed) >= workers {
                return round;
            }
        }
        64
    }

    /// How fast the master grants cores: a larger γ saturates in fewer
    /// rounds, the quantum's length does not matter when busy time scales
    /// with it, and two workers saturate in two rounds whatever γ is.
    #[test]
    fn saturated_top_level_gets_every_core_in_a_fixed_number_of_rounds() {
        for (growth, rounds) in [(1.5, 7), (2.0, 5), (4.0, 3)] {
            let config = MasterConfig {
                growth,
                ..MasterConfig::default()
            };
            assert_eq!(rounds_until_saturated(&config, 16), rounds, "γ = {growth}");
            assert_eq!(rounds_until_saturated(&config, 2), 2, "γ = {growth}, P = 2");
        }
        for quantum_us in [100, 500, 2_000] {
            let config = MasterConfig {
                quantum: Duration::from_micros(quantum_us),
                ..MasterConfig::default()
            };
            assert_eq!(
                rounds_until_saturated(&config, 16),
                5,
                "quantum {quantum_us} µs"
            );
        }
    }

    #[test]
    fn desire_never_exceeds_worker_count_nor_drops_below_one() {
        let s = shared(2);
        let config = MasterConfig {
            growth: 4.0,
            ..MasterConfig::default()
        };
        s.levels[2].desire.store(2, Ordering::Relaxed);
        s.levels[2].allotment.store(2, Ordering::Relaxed);
        load(&s, &config, 2, 2, 1);
        rebalance(&s, &config);
        assert!(s.levels[2].desire.load(Ordering::Relaxed) <= 2);
        for _ in 0..5 {
            rebalance(&s, &config);
        }
        for l in &s.levels {
            assert!(l.desire.load(Ordering::Relaxed) >= 1);
        }
    }
}
