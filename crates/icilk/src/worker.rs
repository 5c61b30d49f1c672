//! Worker threads.
//!
//! Each worker repeatedly asks the shared state for a task — preferring its
//! master-assigned priority level — executes it, and records its compute and
//! response times.  When no work is available the worker parks until a push
//! wakes it (see the parking rules in [`crate::pool`]); a parked worker
//! records no busy time, which the master observes as low utilization.

use crate::pool::SharedState;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Runs one task to completion, recording metrics and counters.
///
/// Shared by the worker loop and by `ftouch`'s helping path, so that a task
/// executed while waiting is accounted identically.  While the task runs,
/// its level is this thread's helping floor (see
/// `SharedState::help_floor`).
pub fn execute_task(shared: &SharedState, task: crate::pool::Task) {
    let level = task.level;
    let started = Instant::now();
    let running = shared.enter_level(level);
    (task.run)();
    drop(running);
    let finished = Instant::now();
    let compute = finished - started;
    let response = finished - task.enqueued_at;
    shared.record_busy(level, compute.as_nanos() as u64);
    shared.metrics.record_task(level, response, compute);
    shared.task_finished(level);
}

/// The body of a worker thread.
///
/// The worker claims its private work-stealing deque on entry; a task it
/// runs then spawns children at its own level onto that deque, bypassing the
/// shared injectors (see [`SharedState::push_task`]).  On exit the deque's
/// remaining tasks flow back to the injectors.
pub fn worker_loop(shared: Arc<SharedState>, worker_id: usize) {
    /// Drains the worker's deque back to the injectors even when a task
    /// panics and unwinds the loop — queued tasks must survive a dying
    /// worker, as they did when they lived in the shared injectors.
    struct DequeGuard<'a>(&'a SharedState);
    impl Drop for DequeGuard<'_> {
        fn drop(&mut self) {
            self.0.unregister_current_worker();
        }
    }

    shared.register_current_worker(worker_id);
    let _guard = DequeGuard(&shared);
    while !shared.is_shutting_down() {
        match shared.pop_for_worker(worker_id) {
            Some(task) => execute_task(&shared, task),
            // `park` looks at the queues again after counting itself
            // parked, so a push racing with this miss is not slept through.
            None => shared.park(),
        }
    }
}

/// Spawns the worker threads.
pub fn spawn_workers(shared: &Arc<SharedState>) -> Vec<JoinHandle<()>> {
    (0..shared.num_workers)
        .map(|id| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("icilk-worker-{id}"))
                .spawn(move || worker_loop(shared, id))
                .expect("spawning a worker thread")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolKind, Task};
    use crate::priority::PrioritySet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn execute_task_records_metrics_and_counters() {
        let shared = SharedState::new(PrioritySet::new(["lo", "hi"]), 1, PoolKind::Prioritized);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = ran.clone();
        let task = Task {
            run: Box::new(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }),
            level: 1,
            enqueued_at: Instant::now(),
            trace: None,
        };
        shared.push_task(task);
        let t = shared.pop_task(1).unwrap();
        execute_task(&shared, t);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        let snap = shared.metrics.snapshot();
        assert_eq!(snap.completed, vec![0, 1]);
        assert!(!shared.any_pending());
    }

    #[test]
    fn workers_drain_the_queue_and_shut_down() {
        let shared = SharedState::new(PrioritySet::new(["only"]), 2, PoolKind::Prioritized);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let c = counter.clone();
            shared.push_task(Task {
                run: Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
                level: 0,
                enqueued_at: Instant::now(),
                trace: None,
            });
        }
        let handles = spawn_workers(&shared);
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.any_pending() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        shared.request_shutdown();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    /// Regression test: idle workers used to sleep 100 µs and poll again,
    /// about 2000 loop iterations per 250 ms for two workers.  They now
    /// park until a push wakes them, so an idle quarter second costs at
    /// most a handful of iterations.
    #[test]
    fn idle_workers_park_instead_of_polling() {
        let shared = SharedState::new(PrioritySet::new(["lo", "hi"]), 2, PoolKind::Prioritized);
        let handles = spawn_workers(&shared);
        // Let startup settle, then measure an idle window.
        std::thread::sleep(Duration::from_millis(20));
        let before = shared.parks();
        std::thread::sleep(Duration::from_millis(250));
        let parks = shared.parks() - before;
        assert!(
            parks <= 5,
            "idle workers looped {parks} times in 250 ms — busy-wake regression"
        );
        shared.request_shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
