//! Per-priority-level task pools, per-worker work-stealing deques, and the
//! runtime's shared state.
//!
//! # Queue architecture
//!
//! In prioritized (I-Cilk) mode each worker owns a private work-stealing
//! deque: tasks a worker spawns at its own assigned level go onto its deque
//! (LIFO for the owner — locality), and idle workers steal the oldest task
//! from a peer, preferring peers assigned to the highest-allotted priority
//! level.  The per-level [`Injector`]s remain as the *injection/overflow*
//! path: they receive tasks pushed from outside the worker pool (the
//! original submission of every experiment) and tasks whose level differs
//! from the spawning worker's current assignment.  The fast path — a worker
//! spawning and then executing its own work — never touches a shared
//! injector, so the injectors stop being the contended bottleneck.
//!
//! In oblivious (Cilk-F stand-in) mode everything still funnels through one
//! global FIFO, deliberately: that contention is part of the baseline being
//! compared against.
//!
//! # The helping floor
//!
//! A task blocked in `ftouch` runs queued tasks while it waits, on its own
//! stack.  In prioritized mode [`SharedState::pop_task`] takes a *floor*: a
//! task at level L waiting on a future at level F helps only with tasks at
//! level ≥ min(L, F) (see `SharedState::help_floor`), so a blocked
//! interactive task never runs background work ahead of its own children.
//! The `min` keeps an untyped inversion (a touch of a lower-level future)
//! able to run the very task it waits for.  Oblivious mode ignores the floor.
//!
//! # Parking
//!
//! A worker with nothing to run parks on a per-runtime condvar
//! (`SharedState::park`).  [`SharedState::push_task`] wakes one only when
//! the task would otherwise sit unseen: when it comes from outside the pool,
//! or when its queue already held a task.  A single child pushed by a worker
//! is left for that worker, which will touch or pop it next — the spawn path
//! costs no syscall.

use crate::metrics::MetricsCollector;
use crate::priority::PrioritySet;
use crate::trace::TraceCollector;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A unit of work: the boxed task body plus accounting metadata.
pub struct Task {
    /// The task body.
    pub run: Box<dyn FnOnce() + Send + 'static>,
    /// The priority level index of the task (0 = lowest).
    pub level: usize,
    /// When the task was enqueued (for response-time accounting).
    pub enqueued_at: Instant,
    /// The task's trace key, when the runtime records an execution trace.
    pub trace: Option<u64>,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("level", &self.level)
            .field("enqueued_at", &self.enqueued_at)
            .finish_non_exhaustive()
    }
}

/// The queue and scheduler counters of one priority level.
#[derive(Debug)]
pub struct LevelPool {
    /// The level's injection/overflow queue (see the module docs).
    pub injector: Injector<Task>,
    /// Nanoseconds of useful work performed for this level in the current
    /// scheduling quantum.
    pub busy_nanos: AtomicU64,
    /// The level's desire (number of cores it wants next quantum).
    pub desire: AtomicUsize,
    /// The level's current allotment (cores assigned this quantum).
    pub allotment: AtomicUsize,
    /// Tasks currently queued or running at this level.
    pub pending: AtomicUsize,
}

impl LevelPool {
    fn new() -> Self {
        LevelPool {
            injector: Injector::new(),
            busy_nanos: AtomicU64::new(0),
            desire: AtomicUsize::new(1),
            allotment: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
        }
    }
}

/// Which scheduling strategy the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// I-Cilk: per-worker deques plus per-level injection queues, workers
    /// assigned to levels by the master.
    Prioritized,
    /// Cilk-F baseline: a single FIFO pool, priorities ignored for
    /// scheduling (but still recorded for metrics).
    Oblivious,
}

/// A worker thread's private deque, installed in thread-local storage so
/// [`SharedState::push_task`] can take the fast path without threading a
/// handle through every spawn site.
struct LocalDeque {
    /// Address of the owning [`SharedState`], guarding against a worker of
    /// one runtime pushing tasks of another runtime onto its deque.
    owner: usize,
    worker_id: usize,
    deque: Worker<Task>,
}

thread_local! {
    static LOCAL_DEQUE: RefCell<Option<LocalDeque>> = const { RefCell::new(None) };
    /// `(runtime address, level)` of the task executing on this thread, if
    /// any.  Saved and restored by [`LevelScope`], so a task run while
    /// helping inside `ftouch` sets the floor of its own touches.
    static RUNNING_LEVEL: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Marks a task as running on this thread for the helping floor; restores
/// the enclosing task's level on drop.  Created by
/// [`crate::worker::execute_task`].
pub(crate) struct LevelScope {
    previous: Option<(usize, usize)>,
}

impl Drop for LevelScope {
    fn drop(&mut self) {
        RUNNING_LEVEL.with(|c| c.set(self.previous));
    }
}

/// State shared between the public runtime handle, the workers, the master
/// scheduler, and the I/O reactor.
#[derive(Debug)]
pub struct SharedState {
    /// The program's priority levels.
    pub priorities: PrioritySet,
    /// Per-level pools (always one per level, even in oblivious mode).
    pub levels: Vec<LevelPool>,
    /// The single global queue used in oblivious (baseline) mode.
    pub global: Injector<Task>,
    /// Which strategy is in effect.
    pub kind: PoolKind,
    /// Worker → assigned level index (meaningful in prioritized mode).
    pub assignment: Vec<AtomicUsize>,
    /// Stealer side of each worker's private deque.
    pub stealers: Vec<Stealer<Task>>,
    /// The worker-owned deque handles, taken once by each worker thread at
    /// startup (`None` after being claimed).
    deques: Mutex<Vec<Option<Worker<Task>>>>,
    /// Set when the runtime is shutting down.
    pub shutdown: AtomicBool,
    /// Bumped by every push that may wake a parked worker; a worker parks
    /// only if it is unchanged since the worker last looked for work.
    push_epoch: AtomicU64,
    /// Workers currently inside [`SharedState::park`].
    parked: AtomicUsize,
    /// Calls to [`SharedState::park`] since start.
    parks: AtomicU64,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Per-level task statistics.
    pub metrics: MetricsCollector,
    /// The execution tracer, when tracing is enabled.
    pub trace: Option<Arc<TraceCollector>>,
    /// Number of worker threads.
    pub num_workers: usize,
}

impl SharedState {
    /// Creates the shared state for `num_workers` workers over the given
    /// priority set, without tracing.
    pub fn new(priorities: PrioritySet, num_workers: usize, kind: PoolKind) -> Arc<Self> {
        Self::new_with_trace(priorities, num_workers, kind, None)
    }

    /// Like [`SharedState::new`], optionally installing an execution tracer.
    pub fn new_with_trace(
        priorities: PrioritySet,
        num_workers: usize,
        kind: PoolKind,
        trace: Option<Arc<TraceCollector>>,
    ) -> Arc<Self> {
        let levels = (0..priorities.len()).map(|_| LevelPool::new()).collect();
        let metrics = MetricsCollector::new(priorities.len());
        // Initially every worker serves the highest level; the master
        // rebalances at the end of the first quantum.
        let top = priorities.len() - 1;
        let assignment = (0..num_workers).map(|_| AtomicUsize::new(top)).collect();
        let deques: Vec<Worker<Task>> = (0..num_workers).map(|_| Worker::new_lifo()).collect();
        let stealers = deques.iter().map(Worker::stealer).collect();
        Arc::new(SharedState {
            priorities,
            levels,
            global: Injector::new(),
            kind,
            assignment,
            stealers,
            deques: Mutex::new(deques.into_iter().map(Some).collect()),
            shutdown: AtomicBool::new(false),
            push_epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            park_lock: Mutex::new(()),
            park_cv: Condvar::new(),
            metrics,
            trace,
            num_workers,
        })
    }

    /// Claims worker `worker_id`'s deque and installs it in this thread's
    /// local storage.  Called once by each worker thread at startup.
    pub fn register_current_worker(self: &Arc<Self>, worker_id: usize) {
        let deque = self
            .deques
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_mut(worker_id)
            .and_then(Option::take);
        if let Some(deque) = deque {
            LOCAL_DEQUE.with(|slot| {
                *slot.borrow_mut() = Some(LocalDeque {
                    owner: Arc::as_ptr(self) as usize,
                    worker_id,
                    deque,
                });
            });
        }
    }

    /// Removes this thread's local deque, if it belongs to this runtime.
    /// Remaining tasks flow back to the level injectors so nothing is
    /// stranded on a dead thread.
    pub fn unregister_current_worker(&self) {
        let local = LOCAL_DEQUE.with(|slot| {
            let owned = matches!(&*slot.borrow(), Some(l) if l.owner == self.addr());
            if owned {
                slot.borrow_mut().take()
            } else {
                None
            }
        });
        if let Some(local) = local {
            while let Some(task) = local.deque.pop() {
                let level = task.level.min(self.levels.len() - 1);
                self.levels[level].injector.push(task);
            }
        }
    }

    fn addr(&self) -> usize {
        self as *const SharedState as usize
    }

    /// Runs `f` on this thread's deque if the thread is a worker of this
    /// runtime, else on `None`.
    fn with_local<R>(&self, f: impl FnOnce(Option<&LocalDeque>) -> R) -> R {
        LOCAL_DEQUE.with(|slot| f(slot.borrow().as_ref().filter(|l| l.owner == self.addr())))
    }

    /// Enqueues a task.
    ///
    /// Prioritized mode fast path: when called from a worker thread of this
    /// runtime whose current assignment matches the task's level, the task
    /// goes onto that worker's private deque; otherwise (external
    /// submission, or a spawn at a different level) it goes to the level's
    /// injection queue.  Oblivious mode always uses the global FIFO.
    ///
    /// A parked worker is woken only for a push from outside the pool or
    /// onto a queue that already held a task (see the module docs).
    pub fn push_task(&self, task: Task) {
        let level = task.level.min(self.levels.len() - 1);
        self.levels[level].pending.fetch_add(1, Ordering::Relaxed);
        let wake = self.with_local(|local| {
            let queue_was_busy = match local {
                Some(l)
                    if self.kind == PoolKind::Prioritized
                        && self.assignment[l.worker_id].load(Ordering::Relaxed) == level =>
                {
                    let busy = !l.deque.is_empty();
                    l.deque.push(task);
                    busy
                }
                _ => {
                    let queue = match self.kind {
                        PoolKind::Prioritized => &self.levels[level].injector,
                        PoolKind::Oblivious => &self.global,
                    };
                    let busy = !queue.is_empty();
                    queue.push(task);
                    busy
                }
            };
            queue_was_busy || local.is_none()
        });
        if wake {
            self.wake_one();
        }
    }

    /// Wakes one parked worker, if any.  Bumps the push epoch first, so a
    /// worker between its last look for work and its park does not sleep.
    fn wake_one(&self) {
        self.push_epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.park_guard();
            self.park_cv.notify_one();
        }
    }

    fn park_guard(&self) -> MutexGuard<'_, ()> {
        self.park_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes a parked worker when tasks are queued.  Called by a task
    /// blocked in `ftouch` with nothing above its floor to help with: the
    /// queued work below the floor (or a lone child nobody was woken for)
    /// goes to a core that is free to run it.
    pub(crate) fn wake_for_queued_work(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let queued = !self.global.is_empty()
            || self.levels.iter().any(|l| !l.injector.is_empty())
            || self.stealers.iter().any(|s| !s.is_empty());
        if queued {
            self.wake_one();
        }
    }

    /// The current push epoch.  A worker reads it, looks for work once
    /// more, and passes it to [`SharedState::park`].
    pub(crate) fn push_epoch(&self) -> u64 {
        self.push_epoch.load(Ordering::SeqCst)
    }

    /// Parks the calling worker until a push that wakes workers, or
    /// shutdown.  Returns at once if such a push happened since `epoch` was
    /// read, so a task pushed between the worker's last look and this call
    /// is never slept through.
    pub(crate) fn park(&self, epoch: u64) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.park_guard();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.push_epoch.load(Ordering::SeqCst) == epoch && !self.is_shutting_down() {
            guard = self
                .park_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// How many times workers have parked since start.  An idle runtime
    /// parks each worker once and leaves it asleep; exposed for the
    /// busy-wake regression tests and diagnostics.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Marks a task at `level` as running on this thread until the returned
    /// scope drops.
    pub(crate) fn enter_level(&self, level: usize) -> LevelScope {
        let previous = RUNNING_LEVEL.with(|c| c.replace(Some((self.addr(), level))));
        LevelScope { previous }
    }

    /// The helping floor for a touch of a future at level `touched` from
    /// this thread: min(L, `touched`) where L is the level of the task of
    /// this runtime running here.  A thread running no such task helps only
    /// at or above `touched`.
    pub(crate) fn help_floor(&self, touched: usize) -> usize {
        RUNNING_LEVEL
            .with(Cell::get)
            .filter(|&(owner, _)| owner == self.addr())
            .map_or(touched, |(_, level)| level.min(touched))
    }

    /// The pop path for worker threads: own deque first (newest-first,
    /// locality), then the worker's assigned level injector, then stealing
    /// from peers serving the highest-allotted levels, then helping the
    /// other level injectors from the highest priority downward.
    pub fn pop_for_worker(&self, worker_id: usize) -> Option<Task> {
        match self.kind {
            PoolKind::Oblivious => self.pop_global(),
            PoolKind::Prioritized => {
                let assigned = self
                    .assignment
                    .get(worker_id)
                    .map(|a| a.load(Ordering::Relaxed))
                    .unwrap_or(0);
                if let Some(t) = self.pop_local(assigned) {
                    return Some(t);
                }
                if let Some(t) = self.pop_level(assigned) {
                    return Some(t);
                }
                if let Some(t) = self.steal_from_peers(Some(worker_id), 0) {
                    return Some(t);
                }
                for level in (0..self.levels.len()).rev() {
                    if level != assigned {
                        if let Some(t) = self.pop_level(level) {
                            return Some(t);
                        }
                    }
                }
                None
            }
        }
    }

    /// Tries to pop a task at level `floor` or above (prioritized mode) or
    /// any task (oblivious mode, where priorities do not order the queue).
    /// Used by `ftouch`'s helping path with `SharedState::help_floor`.
    ///
    /// In prioritized mode the helper scans the level injectors from the
    /// highest priority down to `floor`, then steals from worker deques.  A
    /// stolen task below the floor goes back to its level's injector, as a
    /// worker's own pop does with stale backlog.
    pub fn pop_task(&self, floor: usize) -> Option<Task> {
        match self.kind {
            PoolKind::Oblivious => self.pop_global(),
            PoolKind::Prioritized => {
                let floor = floor.min(self.levels.len() - 1);
                (floor..self.levels.len())
                    .rev()
                    .find_map(|level| self.pop_level(level))
                    .or_else(|| self.steal_from_peers(None, floor))
            }
        }
    }

    /// Pops from this thread's own deque, when it belongs to this runtime.
    ///
    /// Only tasks matching the worker's *current* assignment are returned:
    /// after a master rebalance, tasks of the old level left on the deque
    /// flow back to their level injectors instead of being executed ahead
    /// of the newly assigned (possibly higher-priority) level — otherwise a
    /// stale backlog would invert the priority the rebalance established.
    fn pop_local(&self, assigned: usize) -> Option<Task> {
        self.with_local(|local| {
            let local = local?;
            while let Some(task) = local.deque.pop() {
                let level = task.level.min(self.levels.len() - 1);
                if level == assigned {
                    return Some(task);
                }
                self.levels[level].injector.push(task);
            }
            None
        })
    }

    /// Steals from peer workers' deques, visiting peers assigned to the
    /// highest priority level first (the steal-from-highest-allotted-level
    /// policy: stolen capacity flows toward the levels the master granted
    /// the most cores at the top of the order).
    ///
    /// With a `floor` above 0, peers assigned below it are skipped (their
    /// deques hold work the caller may not run) except the caller's own
    /// deque, which may still hold its children from an earlier assignment;
    /// a stolen task below the floor goes back to its injector.
    fn steal_from_peers(&self, thief: Option<usize>, floor: usize) -> Option<Task> {
        let own = self.with_local(|local| local.map(|l| l.worker_id));
        for level in (0..self.levels.len()).rev() {
            for (peer, assigned) in self.assignment.iter().enumerate() {
                if Some(peer) == thief
                    || assigned.load(Ordering::Relaxed) != level
                    || (level < floor && Some(peer) != own)
                {
                    continue;
                }
                loop {
                    match self.stealers[peer].steal() {
                        Steal::Success(t) if t.level < floor => {
                            self.levels[t.level.min(self.levels.len() - 1)]
                                .injector
                                .push(t);
                        }
                        Steal::Success(t) => {
                            if let (Some(tc), Some(key)) = (&self.trace, t.trace) {
                                tc.record_steal(key);
                            }
                            return Some(t);
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
            }
        }
        None
    }

    fn pop_global(&self) -> Option<Task> {
        loop {
            match self.global.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => return None,
                Steal::Retry => continue,
            }
        }
    }

    fn pop_level(&self, level: usize) -> Option<Task> {
        loop {
            match self.levels[level].injector.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => return None,
                Steal::Retry => continue,
            }
        }
    }

    /// Records that `nanos` of work were done for `level` this quantum.
    pub fn record_busy(&self, level: usize, nanos: u64) {
        if let Some(l) = self.levels.get(level) {
            l.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Marks a task at `level` as finished (for the pending counter).
    pub fn task_finished(&self, level: usize) {
        if let Some(l) = self.levels.get(level) {
            l.pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Whether any task is pending anywhere.
    pub fn any_pending(&self) -> bool {
        self.levels
            .iter()
            .any(|l| l.pending.load(Ordering::Relaxed) > 0)
    }

    /// Signals shutdown to workers, the master, and the reactor, waking
    /// every parked worker.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.park_guard();
        self.park_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(kind: PoolKind) -> Arc<SharedState> {
        SharedState::new(PrioritySet::new(["lo", "hi"]), 2, kind)
    }

    fn task(level: usize, marker: Arc<AtomicUsize>) -> Task {
        Task {
            run: Box::new(move || {
                marker.fetch_add(1, Ordering::SeqCst);
            }),
            level,
            enqueued_at: Instant::now(),
            trace: None,
        }
    }

    #[test]
    fn prioritized_pop_takes_highest_first_and_nothing_below_the_floor() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.push_task(task(0, m.clone()));
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        // Floor 0 admits every level, highest first.
        assert_eq!(s.pop_task(0).unwrap().level, 1);
        // Floor 1 admits only level 1; the level-0 task stays queued.
        assert_eq!(s.pop_task(1).unwrap().level, 1);
        assert!(s.pop_task(1).is_none());
        assert_eq!(s.levels[0].injector.len(), 1);
        assert_eq!(s.pop_task(0).unwrap().level, 0);
        assert!(s.pop_task(0).is_none());
    }

    #[test]
    fn helper_steal_returns_tasks_below_the_floor_to_their_injector() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        // Assigned to level 0, this worker's spawn lands on its own deque.
        s.assignment[0].store(0, Ordering::Relaxed);
        s.push_task(task(0, m.clone()));
        assert_eq!(s.stealers[0].len(), 1);
        // A helper at floor 1 must not run it: the steal hands it back.
        assert!(s.pop_task(1).is_none());
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[0].injector.len(), 1);
        s.unregister_current_worker();
    }

    #[test]
    fn help_floor_is_the_lower_of_the_running_and_touched_levels() {
        let s = shared(PoolKind::Prioritized);
        let other = shared(PoolKind::Prioritized);
        // No task running: help at or above the touched level.
        assert_eq!(s.help_floor(1), 1);
        {
            let _hi = s.enter_level(1);
            assert_eq!(s.help_floor(1), 1);
            // An untyped inversion lowers the floor to the touched level.
            assert_eq!(s.help_floor(0), 0);
            {
                let _lo = s.enter_level(0);
                assert_eq!(s.help_floor(1), 0);
            }
            assert_eq!(s.help_floor(1), 1, "the enclosing level is restored");
            // Another runtime's task sets no floor here.
            assert_eq!(other.help_floor(0), 0);
            assert_eq!(other.help_floor(1), 1);
        }
        assert_eq!(s.help_floor(1), 1);
    }

    #[test]
    fn oblivious_pop_is_fifo_across_levels() {
        let s = shared(PoolKind::Oblivious);
        let m = Arc::new(AtomicUsize::new(0));
        s.push_task(task(0, m.clone()));
        s.push_task(task(1, m.clone()));
        let first = s.pop_task(1).unwrap();
        assert_eq!(first.level, 0, "baseline ignores priority: FIFO order");
    }

    #[test]
    fn pending_counters_track_push_and_finish() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        assert!(!s.any_pending());
        s.push_task(task(1, m));
        assert!(s.any_pending());
        let t = s.pop_task(1).unwrap();
        (t.run)();
        s.task_finished(t.level);
        assert!(!s.any_pending());
    }

    #[test]
    fn busy_accounting_and_shutdown_flag() {
        let s = shared(PoolKind::Prioritized);
        s.record_busy(1, 500);
        assert_eq!(s.levels[1].busy_nanos.load(Ordering::Relaxed), 500);
        assert!(!s.is_shutting_down());
        s.request_shutdown();
        assert!(s.is_shutting_down());
        // A shut-down runtime never parks a worker.
        s.park(s.push_epoch());
    }

    #[test]
    fn only_external_pushes_and_pushes_onto_busy_queues_bump_the_epoch() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        // From outside the pool: always.
        let e0 = s.push_epoch();
        s.push_task(task(1, m.clone()));
        let e1 = s.push_epoch();
        assert!(e1 > e0);
        let _ = s.pop_task(0);
        // A worker's lone child: never.
        s.register_current_worker(0);
        s.push_task(task(1, m.clone()));
        assert_eq!(s.push_epoch(), e1, "a lone child costs no wake-up");
        // A second task on the same deque: a peer could run it.
        s.push_task(task(1, m.clone()));
        assert!(s.push_epoch() > e1);
        s.unregister_current_worker();
    }

    #[test]
    fn worker_local_spawn_uses_private_deque_and_is_stealable() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        // Pretend this test thread is worker 0, assigned to level 1 (the
        // initial assignment).
        s.register_current_worker(0);
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        // The tasks went to worker 0's deque, not the injector.
        assert!(s.levels[1].injector.is_empty());
        assert_eq!(s.stealers[0].len(), 2);
        // The owner pops newest-first from its own deque.
        assert!(s.pop_for_worker(0).is_some());
        assert_eq!(s.stealers[0].len(), 1);
        // A peer (or helper) can steal the remainder.
        let stolen = s.pop_task(0);
        assert!(stolen.is_some());
        assert_eq!(s.stealers[0].len(), 0);
        s.unregister_current_worker();
    }

    #[test]
    fn spawn_at_other_level_overflows_to_injector() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        // Worker 0 is assigned to level 1; a level-0 spawn must not hide in
        // its deque (a level-0 worker would never find it there first).
        s.push_task(task(0, m.clone()));
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[0].injector.len(), 1);
        s.unregister_current_worker();
    }

    #[test]
    fn unregister_drains_deque_back_to_injectors() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        s.push_task(task(1, m.clone()));
        assert_eq!(s.stealers[0].len(), 1);
        s.unregister_current_worker();
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[1].injector.len(), 1, "task flowed back");
    }

    #[test]
    fn reassigned_worker_reinjects_stale_deque_backlog() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        // Worker 0 starts assigned to level 1 and builds a local backlog.
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        assert_eq!(s.stealers[0].len(), 2);
        // The master reassigns worker 0 to level 0: the stale level-1 tasks
        // must flow back to the level-1 injector rather than being popped
        // ahead of the worker's new assignment.
        s.assignment[0].store(0, Ordering::Relaxed);
        // Nothing at level 0, so the worker helps the level-1 injector —
        // but only after the backlog has been re-injected there.
        let t = s.pop_for_worker(0).expect("backlog still reachable");
        assert_eq!(t.level, 1);
        assert_eq!(
            s.stealers[0].len(),
            0,
            "deque drained on assignment mismatch"
        );
        assert_eq!(s.levels[1].injector.len(), 1, "one task re-injected");
        s.unregister_current_worker();
    }

    #[test]
    fn cross_runtime_pushes_never_land_on_foreign_deques() {
        let a = shared(PoolKind::Prioritized);
        let b = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        // This thread is a worker of runtime A...
        a.register_current_worker(0);
        // ...but pushes a task belonging to runtime B.
        b.push_task(task(1, m.clone()));
        assert_eq!(a.stealers[0].len(), 0, "A's deque untouched");
        assert_eq!(b.levels[1].injector.len(), 1, "B got its task");
        a.unregister_current_worker();
    }
}
