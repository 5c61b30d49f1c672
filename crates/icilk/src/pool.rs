//! Per-priority-level task pools, per-worker work-stealing deques, and the
//! runtime's shared state.
//!
//! # Queue architecture
//!
//! In prioritized (I-Cilk) mode each worker owns a private work-stealing
//! deque, and the spawn path is *work-first*: a task spawned at the level of
//! the task running on the spawning worker goes onto that worker's deque
//! (LIFO for the owner — the child its parent touches next is on top), and
//! idle workers steal the oldest task from a peer, preferring peers
//! assigned to the highest-allotted priority level.  The master's
//! assignment no longer decides where a spawn goes; it steers where an idle
//! worker looks first ([`SharedState::pop_for_worker`]).  The per-level
//! injectors remain as the *injection/overflow* path: they receive tasks
//! pushed from outside the worker pool (the original submission of every
//! experiment) and tasks spawned at a level other than the spawner's own.
//! A fork–join, spawned and touched on one worker, never touches a shared
//! injector.
//!
//! Deques and injectors alike are plain `Mutex<VecDeque>` queues, held for a
//! few instructions per push or pop: the owner pops the back of its deque,
//! thieves and injector consumers pop the front.  None of them is a
//! lock-free Chase–Lev deque.
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
//! Within the floor the helper looks in priority order, with its own deque
//! slotted in at its running level L: the injectors *above* L from the top
//! down (a queued ping still preempts a flood), then its own deque, newest
//! first (usually the very child being touched), then the injectors from L
//! down to the floor, then the peers' deques.  Each injector keeps a count
//! of its tasks, so the scan of empty ones on every touch only reads.
//!
//! # Parking
//!
//! A worker with nothing to run parks on a per-runtime condvar
//! (`SharedState::park`).  [`SharedState::push_task`] calls for a wake-up
//! only when the task would otherwise sit unseen: when it comes from outside
//! the pool, or when its queue already held a task.  A single child pushed
//! by a worker is left for that worker, which will touch or pop it next.
//! Even a wake-up call costs only a fence and a read of the parked count
//! when nobody is parked, and the task counters are per-thread slots, so
//! the spawn path writes no cache line another core writes.
//!
//! The master parks too, once a quantum leaves nothing to rebalance and no
//! task is pending anywhere (`SharedState::park_master`).  New work can
//! then only come from outside the pool, so only such a push looks at the
//! master (`SharedState::wake_master`); a worker's spawn never does.

use crate::lock;
use crate::metrics::{thread_ordinal, MetricsCollector, DEFAULT_SHARDS};
use crate::priority::PrioritySet;
use crate::queue::TaskQueue;
use crate::trace::TraceCollector;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
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

/// The queue and scheduler state of one priority level.  Its task and busy
/// counters live in per-thread slots, read through
/// [`SharedState::level_load`].
#[derive(Debug)]
pub struct LevelPool {
    /// The level's injection/overflow queue (see the module docs); pushed
    /// through `SharedState::inject` only, which keeps `queued`.
    injector: TaskQueue<Task>,
    /// Tasks in `injector`, counted before a push and after a pop: zero
    /// means empty, so a helper scanning the injectors on every touch skips
    /// an empty one without writing its lock's cache line.
    queued: AtomicUsize,
    /// The level's desire (number of cores it wants next quantum).
    pub desire: AtomicUsize,
    /// The level's current allotment (cores assigned this quantum).
    pub allotment: AtomicUsize,
    /// The level's busy nanoseconds as of the master's last quantum; only
    /// the master writes it.
    pub(crate) busy_seen: AtomicU64,
}

impl LevelPool {
    fn new() -> Self {
        LevelPool {
            injector: TaskQueue::new(),
            queued: AtomicUsize::new(0),
            desire: AtomicUsize::new(1),
            allotment: AtomicUsize::new(0),
            busy_seen: AtomicU64::new(0),
        }
    }
}

/// What the counter slots say about one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLoad {
    /// Tasks pushed and not yet finished (queued or running).
    pub pending: usize,
    /// Nanoseconds of task execution recorded at the level since start.
    pub busy_nanos: u64,
}

/// The three monotone counters kept per slot and level.
#[derive(Debug, Clone, Copy)]
enum Counter {
    Pushed = 0,
    Finished = 1,
    BusyNanos = 2,
}

/// Counters per line: 128 bytes, padded and aligned like a
/// [`MetricsCollector`] shard, so two slots never share a cache line.
const LINE_CELLS: usize = 16;

#[derive(Debug)]
#[repr(align(128))]
struct CounterLine([AtomicU64; LINE_CELLS]);

/// Per-level task counters, one slot per recording thread (threads map to
/// slots as they do to metrics shards).  Every counter only grows, so a
/// reader sums the slots without stopping the writers.
#[derive(Debug)]
struct LevelCounters {
    lines: Box<[CounterLine]>,
    lines_per_slot: usize,
    slot_mask: usize,
    levels: usize,
}

impl LevelCounters {
    fn new(levels: usize) -> Self {
        let lines_per_slot = (3 * levels).div_ceil(LINE_CELLS);
        let lines = (0..DEFAULT_SHARDS * lines_per_slot)
            .map(|_| CounterLine(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect();
        LevelCounters {
            lines,
            lines_per_slot,
            slot_mask: DEFAULT_SHARDS - 1,
            levels,
        }
    }

    fn cell(&self, slot: usize, counter: Counter, level: usize) -> &AtomicU64 {
        let i = slot * self.lines_per_slot * LINE_CELLS + counter as usize * self.levels + level;
        &self.lines[i / LINE_CELLS].0[i % LINE_CELLS]
    }

    /// Adds `n` to this thread's slot.  Release, so a reader that sees a
    /// task's finish also sees its push.
    fn add(&self, counter: Counter, level: usize, n: u64) {
        self.cell(thread_ordinal() & self.slot_mask, counter, level)
            .fetch_add(n, Ordering::Release);
    }

    fn sum(&self, counter: Counter, level: usize) -> u64 {
        (0..=self.slot_mask)
            .map(|slot| self.cell(slot, counter, level).load(Ordering::Acquire))
            .sum()
    }

    /// Sums the slots for `level`.  Finishes are read before pushes: a task
    /// whose finish is counted has its push counted too, so a task pending
    /// when the reads begin is never missed.
    fn load(&self, level: usize) -> LevelLoad {
        let finished = self.sum(Counter::Finished, level);
        let pushed = self.sum(Counter::Pushed, level);
        LevelLoad {
            pending: pushed.saturating_sub(finished) as usize,
            busy_nanos: self.sum(Counter::BusyNanos, level),
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
    deque: Arc<TaskQueue<Task>>,
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

/// [`SharedState`]'s state flag: the runtime is shutting down.
const SHUTDOWN: u8 = 1;
/// [`SharedState`]'s state flag: the master is parked.
const MASTER_PARKED: u8 = 2;

/// State shared between the public runtime handle, the workers, the master
/// scheduler, and the I/O reactor.
#[derive(Debug)]
pub struct SharedState {
    /// The program's priority levels.
    pub priorities: PrioritySet,
    /// Per-level pools (always one per level, even in oblivious mode).
    pub levels: Vec<LevelPool>,
    /// The single global queue used in oblivious (baseline) mode.
    pub(crate) global: TaskQueue<Task>,
    /// Which strategy is in effect.
    pub kind: PoolKind,
    /// Worker → assigned level index (meaningful in prioritized mode).
    pub assignment: Vec<AtomicUsize>,
    /// Each worker's private deque, as its thieves see it.
    pub(crate) stealers: Vec<Arc<TaskQueue<Task>>>,
    /// The owners' handles on the same deques, taken once by each worker
    /// thread at startup (`None` after being claimed).
    deques: Mutex<Vec<Option<Arc<TaskQueue<Task>>>>>,
    /// [`SHUTDOWN`] once the runtime is shutting down, and [`MASTER_PARKED`]
    /// while the master sleeps in [`SharedState::park_master`].  The two
    /// flags share one byte so that the master's flag moves none of the
    /// fields around it, which the spawn path reads.
    state: AtomicU8,
    /// Workers currently inside [`SharedState::park`].
    parked: AtomicUsize,
    /// Calls to [`SharedState::park`] since start.
    parks: AtomicU64,
    /// The wake epoch: bumped by every wake-up of a parked worker; a parked
    /// worker sleeps until it changes.
    park_lock: Mutex<u64>,
    park_cv: Condvar,
    /// Per-thread task and busy-time counters (see [`LevelLoad`]).
    counters: LevelCounters,
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
        let counters = LevelCounters::new(priorities.len());
        // Initially every worker serves the highest level; the master
        // rebalances at the end of the first quantum.
        let top = priorities.len() - 1;
        let assignment = (0..num_workers).map(|_| AtomicUsize::new(top)).collect();
        let deques: Vec<_> = (0..num_workers)
            .map(|_| Arc::new(TaskQueue::new()))
            .collect();
        let stealers = deques.clone();
        Arc::new(SharedState {
            priorities,
            levels,
            global: TaskQueue::new(),
            kind,
            assignment,
            stealers,
            deques: Mutex::new(deques.into_iter().map(Some).collect()),
            state: AtomicU8::new(0),
            parked: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
            park_lock: Mutex::new(0),
            park_cv: Condvar::new(),
            counters,
            metrics,
            trace,
            num_workers,
        })
    }

    /// Claims worker `worker_id`'s deque and installs it in this thread's
    /// local storage.  Called once by each worker thread at startup.
    pub fn register_current_worker(self: &Arc<Self>, worker_id: usize) {
        let deque = lock(&self.deques).get_mut(worker_id).and_then(Option::take);
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
                self.inject(task);
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

    /// The level of the task of this runtime running on this thread, if any.
    fn running_level(&self) -> Option<usize> {
        RUNNING_LEVEL
            .with(Cell::get)
            .filter(|&(owner, _)| owner == self.addr())
            .map(|(_, level)| level)
    }

    /// Enqueues a task.
    ///
    /// Prioritized mode fast path: when called from a worker thread of this
    /// runtime running a task at the new task's level, the task goes onto
    /// that worker's private deque; otherwise (external submission, or a
    /// spawn at another level) it goes to the level's injection queue.
    /// Oblivious mode always uses the global FIFO.
    ///
    /// A parked worker is woken only for a push from outside the pool or
    /// onto a queue that already held a task (see the module docs).
    /// Returns whether the push came from outside the pool, so the caller
    /// knows to wake a parked master (`SharedState::wake_master`).
    pub fn push_task(&self, task: Task) -> bool {
        let level = task.level.min(self.levels.len() - 1);
        self.counters.add(Counter::Pushed, level, 1);
        let (wake, from_outside) = self.with_local(|local| {
            let queue_was_busy = match local {
                Some(l)
                    if self.kind == PoolKind::Prioritized
                        && self.running_level() == Some(level) =>
                {
                    let busy = !l.deque.is_empty();
                    l.deque.push(task);
                    busy
                }
                _ if self.kind == PoolKind::Prioritized => {
                    let busy = self.levels[level].queued.load(Ordering::Relaxed) > 0;
                    self.inject(task);
                    busy
                }
                _ => {
                    let busy = !self.global.is_empty();
                    self.global.push(task);
                    busy
                }
            };
            (queue_was_busy || local.is_none(), local.is_none())
        });
        if wake {
            self.wake_one();
        }
        from_outside
    }

    /// Wakes one parked worker, if any.  The fence pairs with the one in
    /// [`SharedState::park`]: either this read sees the parker counted, or
    /// the parker's look at the queues sees the task just pushed.  With
    /// nobody parked it writes nothing.
    fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) > 0 {
            let mut epoch = self.park_guard();
            *epoch += 1;
            self.park_cv.notify_one();
        }
    }

    fn park_guard(&self) -> MutexGuard<'_, u64> {
        lock(&self.park_lock)
    }

    /// Whether an injector holds a task, or a worker's deque at least
    /// `min_deque_len` tasks.
    fn queued_work(&self, min_deque_len: usize) -> bool {
        !self.global.is_empty()
            || self
                .levels
                .iter()
                .any(|l| l.queued.load(Ordering::Relaxed) > 0)
            || self.stealers.iter().any(|s| s.len() >= min_deque_len)
    }

    /// Wakes a parked worker when tasks are queued.  Called by a task
    /// blocked in `ftouch` with nothing above its floor to help with: the
    /// queued work below the floor (or a lone child nobody was woken for)
    /// goes to a core that is free to run it.
    pub(crate) fn wake_for_queued_work(&self) {
        if self.queued_work(1) {
            self.wake_one();
        }
    }

    /// Parks the calling worker until a wake-up or shutdown.  Counts itself
    /// parked, then looks at the queues once more and does not sleep while
    /// an injector holds a task or a deque two: a push that raced with the
    /// worker's last look is seen here, or its pusher sees the parked count
    /// and wakes it.  A deque's lone child is left for its spawner, which
    /// runs it next, so it keeps no worker up.
    pub(crate) fn park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        let mut epoch = self.park_guard();
        let seen = *epoch;
        self.parked.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !self.queued_work(2) {
            while *epoch == seen && !self.is_shutting_down() {
                epoch = self
                    .park_cv
                    .wait(epoch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.parked.fetch_sub(1, Ordering::Relaxed);
    }

    /// Parks the master (the calling thread) while no task is pending
    /// anywhere, until [`SharedState::wake_master`] or a shutdown unparks
    /// it.  The master calls this only after a quantum in which nothing
    /// was queued or ran and every desire was already one, so the
    /// rebalances it skips would have changed nothing.  With no task
    /// pending no worker runs one (a task's pushes are counted before its
    /// finish), so new work can only be pushed from outside the pool.
    pub(crate) fn park_master(&self) {
        self.state.fetch_or(MASTER_PARKED, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !self.any_pending() {
            // Parked and not shutting down.
            while self.state.load(Ordering::SeqCst) == MASTER_PARKED {
                std::thread::park();
            }
        }
        self.state.fetch_and(!MASTER_PARKED, Ordering::SeqCst);
    }

    /// Unparks `master`, the master's thread, if it is parked.  Called
    /// after every push from outside the pool: that push ran
    /// [`SharedState::wake_one`]'s fence, which pairs with the one in
    /// [`SharedState::park_master`], so either this read sees the master
    /// parked or the master's pending check sees the task.
    pub(crate) fn wake_master(&self, master: &Thread) {
        if self.state.load(Ordering::Relaxed) & MASTER_PARKED != 0
            && self.state.fetch_and(!MASTER_PARKED, Ordering::SeqCst) & MASTER_PARKED != 0
        {
            master.unpark();
        }
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
        self.running_level()
            .map_or(touched, |level| level.min(touched))
    }

    /// The pop path for worker threads: own deque first (newest-first,
    /// locality), then the worker's assigned level injector, then stealing
    /// from peers serving the highest-allotted levels, then helping the
    /// other level injectors from the highest priority downward.
    pub fn pop_for_worker(&self, worker_id: usize) -> Option<Task> {
        match self.kind {
            PoolKind::Oblivious => self.global.steal(),
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
    /// In prioritized mode, with L the level of the task running on this
    /// thread (or `floor` when none runs): the injectors above L from the
    /// highest priority down, then this worker's own deque newest-first,
    /// then the injectors from L down to `floor`, then the peers' deques.
    /// A task below the floor on the own deque stays there; one stolen from
    /// a peer goes to its level's injector, as a worker's own pop does with
    /// stale backlog.
    pub fn pop_task(&self, floor: usize) -> Option<Task> {
        match self.kind {
            PoolKind::Oblivious => self.global.steal(),
            PoolKind::Prioritized => {
                let top = self.levels.len() - 1;
                let floor = floor.min(top);
                let running = self.running_level().map_or(floor, |l| l.clamp(floor, top));
                (running + 1..=top)
                    .rev()
                    .find_map(|level| self.pop_level(level))
                    .or_else(|| self.pop_own(floor))
                    .or_else(|| {
                        (floor..=running)
                            .rev()
                            .find_map(|level| self.pop_level(level))
                    })
                    .or_else(|| {
                        let own = self.with_local(|local| local.map(|l| l.worker_id));
                        self.steal_from_peers(own, floor)
                    })
            }
        }
    }

    /// Pops the newest task on this thread's own deque if it is at or above
    /// `floor`; a task below it goes back where it was.
    fn pop_own(&self, floor: usize) -> Option<Task> {
        self.with_local(|local| {
            let deque = &local?.deque;
            let task = deque.pop()?;
            if task.level >= floor {
                return Some(task);
            }
            deque.push(task);
            None
        })
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
                if task.level.min(self.levels.len() - 1) == assigned {
                    return Some(task);
                }
                self.inject(task);
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
    /// deques likely hold work the caller may not run).  A stolen task
    /// below the floor goes back to its injector, and the peer is left
    /// alone for this call rather than drained.
    fn steal_from_peers(&self, thief: Option<usize>, floor: usize) -> Option<Task> {
        for level in (floor..self.levels.len()).rev() {
            for (peer, assigned) in self.assignment.iter().enumerate() {
                if Some(peer) == thief || assigned.load(Ordering::Relaxed) != level {
                    continue;
                }
                match self.stealers[peer].steal() {
                    Some(t) if t.level < floor => self.inject(t),
                    Some(t) => {
                        if let (Some(tc), Some(key)) = (&self.trace, t.trace) {
                            tc.record_steal(key);
                        }
                        return Some(t);
                    }
                    None => {}
                }
            }
        }
        None
    }

    /// Pushes `task` onto its level's injector.  `queued` publishes nothing
    /// (the injector's lock hands the task over), hence `Relaxed`; where a
    /// reader must not miss it, in `park`, the SeqCst fences order it.
    fn inject(&self, task: Task) {
        let pool = &self.levels[task.level.min(self.levels.len() - 1)];
        pool.queued.fetch_add(1, Ordering::Relaxed);
        pool.injector.push(task);
    }

    fn pop_level(&self, level: usize) -> Option<Task> {
        let pool = &self.levels[level];
        if pool.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let task = pool.injector.steal()?;
        pool.queued.fetch_sub(1, Ordering::Relaxed);
        Some(task)
    }

    /// Records that `nanos` of work were done for `level`.
    pub fn record_busy(&self, level: usize, nanos: u64) {
        if level < self.levels.len() {
            self.counters.add(Counter::BusyNanos, level, nanos);
        }
    }

    /// Marks a task at `level` as finished (for the pending count).
    pub fn task_finished(&self, level: usize) {
        if level < self.levels.len() {
            self.counters.add(Counter::Finished, level, 1);
        }
    }

    /// The pending task count and cumulative busy time of `level`, summed
    /// over the per-thread counter slots.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_load(&self, level: usize) -> LevelLoad {
        assert!(level < self.levels.len(), "level {level} out of range");
        self.counters.load(level)
    }

    /// Whether any task is pending anywhere.
    pub fn any_pending(&self) -> bool {
        (0..self.levels.len()).any(|level| self.level_load(level).pending > 0)
    }

    /// Signals shutdown to workers, the master, and the reactor, waking
    /// every parked worker.
    pub fn request_shutdown(&self) {
        self.state.fetch_or(SHUTDOWN, Ordering::SeqCst);
        let _guard = self.park_guard();
        self.park_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.load(Ordering::SeqCst) & SHUTDOWN != 0
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

    /// Runs `f` on a fresh thread that is no worker of any runtime.
    fn elsewhere<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|scope| scope.spawn(f).join().expect("helper thread"))
    }

    #[test]
    fn helper_steal_returns_tasks_below_the_floor_to_their_injector() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        // A level-0 task running on worker 0 spawns onto its own deque,
        // whatever the worker's assignment (still the top level here).
        let running = s.enter_level(0);
        s.push_task(task(0, m.clone()));
        drop(running);
        assert_eq!(s.stealers[0].len(), 1);
        // A helper at floor 1 on another thread must not run it: the steal
        // hands it to its injector.
        assert!(elsewhere(|| s.pop_task(1)).is_none());
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[0].injector.len(), 1);
        s.unregister_current_worker();
    }

    #[test]
    fn a_child_goes_on_the_spawners_deque_whatever_the_assignment() {
        let s = SharedState::new(PrioritySet::numeric(4), 2, PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        s.assignment[0].store(3, Ordering::Relaxed);
        let running = s.enter_level(0);
        s.push_task(task(0, m.clone()));
        assert_eq!(s.stealers[0].len(), 1, "the child is on the deque");
        assert!(s.levels[0].injector.is_empty(), "not in the injector");
        // A spawn at another level than the running task's still overflows.
        s.push_task(task(2, m.clone()));
        assert_eq!(s.levels[2].injector.len(), 1);
        drop(running);
        s.unregister_current_worker();
    }

    /// A task that appends `label` to `log` when run.
    fn logging(level: usize, label: &'static str, log: &Arc<Mutex<Vec<&'static str>>>) -> Task {
        let log = Arc::clone(log);
        Task {
            run: Box::new(move || log.lock().unwrap().push(label)),
            level,
            enqueued_at: Instant::now(),
            trace: None,
        }
    }

    #[test]
    fn helping_order_is_higher_injectors_then_own_deque_then_the_rest() {
        let s = SharedState::new(PrioritySet::numeric(3), 2, PoolKind::Prioritized);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Queued from outside: one task below the running level 1, one at
        // it, one above it.
        for (level, label) in [(0, "below"), (1, "level 1"), (2, "above")] {
            s.push_task(logging(level, label, &log));
        }
        s.register_current_worker(0);
        let _running = s.enter_level(1);
        s.push_task(logging(1, "older child", &log));
        s.push_task(logging(1, "newer child", &log));
        while let Some(t) = s.pop_task(1) {
            (t.run)();
        }
        assert_eq!(
            *log.lock().unwrap(),
            ["above", "newer child", "older child", "level 1"]
        );
        assert_eq!(s.levels[0].injector.len(), 1, "below the floor");
        s.unregister_current_worker();
    }

    #[test]
    fn a_task_below_the_floor_stays_on_the_own_deque() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        let running = s.enter_level(0);
        s.push_task(task(0, m.clone()));
        drop(running);
        let _running = s.enter_level(1);
        assert!(s.pop_task(1).is_none());
        assert_eq!(s.stealers[0].len(), 1, "still on the deque");
        assert!(s.levels[0].injector.is_empty());
        assert_eq!(s.pop_task(0).map(|t| t.level), Some(0));
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
    fn injector_counts_follow_every_push_and_pop() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        let counts_match = |s: &SharedState| {
            s.levels
                .iter()
                .all(|l| l.queued.load(Ordering::SeqCst) == l.injector.len())
        };
        s.push_task(task(0, m.clone()));
        s.push_task(task(1, m.clone()));
        assert!(counts_match(&s));
        // Stale backlog re-injected by a reassigned worker, then drained
        // by its exit.
        s.register_current_worker(0);
        let running = s.enter_level(1);
        for _ in 0..3 {
            s.push_task(task(1, m.clone()));
        }
        drop(running);
        s.assignment[0].store(0, Ordering::Relaxed);
        assert_eq!(s.pop_for_worker(0).map(|t| t.level), Some(0));
        assert!(counts_match(&s));
        assert_eq!(s.levels[1].queued.load(Ordering::SeqCst), 4);
        while s.pop_task(0).is_some() {}
        assert!(counts_match(&s));
        assert_eq!(s.levels[1].queued.load(Ordering::SeqCst), 0);
        let running = s.enter_level(1);
        s.push_task(task(1, m.clone()));
        drop(running);
        s.unregister_current_worker();
        assert!(counts_match(&s));
        assert_eq!(s.levels[1].queued.load(Ordering::SeqCst), 1);
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

    /// Polls `cond` for up to ten seconds, failing with `what`.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// An idle master parks instead of waking every quantum; a push from
    /// outside the pool wakes it to rebalance again, and it parks once more
    /// when that work is done.
    #[test]
    fn idle_master_parks_until_work_arrives() {
        use crate::master::{spawn_master, MasterConfig};
        let s = shared(PoolKind::Prioritized);
        let master = spawn_master(
            &s,
            MasterConfig {
                quantum: std::time::Duration::from_millis(1),
                ..MasterConfig::default()
            },
        );
        let parked = || s.state.load(Ordering::SeqCst) & MASTER_PARKED != 0;
        wait_until("the idle master to park", parked);
        // A desire the next re-evaluation would halve: a parked master
        // leaves it alone.
        s.levels[1].desire.store(2, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(parked());
        assert_eq!(s.levels[1].desire.load(Ordering::Relaxed), 2);
        assert!(s.push_task(task(1, Arc::new(AtomicUsize::new(0)))));
        s.wake_master(master.thread());
        assert!(!parked(), "a push from outside the pool wakes the master");
        wait_until("a rebalance after the push", || {
            s.levels[1].desire.load(Ordering::Relaxed) == 1
        });
        let t = s.pop_task(0).expect("the pushed task");
        (t.run)();
        s.task_finished(t.level);
        wait_until("the master to park again", parked);
        s.request_shutdown();
        master.thread().unpark();
        master.join().expect("the master panicked");
    }

    #[test]
    fn busy_accounting_and_shutdown_flag() {
        let s = shared(PoolKind::Prioritized);
        s.record_busy(1, 500);
        // Recorded on another thread, so into another counter slot.
        elsewhere(|| s.record_busy(1, 250));
        assert_eq!(s.level_load(1).busy_nanos, 750);
        assert_eq!(s.level_load(0).busy_nanos, 0);
        assert!(!s.is_shutting_down());
        s.request_shutdown();
        assert!(s.is_shutting_down());
        // A shut-down runtime never parks a worker.
        s.park();
    }

    #[test]
    fn pending_counts_tasks_pushed_on_one_thread_and_finished_on_another() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            s.push_task(task(1, m.clone()));
        }
        assert_eq!(s.level_load(1).pending, 3);
        elsewhere(|| {
            while let Some(t) = s.pop_task(1) {
                s.task_finished(t.level);
            }
        });
        assert_eq!(s.level_load(1).pending, 0);
        assert!(!s.any_pending());
    }

    /// Starts a thread parked on `s`, and returns once it is asleep on the
    /// condvar (it holds the park lock from counting itself parked until
    /// it waits).
    fn parked_thread<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        s: &'scope SharedState,
    ) -> std::thread::ScopedJoinHandle<'scope, ()> {
        let before = s.parked.load(Ordering::SeqCst);
        let handle = scope.spawn(move || s.park());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while s.parked.load(Ordering::SeqCst) == before {
            assert!(Instant::now() < deadline, "the thread never parked");
            std::thread::yield_now();
        }
        drop(s.park_guard());
        handle
    }

    /// Joins a thread from [`parked_thread`], failing (after shutting `s`
    /// down to release it) unless it was woken within 5 s.
    fn assert_woken(s: &SharedState, sleeper: std::thread::ScopedJoinHandle<'_, ()>) {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while !sleeper.is_finished() {
            if Instant::now() >= deadline {
                s.request_shutdown();
                panic!("the parked thread was not woken");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        sleeper.join().unwrap();
    }

    #[test]
    fn only_external_pushes_and_pushes_onto_busy_queues_bump_the_epoch() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        let epoch = || *s.park_guard();
        // Nobody parked: nothing to wake, even from outside the pool.
        s.push_task(task(1, m.clone()));
        assert_eq!(epoch(), 0, "no sleeper, no wake-up");
        let _ = s.pop_task(0);
        std::thread::scope(|scope| {
            // From outside the pool: wakes the sleeper.
            let sleeper = parked_thread(scope, &s);
            assert!(s.push_task(task(1, m.clone())), "pushed from outside");
            assert_woken(&s, sleeper);
            assert_eq!(epoch(), 1);
            let _ = s.pop_task(0);

            s.register_current_worker(0);
            let running = s.enter_level(1);
            // A worker's lone child: left for the worker, so it neither
            // wakes a sleeper nor keeps a worker about to park awake.
            assert!(!s.push_task(task(1, m.clone())), "pushed by a worker");
            let sleeper = parked_thread(scope, &s);
            assert_eq!(epoch(), 1, "a lone child costs no wake-up");
            assert_eq!(s.parked.load(Ordering::SeqCst), 1, "asleep");
            // A second task on the same deque: the sleeper could run it.
            s.push_task(task(1, m.clone()));
            assert_woken(&s, sleeper);
            assert_eq!(epoch(), 2);
            while s.pop_task(1).is_some() {}

            // A spawn at another level goes to that level's injector, by
            // the same rule: a lone one is left, a second one wakes.
            let sleeper = parked_thread(scope, &s);
            s.push_task(task(0, m.clone()));
            assert_eq!(epoch(), 2, "a lone injected task costs no wake-up");
            s.push_task(task(0, m.clone()));
            assert_woken(&s, sleeper);
            assert_eq!(epoch(), 3);
            drop(running);
            s.unregister_current_worker();
        });
    }

    /// The other half of the lost-wake-up check: a task whose push found
    /// nobody parked keeps a worker that is about to park awake.
    #[test]
    fn a_worker_does_not_park_while_a_woken_for_task_is_queued() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        // Pushed from outside: in an injector.
        s.push_task(task(0, m.clone()));
        elsewhere(|| s.park());
        let _ = s.pop_task(0);
        // A second child on a worker's deque.
        s.register_current_worker(0);
        let running = s.enter_level(1);
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        drop(running);
        elsewhere(|| s.park());
        assert_eq!(s.parks(), 2);
        assert_eq!(*s.park_guard(), 0, "nobody was parked to wake");
        s.unregister_current_worker();
    }

    #[test]
    fn worker_local_spawn_uses_private_deque_and_is_stealable() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        // Pretend this test thread is worker 0, running a level-1 task.
        s.register_current_worker(0);
        let running = s.enter_level(1);
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        drop(running);
        // The tasks went to worker 0's deque, not the injector.
        assert!(s.levels[1].injector.is_empty());
        assert_eq!(s.stealers[0].len(), 2);
        // The owner pops newest-first from its own deque.
        assert!(s.pop_for_worker(0).is_some());
        assert_eq!(s.stealers[0].len(), 1);
        // A helper on another thread can steal the remainder.
        let stolen = elsewhere(|| s.pop_task(0));
        assert!(stolen.is_some());
        assert_eq!(s.stealers[0].len(), 0);
        s.unregister_current_worker();
    }

    #[test]
    fn spawn_at_other_level_overflows_to_injector() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        // A level-1 task's level-0 spawn must not hide in the deque: a
        // worker looking for level-0 work would not find it there first.
        let running = s.enter_level(1);
        s.push_task(task(0, m.clone()));
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[0].injector.len(), 1);
        // Nor does a push from a worker thread outside any task.
        drop(running);
        s.push_task(task(1, m.clone()));
        assert_eq!(s.stealers[0].len(), 0);
        assert_eq!(s.levels[1].injector.len(), 1);
        s.unregister_current_worker();
    }

    #[test]
    fn unregister_drains_deque_back_to_injectors() {
        let s = shared(PoolKind::Prioritized);
        let m = Arc::new(AtomicUsize::new(0));
        s.register_current_worker(0);
        let running = s.enter_level(1);
        s.push_task(task(1, m.clone()));
        drop(running);
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
        let running = s.enter_level(1);
        s.push_task(task(1, m.clone()));
        s.push_task(task(1, m.clone()));
        drop(running);
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
