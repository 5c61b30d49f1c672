//! The public I-Cilk runtime.

use crate::future::{IFuture, PriorityCtx, TypedFuture};
use crate::io_future::IoReactor;
use crate::master::{spawn_master, MasterConfig};
use crate::metrics::MetricsSnapshot;
use crate::pool::{PoolKind, SharedState, Task};
use crate::priority::{OutranksOrEqual, PriorityLevel, PrioritySet};
use crate::trace::{TaskScope, TraceBatch, TraceCollector, TraceStats};
use crate::worker::{execute_task, spawn_workers};
use rp_core::trace::ExecutionTrace;
use rp_priority::Priority;
use rp_sim::latency::LatencyModel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which scheduler the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The full I-Cilk scheduler: per-level pools plus the two-level adaptive
    /// master.
    ICilk,
    /// The priority-oblivious baseline standing in for Cilk-F: a single FIFO
    /// pool, no master.
    Baseline,
}

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Number of priority levels (lowest = 0).
    pub levels: usize,
    /// Optional names for the levels, lowest first.
    pub level_names: Option<Vec<String>>,
    /// Scheduler flavour.
    pub scheduler: SchedulerKind,
    /// Master scheduler parameters (quantum, utilization threshold, γ).
    pub master: MasterConfig,
    /// Latency model for simulated I/O.
    pub io_latency: LatencyModel,
    /// Seed for the I/O latency sampler.
    pub io_seed: u64,
    /// Whether to record an execution trace (see [`crate::trace`]).
    pub tracing: bool,
    /// Per-shard event capacity of the trace collector (see
    /// [`crate::trace::DEFAULT_TRACE_CAPACITY`]).  Overflowing events are
    /// dropped and counted, never silently lost.
    pub trace_capacity: usize,
}

impl RuntimeConfig {
    /// A configuration with the given number of workers and priority levels,
    /// using the I-Cilk scheduler and the paper's default master parameters
    /// (500µs quantum, 90% utilization threshold, γ = 2).
    pub fn new(workers: usize, levels: usize) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
            levels: levels.max(1),
            level_names: None,
            scheduler: SchedulerKind::ICilk,
            master: MasterConfig::default(),
            io_latency: LatencyModel::Uniform { lo: 200, hi: 2_000 },
            io_seed: 0xC11F,
            tracing: false,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
        }
    }

    /// A configuration whose levels mirror a λ⁴ᵢ
    /// [`PriorityDomain`](rp_priority::PriorityDomain): one
    /// runtime level per domain level, named after it, ordered by a
    /// topological sort of the domain's `⪯` (lowest first).
    ///
    /// This is the compilation hook for language front ends: a partial
    /// order is linearised (the runtime's pools are totally ordered), which
    /// is a legal scheduling refinement — every `⪯` fact of the domain is
    /// preserved by the embedding.  The caller maps a domain handle to the
    /// runtime level via the topological position.
    pub fn for_domain(workers: usize, domain: &rp_priority::PriorityDomain) -> Self {
        let names: Vec<String> = domain
            .topo_sorted()
            .into_iter()
            .map(|p| domain.name(p).to_string())
            .collect();
        RuntimeConfig::new(workers, names.len()).with_level_names(names)
    }

    /// Names the priority levels, lowest first.
    ///
    /// # Panics
    ///
    /// Panics if the number of names differs from `levels`.
    pub fn with_level_names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert_eq!(names.len(), self.levels, "one name per priority level");
        self.level_names = Some(names);
        self
    }

    /// Selects the scheduler flavour.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Overrides the master scheduler parameters.
    pub fn with_master(mut self, master: MasterConfig) -> Self {
        self.master = master;
        self
    }

    /// Overrides the simulated I/O latency model.
    pub fn with_io_latency(mut self, model: LatencyModel, seed: u64) -> Self {
        self.io_latency = model;
        self.io_seed = seed;
        self
    }

    /// Enables or disables execution tracing.  Traced runtimes record every
    /// spawn, run span, steal, touch, and I/O event;
    /// [`Runtime::trace_snapshot`] returns the merged log.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Sets the per-shard event capacity of the trace collector (minimum 1).
    /// Post-hoc runs may want it large; drained streaming runs keep buffers
    /// small and can afford less.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity.max(1);
        self
    }
}

/// The I-Cilk runtime: a fixed set of workers, per-priority pools, the
/// adaptive master (unless running the baseline), and the simulated-I/O
/// reactor.
#[derive(Debug)]
pub struct Runtime {
    shared: Arc<SharedState>,
    reactor: IoReactor,
    workers: Vec<JoinHandle<()>>,
    master: Option<JoinHandle<()>>,
    started_at: Instant,
}

impl Runtime {
    /// Starts the runtime.
    ///
    /// # Example
    ///
    /// Two priority levels, background below interactive — the paper's
    /// motivating server shape:
    ///
    /// ```
    /// use rp_icilk::runtime::{Runtime, RuntimeConfig};
    ///
    /// let rt = Runtime::start(
    ///     RuntimeConfig::new(2, 2).with_level_names(["background", "interactive"]),
    /// );
    /// assert_eq!(rt.priorities().len(), 2);
    /// rt.shutdown();
    /// ```
    pub fn start(config: RuntimeConfig) -> Self {
        let priorities = match &config.level_names {
            Some(names) => PrioritySet::new(names.clone()),
            None => PrioritySet::numeric(config.levels),
        };
        let kind = match config.scheduler {
            SchedulerKind::ICilk => PoolKind::Prioritized,
            SchedulerKind::Baseline => PoolKind::Oblivious,
        };
        let trace = config.tracing.then(|| {
            let names = (0..priorities.len())
                .map(|i| priorities.domain().name(priorities.by_index(i)).to_string())
                .collect();
            Arc::new(TraceCollector::with_capacity(
                names,
                config.workers,
                config.trace_capacity,
            ))
        });
        let shared = SharedState::new_with_trace(priorities, config.workers, kind, trace);
        let workers = spawn_workers(&shared);
        let master = match config.scheduler {
            SchedulerKind::ICilk => Some(spawn_master(&shared, config.master)),
            SchedulerKind::Baseline => None,
        };
        let reactor = IoReactor::start(config.io_latency, config.io_seed);
        Runtime {
            shared,
            reactor,
            workers,
            master,
            started_at: Instant::now(),
        }
    }

    /// The runtime's priority levels.
    pub fn priorities(&self) -> &PrioritySet {
        &self.shared.priorities
    }

    /// Looks up a priority level by name.
    pub fn priority_by_name(&self, name: &str) -> Option<Priority> {
        self.shared.priorities.by_name(name)
    }

    /// The priority level with the given index (0 = lowest), or `None` when
    /// the index is out of range.
    pub fn priority_by_index(&self, index: usize) -> Option<Priority> {
        self.shared.priorities.get(index)
    }

    /// `fcreate`: spawns `body` as a task at `priority` and returns its
    /// future.
    ///
    /// # Example
    ///
    /// A background task publishes progress through shared state while an
    /// interactive request reads it and answers immediately — communication
    /// through mutable state, no touch of the low-priority future:
    ///
    /// ```
    /// use rp_icilk::runtime::{Runtime, RuntimeConfig};
    /// use std::sync::{Arc, Mutex};
    ///
    /// let rt = Runtime::start(
    ///     RuntimeConfig::new(2, 2).with_level_names(["background", "interactive"]),
    /// );
    /// let background = rt.priority_by_name("background").unwrap();
    /// let interactive = rt.priority_by_name("interactive").unwrap();
    ///
    /// let progress = Arc::new(Mutex::new(0u64));
    /// let progress_bg = Arc::clone(&progress);
    /// let _optimizer = rt.fcreate(background, move || {
    ///     *progress_bg.lock().unwrap() = 42;
    /// });
    /// let progress_fg = Arc::clone(&progress);
    /// let request = rt.fcreate(interactive, move || *progress_fg.lock().unwrap());
    /// // The request answers regardless of how far the optimizer got.
    /// let _seen = rt.ftouch_blocking(&request);
    ///
    /// // Touching the *background* future from interactive code would be a
    /// // priority inversion; the dynamically-checked API refuses it:
    /// let low = rt.fcreate(background, || 7);
    /// assert!(rt.try_ftouch(interactive, &low).is_err());
    /// assert_eq!(rt.try_ftouch(background, &low).unwrap(), 7);
    /// rt.shutdown();
    /// ```
    pub fn fcreate<T, F>(&self, priority: Priority, body: F) -> IFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let future = IFuture::new(priority);
        let completion = future.clone();
        let level = priority.index();
        let run: Box<dyn FnOnce() + Send + 'static> = match &self.shared.trace {
            Some(tc) => {
                let key = tc.record_spawn(level);
                future.set_trace_key(key);
                let tc = Arc::clone(tc);
                Box::new(move || {
                    let scope = TaskScope::enter(&tc, key);
                    let value = body();
                    // End the run span before fulfilling the future, so
                    // every recorded touch of the value is timestamped after
                    // the task's end event.
                    drop(scope);
                    completion.complete(value);
                })
            }
            None => Box::new(move || completion.complete(body())),
        };
        let trace = future.trace_key();
        let from_outside = self.shared.push_task(Task {
            run,
            level,
            enqueued_at: Instant::now(),
            trace,
        });
        if from_outside {
            self.wake_master();
        }
        future
    }

    /// Wakes the master if it parked for want of work.  Kept out of line:
    /// a worker's spawn never calls it.
    #[cold]
    fn wake_master(&self) {
        if let Some(master) = &self.master {
            self.shared.wake_master(master.thread());
        }
    }

    /// `fcreate` with a compile-time priority level: the returned
    /// [`TypedFuture`] can only be touched from code whose level it outranks
    /// or equals.
    pub fn fcreate_typed<T, P, F>(&self, body: F) -> TypedFuture<T, P>
    where
        T: Send + 'static,
        P: PriorityLevel,
        F: FnOnce() -> T + Send + 'static,
    {
        let priority = self
            .shared
            .priorities
            .by_index(P::INDEX.min(self.shared.priorities.len() - 1));
        TypedFuture::wrap(self.fcreate(priority, body))
    }

    /// `ftouch` from inside a task: waits for the future, executing other
    /// ready tasks while it is not yet available.
    ///
    /// Helping is bounded by a priority floor: a task at level L touching a
    /// future at level F runs only queued tasks at level ≥ min(L, F), so a
    /// blocked high-priority task never runs lower-priority work on its own
    /// stack (the `min` still lets an untyped inversion run the task it
    /// waits for).  Within the floor it runs queued tasks above L first,
    /// then its worker's own deque newest-first — usually the child being
    /// touched — then the rest (see [`crate::pool`]).  A caller that is not
    /// running a task of this runtime helps only at or above F.  With
    /// nothing eligible queued, the caller wakes a parked worker for any
    /// queued work below the floor and waits on the future.  The baseline
    /// scheduler helps without a floor.
    ///
    /// # Example
    ///
    /// A fork–join inside a task: the outer task helps run other work while
    /// waiting on its child (threads outside the runtime use
    /// [`Runtime::ftouch_blocking`] instead):
    ///
    /// ```
    /// use rp_icilk::runtime::{Runtime, RuntimeConfig};
    /// use std::sync::Arc;
    ///
    /// let rt = Arc::new(Runtime::start(RuntimeConfig::new(2, 1)));
    /// let p = rt.priority_by_index(0).unwrap();
    /// let rt2 = Arc::clone(&rt);
    /// let outer = rt.fcreate(p, move || {
    ///     let inner = rt2.fcreate(p, || 21u64);
    ///     rt2.ftouch(&inner) * 2
    /// });
    /// assert_eq!(rt.ftouch_blocking(&outer), 42);
    /// // The task closure drops its clone of `rt` shortly after completing.
    /// let mut rt = rt;
    /// loop {
    ///     match Arc::try_unwrap(rt) {
    ///         Ok(owned) => break owned.shutdown(),
    ///         Err(shared) => {
    ///             rt = shared;
    ///             std::thread::sleep(std::time::Duration::from_millis(1));
    ///         }
    ///     }
    /// }
    /// ```
    pub fn ftouch<T: Clone + Send + 'static>(&self, future: &IFuture<T>) -> T {
        let floor = self.shared.help_floor(future.priority().index());
        let value = loop {
            if let Some(v) = future.try_get() {
                break v;
            }
            match self.shared.pop_task(floor) {
                Some(task) => execute_task(&self.shared, task),
                None => {
                    self.shared.wake_for_queued_work();
                    if let Some(v) = future.wait_clone_timeout(Duration::from_micros(200)) {
                        break v;
                    }
                }
            }
        };
        self.record_touch(future);
        value
    }

    /// `ftouch` with the compile-time priority-inversion check: only
    /// compiles when the touched level outranks or equals the toucher's
    /// level (`Touched: OutranksOrEqual<Toucher>`), the Rust rendering of the
    /// paper's `static_assert(is_base_of<...>)`.
    pub fn ftouch_typed<T, Touched, Toucher>(
        &self,
        _at: PriorityCtx<Toucher>,
        future: &TypedFuture<T, Touched>,
    ) -> T
    where
        T: Clone + Send + 'static,
        Toucher: PriorityLevel,
        Touched: OutranksOrEqual<Toucher>,
    {
        self.ftouch(future.untyped())
    }

    /// Runtime-checked `ftouch`: returns an error instead of touching when
    /// the touch would invert priorities.  This is the dynamically-checked
    /// fallback for call sites where the priority is not statically known.
    pub fn try_ftouch<T: Clone + Send + 'static>(
        &self,
        at: Priority,
        future: &IFuture<T>,
    ) -> Result<T, PriorityInversion> {
        if !self.shared.priorities.touch_allowed(at, future.priority()) {
            return Err(PriorityInversion {
                toucher: at,
                touched: future.priority(),
            });
        }
        Ok(self.ftouch(future))
    }

    /// Blocking `ftouch` for threads outside the runtime (e.g. the test
    /// driver): parks the calling thread until the value is ready.
    pub fn ftouch_blocking<T: Clone + Send + 'static>(&self, future: &IFuture<T>) -> T {
        let value = future.wait_clone();
        self.record_touch(future);
        value
    }

    /// Records an `ftouch` event when tracing is on and the future belongs
    /// to a traced task.
    fn record_touch<T>(&self, future: &IFuture<T>) {
        if let (Some(tc), Some(key)) = (&self.shared.trace, future.trace_key()) {
            tc.record_touch(key);
        }
    }

    /// Starts a simulated I/O operation (`cilk_read` / `cilk_write`): the
    /// payload is produced after a latency drawn from the configured model,
    /// without occupying any worker.
    pub fn submit_io<T, F>(&self, priority: Priority, produce: F) -> IFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let latency = self.reactor.sample_latency();
        self.submit_io_with_latency(priority, latency, produce)
    }

    /// Starts a simulated I/O operation with an explicit latency.
    pub fn submit_io_with_latency<T, F>(
        &self,
        priority: Priority,
        latency: Duration,
        produce: F,
    ) -> IFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match &self.shared.trace {
            Some(tc) => {
                let key = tc.record_io_submit(priority.index());
                let tc = Arc::clone(tc);
                let future = self.reactor.submit(priority, latency, move || {
                    let value = produce();
                    // Recorded before the future is fulfilled, so touches of
                    // the payload are timestamped after the completion.
                    tc.record_io_complete(key);
                    value
                });
                future.set_trace_key(key);
                future
            }
            None => self.reactor.submit(priority, latency, produce),
        }
    }

    /// Starts an I/O operation that the reactor performs **as soon as
    /// possible** (zero simulated latency): `produce` runs on the reactor
    /// thread, not on a worker, and its cost is whatever the real side
    /// effect costs.
    ///
    /// This is the hook for *real* I/O back ends: `rp_net` fulfils network
    /// responses through it, so the socket write happens off the workers and
    /// a traced run reconstructs the round-trip as an I/O thread in the cost
    /// DAG (exactly like the simulated `cilk_read` / `cilk_write` paths).
    ///
    /// Keep `produce` short — the reactor is a single thread, so a slow
    /// completion delays every other pending I/O behind it.
    pub fn submit_io_now<T, F>(&self, priority: Priority, produce: F) -> IFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_io_with_latency(priority, Duration::ZERO, produce)
    }

    /// A snapshot of the per-level response/compute statistics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// A snapshot of the execution trace, or `None` when the runtime was
    /// started without tracing.  Take it after [`Runtime::drain`] so every
    /// spawned task has completed and reconstruction skips nothing.
    pub fn trace_snapshot(&self) -> Option<ExecutionTrace> {
        self.shared.trace.as_ref().map(|tc| tc.snapshot())
    }

    /// Drains the trace buffers, returning only the events recorded since
    /// the previous drain, or `None` when the runtime was started without
    /// tracing.  This is the streaming counterpart of
    /// [`Runtime::trace_snapshot`]: each call is O(new events) and frees the
    /// buffer space it consumed, so a long-running service can trace forever
    /// in bounded memory.  Don't mix the two styles on one run — a snapshot
    /// taken after a drain only sees the not yet drained remainder.
    pub fn drain_trace_events(&self) -> Option<TraceBatch> {
        self.shared.trace.as_ref().map(|tc| tc.drain())
    }

    /// The trace collector's cumulative counters (recorded / drained /
    /// dropped / buffered), or `None` when tracing is off.
    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.shared.trace.as_ref().map(|tc| tc.stats())
    }

    /// The traced runtime's `(level names, worker count)` — what a streaming
    /// consumer needs to configure its reconstructor without snapshotting
    /// the event buffers.  `None` when tracing is off.
    pub fn trace_topology(&self) -> Option<(Vec<String>, usize)> {
        self.shared
            .trace
            .as_ref()
            .map(|tc| (tc.level_names().to_vec(), tc.num_workers()))
    }

    /// Time since the runtime started.
    pub fn uptime(&self) -> Duration {
        self.started_at.elapsed()
    }

    /// What [`drain`](Self::drain) waits on: the tasks pushed and not yet
    /// finished at each level (lowest first), and the simulated-I/O
    /// operations the reactor has not completed.  For diagnosing a drain
    /// that timed out.
    pub fn pending_work(&self) -> (Vec<usize>, usize) {
        let per_level = (0..self.shared.levels.len())
            .map(|level| self.shared.level_load(level).pending)
            .collect();
        (per_level, self.reactor.pending_ops())
    }

    /// Waits (bounded by `timeout`) until no tasks are pending **and** no
    /// simulated-I/O operations are still in flight.  Returns whether the
    /// runtime drained in time.
    ///
    /// I/O futures never occupy a worker, so they are not counted by the
    /// per-level pending counters; draining used to ignore them and could
    /// report an empty runtime while submitted operations were still waiting
    /// on the reactor — see the `drain_waits_for_in_flight_io` regression
    /// test.
    ///
    /// The wait backs off from 16 yields to sleeps of 25, 50, 100 and then
    /// 200 µs: a caller that has just touched the last future usually finds
    /// its task still finishing on a worker, and a 200 µs sleep at the first
    /// look would cost far more than that task's tail.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        for look in 0u32.. {
            if !self.shared.any_pending() && self.reactor.pending_ops() == 0 {
                break;
            }
            if Instant::now() >= deadline {
                return false;
            }
            match look.checked_sub(16) {
                None => std::thread::yield_now(),
                Some(k) => std::thread::sleep(Duration::from_micros(25 << k.min(3))),
            }
        }
        true
    }

    /// Shuts the runtime down, joining all of its threads.
    ///
    /// Called on one of the runtime's own workers (a task dropping the last
    /// handle), it joins every other thread and leaves that worker to exit
    /// its loop once the task returns: a thread cannot join itself.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.request_shutdown();
        // The master waits out its quantum in a timed park; end it now.
        if let Some(h) = &self.master {
            h.thread().unpark();
        }
        self.reactor.shutdown();
        let me = std::thread::current().id();
        for h in self.workers.drain(..).chain(self.master.take()) {
            if h.thread().id() != me {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.shared.is_shutting_down() {
            self.shutdown_in_place();
        }
    }
}

/// The error returned by [`Runtime::try_ftouch`] when the touch would invert
/// priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityInversion {
    /// The priority of the code performing the touch.
    pub toucher: Priority,
    /// The (lower) priority of the touched future.
    pub touched: Priority,
}

impl std::fmt::Display for PriorityInversion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "priority inversion: code at {} may not ftouch a future at {}",
            self.toucher, self.touched
        )
    }
}

impl std::error::Error for PriorityInversion {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::define_priorities;
    use crate::future::PriorityCtx;
    use rp_core::trace::TraceEvent;
    use std::sync::atomic::{AtomicBool, Ordering};

    define_priorities!(Bg, Ui);

    fn runtime(kind: SchedulerKind) -> Runtime {
        Runtime::start(
            RuntimeConfig::new(2, 2)
                .with_level_names(["bg", "ui"])
                .with_scheduler(kind)
                .with_io_latency(LatencyModel::Constant { micros: 500 }, 1),
        )
    }

    #[test]
    fn fcreate_and_ftouch_roundtrip() {
        let rt = runtime(SchedulerKind::ICilk);
        let ui = rt.priority_by_name("ui").unwrap();
        let f = rt.fcreate(ui, || (1..=10).sum::<u64>());
        assert_eq!(rt.ftouch_blocking(&f), 55);
        rt.shutdown();
    }

    #[test]
    fn nested_spawns_and_helping_touch() {
        let rt = Arc::new(runtime(SchedulerKind::ICilk));
        let ui = rt.priority_by_name("ui").unwrap();
        let rt2 = Arc::clone(&rt);
        let outer = rt.fcreate(ui, move || {
            let inner = rt2.fcreate(ui, || 21u64);
            rt2.ftouch(&inner) * 2
        });
        assert_eq!(rt.ftouch_blocking(&outer), 42);
        shutdown_shared(rt);
    }

    #[test]
    fn typed_api_compiles_for_legal_touches() {
        let rt = runtime(SchedulerKind::ICilk);
        let f: TypedFuture<u32, Ui> = rt.fcreate_typed(|| 7);
        // Background code touching UI work is allowed (Ui outranks Bg)...
        let v = rt.ftouch_typed(PriorityCtx::<Bg>::new(), &f);
        assert_eq!(v, 7);
        // ...and UI touching UI is allowed too.
        let g: TypedFuture<u32, Ui> = rt.fcreate_typed(|| 9);
        assert_eq!(rt.ftouch_typed(PriorityCtx::<Ui>::new(), &g), 9);
        // `rt.ftouch_typed(PriorityCtx::<Ui>::new(), &bg_future)` would be a
        // compile error — the inversion the type system prevents.
        rt.shutdown();
    }

    #[test]
    fn dynamic_priority_check_rejects_inversion() {
        let rt = runtime(SchedulerKind::ICilk);
        let bg = rt.priority_by_name("bg").unwrap();
        let ui = rt.priority_by_name("ui").unwrap();
        let low = rt.fcreate(bg, || 1u32);
        let err = rt.try_ftouch(ui, &low).unwrap_err();
        assert_eq!(err.toucher, ui);
        assert!(err.to_string().contains("priority inversion"));
        // The legal direction succeeds.
        let hi = rt.fcreate(ui, || 2u32);
        assert_eq!(rt.try_ftouch(bg, &hi).unwrap(), 2);
        rt.shutdown();
    }

    #[test]
    fn io_futures_do_not_occupy_workers() {
        let rt = runtime(SchedulerKind::ICilk);
        let ui = rt.priority_by_name("ui").unwrap();
        // Start an I/O with a long latency, then immediately get CPU work
        // done: the workers are not blocked by the in-flight I/O.
        let io = rt.submit_io_with_latency(ui, Duration::from_millis(50), || 99u64);
        let cpu = rt.fcreate(ui, || 123u64);
        let started = Instant::now();
        assert_eq!(rt.ftouch_blocking(&cpu), 123);
        assert!(started.elapsed() < Duration::from_millis(40));
        assert_eq!(rt.ftouch_blocking(&io), 99);
        rt.shutdown();
    }

    #[test]
    fn metrics_accumulate_per_level() {
        let rt = runtime(SchedulerKind::ICilk);
        let bg = rt.priority_by_name("bg").unwrap();
        let ui = rt.priority_by_name("ui").unwrap();
        let fs: Vec<_> = (0..8)
            .map(|i| {
                let p = if i % 2 == 0 { bg } else { ui };
                rt.fcreate(p, move || i)
            })
            .collect();
        for f in &fs {
            let _ = rt.ftouch_blocking(f);
        }
        assert!(rt.drain(Duration::from_secs(2)));
        let m = rt.metrics();
        assert_eq!(m.total_completed(), 8);
        assert_eq!(m.completed, vec![4, 4]);
        assert!(m.mean_response_micros(1).is_some());
        rt.shutdown();
    }

    /// Regression test: `priority_by_index` used to panic on an
    /// out-of-range index; it now returns `None`.
    #[test]
    fn priority_by_index_is_checked() {
        let rt = runtime(SchedulerKind::ICilk);
        assert_eq!(rt.priority_by_index(0), rt.priority_by_name("bg"));
        assert_eq!(rt.priority_by_index(1), rt.priority_by_name("ui"));
        assert_eq!(rt.priority_by_index(2), None);
        assert_eq!(rt.priority_by_index(usize::MAX), None);
        rt.shutdown();
    }

    /// `submit_io_now` completes promptly, off the workers, and is visible
    /// to `drain` like any other I/O.
    #[test]
    fn submit_io_now_completes_promptly_on_the_reactor() {
        let rt = runtime(SchedulerKind::ICilk);
        let ui = rt.priority_by_name("ui").unwrap();
        let ran_on = Arc::new(std::sync::Mutex::new(String::new()));
        let ran_on2 = Arc::clone(&ran_on);
        let started = Instant::now();
        let f = rt.submit_io_now(ui, move || {
            *ran_on2.lock().unwrap() = std::thread::current().name().unwrap_or("?").to_string();
            17u32
        });
        assert_eq!(rt.ftouch_blocking(&f), 17);
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "zero-latency I/O took {:?}",
            started.elapsed()
        );
        assert_eq!(&*ran_on.lock().unwrap(), "icilk-io-reactor");
        assert!(rt.drain(Duration::from_secs(2)));
        rt.shutdown();
    }

    /// Regression test: I/O futures never occupy a worker, so `drain` used
    /// to ignore them entirely — it returned `true` immediately while a
    /// just-submitted operation was still waiting on the reactor.  A
    /// successful drain must now imply every submitted I/O has completed.
    #[test]
    fn drain_waits_for_in_flight_io() {
        let rt = runtime(SchedulerKind::ICilk);
        let ui = rt.priority_by_name("ui").unwrap();
        let io = rt.submit_io_with_latency(ui, Duration::from_millis(50), || 5u32);
        let started = Instant::now();
        assert!(rt.drain(Duration::from_secs(5)), "drain must finish");
        assert!(
            io.is_ready(),
            "a drained runtime has no I/O still in flight"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(45),
            "drain returned in {:?}, before the 50 ms I/O completed",
            started.elapsed()
        );
        rt.shutdown();
    }

    /// Tracing end-to-end: a traced runtime's snapshot reconstructs into a
    /// well-formed cost graph whose bound reports carry no counterexample.
    #[test]
    fn traced_runtime_reconstructs_cost_dag() {
        let rt = Arc::new(Runtime::start(
            RuntimeConfig::new(1, 2)
                .with_level_names(["bg", "ui"])
                .with_tracing(true)
                .with_io_latency(LatencyModel::Constant { micros: 300 }, 9),
        ));
        let ui = rt.priority_by_name("ui").unwrap();
        let rt2 = Arc::clone(&rt);
        let outer = rt.fcreate(ui, move || {
            let inner = rt2.fcreate(ui, || 2u64);
            let io = rt2.submit_io(ui, || 3u64);
            rt2.ftouch(&inner) + rt2.ftouch(&io)
        });
        assert_eq!(rt.ftouch_blocking(&outer), 5);
        assert!(rt.drain(Duration::from_secs(5)));
        let trace = rt.trace_snapshot().expect("tracing was enabled");
        assert!(!trace.events.is_empty());
        assert_eq!(trace.level_names, vec!["bg".to_string(), "ui".to_string()]);
        let run = trace.reconstruct().expect("trace reconstructs");
        // outer + inner + the I/O future.
        assert_eq!(run.dag.thread_count(), 3);
        assert_eq!(run.skipped, 0);
        assert!(rp_core::wellformed::check_well_formed(&run.dag).is_ok());
        run.schedule
            .validate(&run.dag)
            .expect("observed schedule valid");
        assert!(run.schedule.is_admissible(&run.dag));
        for report in run.check_observed() {
            assert!(!report.report.is_counterexample(), "{report:?}");
        }
        // An untraced runtime has no snapshot.
        let plain = runtime(SchedulerKind::ICilk);
        assert!(plain.trace_snapshot().is_none());
        plain.shutdown();
        shutdown_shared(rt);
    }

    fn one_worker_lo_hi() -> (Arc<Runtime>, Priority, Priority) {
        let rt = Arc::new(Runtime::start(
            RuntimeConfig::new(1, 2).with_level_names(["lo", "hi"]),
        ));
        let lo = rt.priority_by_name("lo").unwrap();
        let hi = rt.priority_by_name("hi").unwrap();
        (rt, lo, hi)
    }

    /// Waits to be the sole owner of a runtime whose task closures still
    /// hold clones of the handle, then shuts it down.
    fn shutdown_shared(mut rt: Arc<Runtime>) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Arc::try_unwrap(rt) {
                Ok(owned) => return owned.shutdown(),
                Err(shared) if Instant::now() < deadline => {
                    rt = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => panic!("a task still holds the runtime handle"),
            }
        }
    }

    /// Regression test for the help rule: a blocked `ftouch` used to pop any
    /// queued level, so a high-priority task waiting on its own child ran a
    /// queued low-priority task on its stack first.
    #[test]
    fn blocked_high_touch_never_runs_queued_low_work() {
        let (rt, lo, hi) = one_worker_lo_hi();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (rt2, order2) = (Arc::clone(&rt), Arc::clone(&order));
        let outer = rt.fcreate(hi, move || {
            let order_lo = Arc::clone(&order2);
            let _background = rt2.fcreate(lo, move || order_lo.lock().unwrap().push("lo started"));
            let child = rt2.fcreate(hi, || 2u64);
            let v = rt2.ftouch(&child);
            order2.lock().unwrap().push("hi finished");
            v
        });
        assert_eq!(outer.wait_clone_timeout(Duration::from_secs(5)), Some(2));
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(*order.lock().unwrap(), vec!["hi finished", "lo started"]);
        shutdown_shared(rt);
    }

    /// The floor is min(toucher, touched): touching a lower-level future
    /// through the untyped API still runs it, even with one worker.
    #[test]
    fn untyped_touch_of_lower_level_future_completes_on_one_worker() {
        let (rt, lo, hi) = one_worker_lo_hi();
        let rt2 = Arc::clone(&rt);
        let outer = rt.fcreate(hi, move || {
            let low = rt2.fcreate(lo, || 3u64);
            rt2.ftouch(&low) * 2
        });
        assert_eq!(outer.wait_clone_timeout(Duration::from_secs(5)), Some(6));
        shutdown_shared(rt);
    }

    /// Work-first helping order: a task blocked on its own child first runs
    /// a queued higher-priority task, then the child from its own deque.
    #[test]
    fn blocked_touch_runs_a_queued_higher_task_before_its_own_child() {
        let (rt, lo, hi) = one_worker_lo_hi();
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (rt2, order2) = (Arc::clone(&rt), Arc::clone(&order));
        let outer = rt.fcreate(lo, move || {
            let order_child = Arc::clone(&order2);
            let child = rt2.fcreate(lo, move || order_child.lock().unwrap().push("child"));
            let order_hi = Arc::clone(&order2);
            let _ping = rt2.fcreate(hi, move || order_hi.lock().unwrap().push("hi"));
            rt2.ftouch(&child);
            order2.lock().unwrap().push("outer");
        });
        assert_eq!(outer.wait_clone_timeout(Duration::from_secs(5)), Some(()));
        assert!(rt.drain(Duration::from_secs(5)));
        assert_eq!(*order.lock().unwrap(), vec!["hi", "child", "outer"]);
        shutdown_shared(rt);
    }

    /// A binary fork–join tree of `depth` levels summing its leaves.
    fn tree(rt: &Arc<Runtime>, p: Priority, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let rt2 = Arc::clone(rt);
        let left = rt.fcreate(p, move || tree(&rt2, p, depth - 1));
        let right = tree(rt, p, depth - 1);
        rt.ftouch(&left) + right
    }

    /// Lost wake-up regression test: every tree is submitted to a runtime
    /// whose workers have just run out of work and park, so a push that
    /// races with a worker's last look for work is exercised thousands of
    /// times.  A lost wake-up strands the root and times out.
    #[test]
    fn trees_submitted_from_outside_never_lose_a_wake_up() {
        let rt = Arc::new(runtime(SchedulerKind::ICilk));
        let bg = rt.priority_by_name("bg").unwrap();
        for i in 0..5_000 {
            let rt2 = Arc::clone(&rt);
            let root = rt.fcreate(bg, move || tree(&rt2, bg, 4));
            assert_eq!(
                root.wait_clone_timeout(Duration::from_secs(5)),
                Some(16),
                "tree {i} stalled"
            );
        }
        shutdown_shared(rt);
    }

    /// A worker's second queued child wakes a parked peer, which steals the
    /// older one: the newer child, run first by its spawner, waits until
    /// the older one has started elsewhere.
    #[test]
    fn a_parked_peer_wakes_for_a_second_queued_child_and_steals() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new(2, 1).with_tracing(true)));
        let p = rt.priority_by_index(0).unwrap();
        // Let both workers park, so the steal needs the wake-up.  (An
        // awake peer would steal too; the `started` flag, not this sleep,
        // forces the interleaving the test checks.)
        std::thread::sleep(Duration::from_millis(50));
        let rt2 = Arc::clone(&rt);
        let outer = rt.fcreate(p, move || {
            let started = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&started);
            let older = rt2.fcreate(p, move || flag.store(true, Ordering::SeqCst));
            let newer = rt2.fcreate(p, move || {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                started.load(Ordering::SeqCst)
            });
            let stolen = rt2.ftouch(&newer);
            rt2.ftouch(&older);
            stolen
        });
        assert_eq!(
            outer.wait_clone_timeout(Duration::from_secs(10)),
            Some(true),
            "the older child never started: the parked peer was not woken"
        );
        assert!(rt.drain(Duration::from_secs(5)));
        let steals = rt
            .trace_snapshot()
            .expect("tracing on")
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Steal { .. }))
            .count();
        assert!(steals > 0, "no steal recorded");
        shutdown_shared(rt);
    }

    /// Parked workers wake for a push from outside the pool.
    #[test]
    fn external_fcreate_wakes_an_idle_runtime() {
        let rt = runtime(SchedulerKind::ICilk);
        let ui = rt.priority_by_name("ui").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let f = rt.fcreate(ui, || 11u32);
        assert_eq!(
            f.wait_clone_timeout(Duration::from_millis(50)),
            Some(11),
            "a parked runtime must run an external submission promptly"
        );
        rt.shutdown();
    }

    /// `shutdown` wakes parked workers, so joining them cannot hang.
    #[test]
    fn shutdown_of_a_parked_runtime_joins_promptly() {
        let rt = runtime(SchedulerKind::ICilk);
        std::thread::sleep(Duration::from_millis(50));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let started = Instant::now();
            rt.shutdown();
            let _ = tx.send(started.elapsed());
        });
        let took = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown of a parked runtime hung");
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
    }

    /// Regression test: the master used to sleep out its whole quantum, so
    /// a runtime could not stop until the current one ended.  With a 10 s
    /// quantum, starting and stopping took 10 s.
    #[test]
    fn shutdown_does_not_wait_out_the_master_quantum() {
        let started = Instant::now();
        let rt = Runtime::start(RuntimeConfig::new(2, 2).with_master(MasterConfig {
            quantum: Duration::from_secs(10),
            ..MasterConfig::default()
        }));
        // Let the master reach its wait (a shutdown before it starts its
        // first quantum never waits).
        std::thread::sleep(Duration::from_millis(50));
        rt.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "start + shutdown took {took:?}"
        );
    }

    /// Regression test: a task that dropped the last handle of its own
    /// runtime made the worker join itself, which panicked it ("Resource
    /// deadlock avoided"), so the task never completed.
    #[test]
    fn dropping_the_last_handle_on_its_own_worker_completes_the_task() {
        let rt = Arc::new(Runtime::start(RuntimeConfig::new(2, 1)));
        let p = rt.priority_by_index(0).unwrap();
        let (dropped_tx, dropped_rx) = std::sync::mpsc::channel::<()>();
        let rt2 = Arc::clone(&rt);
        let task = rt.fcreate(p, move || {
            dropped_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("the outside handle is dropped");
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("icilk-worker-"));
            // The last handle: shuts the runtime down from this worker.
            drop(rt2);
            on_worker
        });
        drop(rt);
        dropped_tx.send(()).unwrap();
        assert_eq!(
            task.wait_clone_timeout(Duration::from_secs(5)),
            Some(true),
            "the task dropping its runtime never completed"
        );
    }

    #[test]
    fn baseline_scheduler_also_completes_work() {
        let rt = runtime(SchedulerKind::Baseline);
        let ui = rt.priority_by_name("ui").unwrap();
        let bg = rt.priority_by_name("bg").unwrap();
        let a = rt.fcreate(bg, || 3u64);
        let b = rt.fcreate(ui, || 4u64);
        assert_eq!(rt.ftouch_blocking(&a) + rt.ftouch_blocking(&b), 7);
        assert!(rt.uptime() > Duration::ZERO);
        rt.shutdown();
    }
}
