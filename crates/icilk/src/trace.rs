//! The runtime cost-graph tracer.
//!
//! When tracing is enabled ([`crate::runtime::RuntimeConfig::with_tracing`])
//! the runtime records an event log of everything it executes — task spawns,
//! run spans, steals, touches, and I/O submissions/completions — in the
//! event vocabulary of [`rp_core::trace`].  After a drain,
//! [`crate::runtime::Runtime::trace_snapshot`] merges the log into an
//! [`ExecutionTrace`], which `rp_core` reconstructs into a cost graph and a
//! concrete schedule so the Theorem 2.3 response-time bound can be checked
//! against the real execution.
//!
//! # Sharding
//!
//! Recording happens on every spawn, touch, and task completion, so it uses
//! the same pattern as [`crate::metrics::MetricsCollector`]: one
//! cache-line-padded shard per recording thread (round-robin by the shared
//! thread ordinal), each behind its own mutex.  A worker only ever locks its
//! own shard, so recording never takes a global lock; shards are merged only
//! by [`TraceCollector::snapshot`] or [`TraceCollector::drain`].  Task keys
//! come from one relaxed atomic counter — the only cross-thread traffic on
//! the hot path.
//!
//! # Bounded buffers and draining
//!
//! Each shard is a *bounded* buffer ([`DEFAULT_TRACE_CAPACITY`] events by
//! default, configurable per runtime).  A full shard drops new events and
//! counts them in [`TraceStats::dropped_events`] — loss is never silent.  Long-running
//! services keep the buffers small by periodically calling
//! [`TraceCollector::drain`], which empties the shards and hands back only
//! the events recorded since the previous drain as a [`TraceBatch`]; the
//! streaming reconstructor (`rp_core::stream`) consumes those batches.
//! Post-hoc consumers keep using [`TraceCollector::snapshot`], which copies
//! without consuming — the two styles should not be mixed on one run.

use crate::lock;
use crate::metrics::thread_ordinal;
use rp_core::trace::{ExecutionTrace, TraceEvent};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default number of trace shards; recording threads beyond this many share
/// shards round-robin.
pub const DEFAULT_TRACE_SHARDS: usize = 16;

/// Default per-shard event capacity.  With [`DEFAULT_TRACE_SHARDS`] shards
/// this bounds an undrained collector at ~1M events; drained collectors stay
/// far below it.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Distinguishes collectors so a thread executing tasks of one runtime never
/// mis-attributes parents or touchers to another runtime's collector.
static NEXT_COLLECTOR_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Task keys are drawn from one process-wide counter rather than
/// per-collector ones: a future can be touched through a *different* traced
/// runtime than the one that created it (the public API permits it), and
/// with per-collector counters the recorded key would collide with an
/// unrelated task of the touching runtime, fabricating an edge.  Globally
/// unique keys make such a cross-runtime touch record a key unknown to the
/// touching collector's log, which reconstruction drops harmlessly.
static NEXT_TASK_KEY: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The `(collector token, task key)` of the task currently executing on
    /// this thread, if any.  Saved and restored by [`TaskScope`], so nested
    /// execution (a worker helping inside `ftouch`) attributes events to the
    /// innermost task.
    static CURRENT_TASK: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// One shard's bounded buffer plus its lifetime counters.
#[derive(Default)]
struct ShardBuf {
    events: Vec<TraceEvent>,
    /// Events accepted into this shard since collector creation.
    recorded: u64,
    /// Events rejected because the buffer was at capacity.
    dropped: u64,
}

/// One trace shard, padded to its own cache lines (see the module docs).
#[repr(align(128))]
struct Shard(Mutex<ShardBuf>);

/// Cumulative counters for one [`TraceCollector`], as of the moment
/// [`TraceCollector::stats`] was called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Events accepted into shard buffers since collector creation.
    pub recorded_events: u64,
    /// Events handed out by [`TraceCollector::drain`] so far.
    pub drained_events: u64,
    /// Events dropped because a shard buffer was full.  A healthy drained
    /// run keeps this at zero; it is never silently reset.
    pub dropped_events: u64,
    /// Events currently sitting in shard buffers
    /// (`recorded_events - drained_events`).
    pub buffered_events: u64,
    /// The per-shard capacity this collector was built with.
    pub shard_capacity: usize,
}

/// One drained batch of trace events: everything recorded since the previous
/// [`TraceCollector::drain`], merged across shards and stably sorted by
/// timestamp.
///
/// Batches carry a monotone `seq` number plus the collector's cumulative
/// `recorded_events`/`dropped_events` counters at drain time, so a consumer
/// can detect loss without a side channel.  Note that a drain can race a recording
/// thread between its clock read and its buffer push: an event with
/// timestamp `t` may arrive in a *later* batch than events stamped after
/// `t`.  Streaming consumers tolerate this with a reorder window
/// (`rp_core::stream`).
#[derive(Debug, Clone)]
pub struct TraceBatch {
    /// Batch sequence number, starting at 0 for the first drain.
    pub seq: u64,
    /// The drained events, stably sorted by [`TraceEvent::at`].
    pub events: Vec<TraceEvent>,
    /// Cumulative events accepted by the collector at drain time.
    pub recorded_events: u64,
    /// Cumulative events dropped by the collector at drain time.
    pub dropped_events: u64,
}

/// Sharded, per-runtime recorder of [`TraceEvent`]s.
pub struct TraceCollector {
    token: u64,
    epoch: Instant,
    shards: Vec<Shard>,
    shard_mask: usize,
    level_names: Vec<String>,
    num_workers: usize,
    shard_capacity: usize,
    drained: AtomicU64,
    next_batch: AtomicU64,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("shards", &self.shards.len())
            .field("num_workers", &self.num_workers)
            .finish_non_exhaustive()
    }
}

impl TraceCollector {
    /// A collector for a runtime with the given level names (lowest first)
    /// and worker count, using [`DEFAULT_TRACE_SHARDS`] shards of
    /// [`DEFAULT_TRACE_CAPACITY`] events each.
    pub fn new(level_names: Vec<String>, num_workers: usize) -> Self {
        Self::with_capacity(level_names, num_workers, DEFAULT_TRACE_CAPACITY)
    }

    /// Like [`TraceCollector::new`] but with an explicit per-shard event
    /// capacity (minimum 1).  Once a shard is full, further events recorded
    /// through it are dropped and counted in [`TraceStats::dropped_events`].
    pub fn with_capacity(
        level_names: Vec<String>,
        num_workers: usize,
        shard_capacity: usize,
    ) -> Self {
        let shards = DEFAULT_TRACE_SHARDS.next_power_of_two();
        TraceCollector {
            token: NEXT_COLLECTOR_TOKEN.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            shards: (0..shards)
                .map(|_| Shard(Mutex::new(ShardBuf::default())))
                .collect(),
            shard_mask: shards - 1,
            level_names,
            num_workers,
            shard_capacity: shard_capacity.max(1),
            drained: AtomicU64::new(0),
            next_batch: AtomicU64::new(0),
        }
    }

    /// The level names this collector was built with (lowest first).
    pub fn level_names(&self) -> &[String] {
        &self.level_names
    }

    /// The worker count this collector was built with.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, event: TraceEvent) {
        let shard = &self.shards[thread_ordinal() & self.shard_mask];
        let mut buf = lock(&shard.0);
        if buf.events.len() < self.shard_capacity {
            buf.events.push(event);
            buf.recorded += 1;
        } else {
            buf.dropped += 1;
        }
    }

    /// The task currently executing on this thread, if it belongs to this
    /// collector's runtime.
    fn current_task(&self) -> Option<u64> {
        CURRENT_TASK
            .with(Cell::get)
            .and_then(|(token, key)| (token == self.token).then_some(key))
    }

    /// Records an `fcreate` and returns the new task's key.
    pub(crate) fn record_spawn(&self, level: usize) -> u64 {
        let task = NEXT_TASK_KEY.fetch_add(1, Ordering::Relaxed);
        self.record(TraceEvent::Spawn {
            task,
            parent: self.current_task(),
            level,
            at: self.now(),
        });
        task
    }

    /// Records a simulated-I/O submission and returns the future's key.
    pub(crate) fn record_io_submit(&self, level: usize) -> u64 {
        let task = NEXT_TASK_KEY.fetch_add(1, Ordering::Relaxed);
        self.record(TraceEvent::IoSubmit {
            task,
            parent: self.current_task(),
            level,
            at: self.now(),
        });
        task
    }

    /// Records a simulated-I/O completion.
    pub(crate) fn record_io_complete(&self, task: u64) {
        self.record(TraceEvent::IoComplete {
            task,
            at: self.now(),
        });
    }

    /// Records an `ftouch` of the given task's future by whatever task is
    /// currently executing on this thread (`None` for external threads).
    pub(crate) fn record_touch(&self, touched: u64) {
        self.record(TraceEvent::Touch {
            toucher: self.current_task(),
            touched,
            at: self.now(),
        });
    }

    /// Records a steal of the given task by this thread.
    pub(crate) fn record_steal(&self, task: u64) {
        self.record(TraceEvent::Steal {
            task,
            thief: thread_ordinal(),
            at: self.now(),
        });
    }

    /// Merges the shards into a time-ordered [`ExecutionTrace`].  The sort
    /// is stable, so events recorded by one thread keep their relative order
    /// even when the clock ties.
    ///
    /// Copies without consuming — the post-hoc path.  On a run that also
    /// [`drain`](TraceCollector::drain)s, a snapshot only sees the not yet
    /// drained remainder.
    pub fn snapshot(&self) -> ExecutionTrace {
        let mut events: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            events.extend(lock(&shard.0).events.iter().copied());
        }
        events.sort_by_key(TraceEvent::at);
        ExecutionTrace {
            events,
            num_workers: self.num_workers,
            level_names: self.level_names.clone(),
        }
    }

    /// Empties every shard and returns the events recorded since the
    /// previous drain as one stably time-sorted [`TraceBatch`].
    ///
    /// This is the streaming path: each call is O(events since last drain),
    /// independent of total run length, and frees the buffer space it
    /// consumed.  See [`TraceBatch`] for the ordering caveat near the drain
    /// boundary.
    pub fn drain(&self) -> TraceBatch {
        let mut events: Vec<TraceEvent> = Vec::new();
        let mut recorded = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let mut buf = lock(&shard.0);
            events.append(&mut buf.events);
            recorded += buf.recorded;
            dropped += buf.dropped;
        }
        events.sort_by_key(TraceEvent::at);
        self.drained
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        TraceBatch {
            seq: self.next_batch.fetch_add(1, Ordering::Relaxed),
            events,
            recorded_events: recorded,
            dropped_events: dropped,
        }
    }

    /// Current cumulative counters (recorded / drained / dropped /
    /// buffered).  Cheap enough for periodic gauges: it locks each shard
    /// once without copying events.
    pub fn stats(&self) -> TraceStats {
        let mut recorded = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let buf = lock(&shard.0);
            recorded += buf.recorded;
            dropped += buf.dropped;
        }
        let drained = self.drained.load(Ordering::Relaxed);
        TraceStats {
            recorded_events: recorded,
            drained_events: drained,
            dropped_events: dropped,
            buffered_events: recorded.saturating_sub(drained),
            shard_capacity: self.shard_capacity,
        }
    }
}

/// RAII scope for one task's run span: records `Start` on entry, installs
/// the task as this thread's current task, and on drop records `End` and
/// restores the previous current task.  The task wrapper drops the scope
/// *before* fulfilling the task's future, so every touch of the value is
/// timestamped after the `End` event — which keeps all reconstructed edges
/// pointing forward in time.
pub(crate) struct TaskScope<'a> {
    collector: &'a TraceCollector,
    key: u64,
    previous: Option<(u64, u64)>,
}

impl<'a> TaskScope<'a> {
    /// Enters the scope, recording the start of the task's run span.
    pub(crate) fn enter(collector: &'a TraceCollector, key: u64) -> Self {
        collector.record(TraceEvent::Start {
            task: key,
            worker: thread_ordinal(),
            at: collector.now(),
        });
        let previous = CURRENT_TASK.with(|c| c.replace(Some((collector.token, key))));
        TaskScope {
            collector,
            key,
            previous,
        }
    }
}

impl Drop for TaskScope<'_> {
    fn drop(&mut self) {
        CURRENT_TASK.with(|c| c.set(self.previous));
        self.collector.record(TraceEvent::End {
            task: self.key,
            at: self.collector.now(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_events_ordered() {
        let tc = TraceCollector::new(vec!["only".into()], 1);
        let a = tc.record_spawn(0);
        let b = tc.record_io_submit(0);
        assert_ne!(a, b);
        {
            let _scope = TaskScope::enter(&tc, a);
            let c = tc.record_spawn(0);
            assert_ne!(c, a);
        }
        tc.record_io_complete(b);
        tc.record_touch(b);
        let trace = tc.snapshot();
        assert_eq!(trace.level_names, vec!["only".to_string()]);
        assert_eq!(trace.num_workers, 1);
        assert!(trace.events.windows(2).all(|w| w[0].at() <= w[1].at()));
        // The nested spawn was attributed to the scoped task; the touch after
        // the scope ended was not.
        let nested_parent = trace.events.iter().find_map(|e| match e {
            TraceEvent::Spawn { task, parent, .. } if *task != a => Some(*parent),
            _ => None,
        });
        assert_eq!(nested_parent, Some(Some(a)));
        let toucher = trace.events.iter().find_map(|e| match e {
            TraceEvent::Touch { toucher, .. } => Some(*toucher),
            _ => None,
        });
        assert_eq!(toucher, Some(None));
    }

    #[test]
    fn scopes_nest_and_restore() {
        let tc = TraceCollector::new(vec!["only".into()], 1);
        let outer = tc.record_spawn(0);
        let inner = tc.record_spawn(0);
        {
            let _o = TaskScope::enter(&tc, outer);
            assert_eq!(tc.current_task(), Some(outer));
            {
                let _i = TaskScope::enter(&tc, inner);
                assert_eq!(tc.current_task(), Some(inner));
            }
            assert_eq!(tc.current_task(), Some(outer));
        }
        assert_eq!(tc.current_task(), None);
    }

    /// Task keys are globally unique, so a future created by one traced
    /// runtime but touched through another records a key the touching
    /// collector's log has never declared — reconstruction drops the touch
    /// instead of aliasing it onto an unrelated local task.
    #[test]
    fn cross_runtime_touch_cannot_alias_a_local_task() {
        let a = TraceCollector::new(vec!["only".into()], 1);
        let b = TraceCollector::new(vec!["only".into()], 1);
        let foreign = a.record_spawn(0);
        let local = b.record_spawn(0);
        assert_ne!(foreign, local, "keys never collide across collectors");
        {
            let _scope = TaskScope::enter(&b, local);
            // Inside b's task, touch a future whose key belongs to a.
            b.record_touch(foreign);
        }
        let run = b.snapshot().reconstruct().expect("b's log reconstructs");
        assert_eq!(run.dag.thread_count(), 1);
        assert_eq!(run.dag.touch_edges().len(), 0, "foreign touch dropped");
        assert_eq!(run.dag.weak_edges().len(), 0);
    }

    /// `drain` hands out exactly the events recorded since the previous
    /// drain — deltas, not history — and a quiet collector drains empty.
    #[test]
    fn drain_returns_deltas_and_empties_buffers() {
        let tc = TraceCollector::new(vec!["only".into()], 1);
        let a = tc.record_spawn(0);
        tc.record_touch(a);
        let first = tc.drain();
        assert_eq!(first.seq, 0);
        assert_eq!(first.events.len(), 2);
        assert_eq!(first.recorded_events, 2);
        assert_eq!(first.dropped_events, 0);
        assert!(first.events.windows(2).all(|w| w[0].at() <= w[1].at()));

        let quiet = tc.drain();
        assert_eq!(quiet.seq, 1);
        assert!(quiet.events.is_empty());

        let b = tc.record_spawn(0);
        tc.record_io_complete(b);
        let second = tc.drain();
        assert_eq!(second.seq, 2);
        assert_eq!(second.events.len(), 2, "only the new events");
        assert_eq!(second.recorded_events, 4, "counters stay cumulative");

        let stats = tc.stats();
        assert_eq!(stats.recorded_events, 4);
        assert_eq!(stats.drained_events, 4);
        assert_eq!(stats.buffered_events, 0);
        assert_eq!(stats.dropped_events, 0);
    }

    /// A full shard drops new events loudly: the counter moves, nothing is
    /// silently overwritten, and draining frees capacity again.
    #[test]
    fn capacity_overflow_drops_and_counts() {
        let tc = TraceCollector::with_capacity(vec!["only".into()], 1, 2);
        // All records from this one test thread land in the same shard.
        let a = tc.record_spawn(0);
        tc.record_touch(a);
        tc.record_touch(a); // shard is full: dropped
        let stats = tc.stats();
        assert_eq!(stats.recorded_events, 2);
        assert_eq!(stats.dropped_events, 1);
        assert_eq!(stats.shard_capacity, 2);

        let batch = tc.drain();
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.dropped_events, 1, "drops are visible in the batch");
        tc.record_touch(a);
        assert_eq!(tc.stats().dropped_events, 1, "room again after the drain");
        assert_eq!(tc.stats().buffered_events, 1);
    }

    #[test]
    fn foreign_collector_tasks_are_not_attributed() {
        let a = TraceCollector::new(vec!["only".into()], 1);
        let b = TraceCollector::new(vec!["only".into()], 1);
        let key = a.record_spawn(0);
        let _scope = TaskScope::enter(&a, key);
        // Collector B must not see A's current task as a parent.
        assert_eq!(b.current_task(), None);
        let foreign = b.record_spawn(0);
        let trace = b.snapshot();
        let parent = trace.events.iter().find_map(|e| match e {
            TraceEvent::Spawn { task, parent, .. } if *task == foreign => Some(*parent),
            _ => None,
        });
        assert_eq!(parent, Some(None));
    }
}
