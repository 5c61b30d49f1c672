//! Streaming trace reconstruction: incremental cost-graph building,
//! epoch-based retirement, and running (W, S) aggregates.
//!
//! The post-hoc path ([`ExecutionTrace::reconstruct`](crate::trace::ExecutionTrace::reconstruct)) needs the whole event
//! log at once — unusable for a server that never shuts down.  The
//! [`IncrementalReconstructor`] instead consumes *drained* event batches as
//! they are produced (`rp-icilk`'s `Runtime::drain_trace_events`), and keeps
//! memory bounded by **in-flight work**, not total history:
//!
//! 1. **Reorder window.** Batches may interleave near the drain boundary (an
//!    event stamped `t` can arrive one batch after events stamped later than
//!    `t`), so arriving events are held in a small pending buffer and only
//!    *committed* — applied to the partial reconstruction, in timestamp
//!    order — once the high-water mark has advanced past them by
//!    [`StreamConfig::reorder_window_nanos`].  Events that still reference
//!    unknown tasks (a timestamp tie across shards) wait in an orphan stash
//!    and are retried on later ingests.
//! 2. **Request subgraphs.** Committed spawns and touches glue tasks into
//!    weakly-connected components via a union-find — one component per
//!    request for the server workloads, whose requests never share futures.
//!    A component is *complete* once every member task has both started and
//!    finished.
//! 3. **Epoch-based retirement.** Each [`IncrementalReconstructor::ingest`]
//!    call is an epoch.  A component that has stayed complete for
//!    [`StreamConfig::grace_epochs`] epochs (grace absorbs stragglers near
//!    the drain boundary) is **retired**: its cost graph and observed
//!    schedule are assembled by the *same* code as the post-hoc
//!    reconstructor ([`ExecutionTrace::reconstruct_components`](crate::trace::ExecutionTrace::reconstruct_components) calls it
//!    too, so verdicts match bit for bit), Theorem 2.3 is checked against
//!    both the observed schedule and a replayed prompt schedule, the
//!    verdicts are folded into [`StreamAggregates`], and every record of the
//!    component is dropped.
//!
//! The aggregates expose exactly what a controller needs live: per-level
//! thread/vertex totals, running Σ(W), Σ(S) and span fractions, bound-slack
//! statistics, and counterexample counts.  `rp-net`'s admission controller
//! refreshes from them instead of re-sorting full snapshots.

use crate::trace::{
    assemble, trace_domain, Action, ActionKind, Member, ReconstructedRun, Slot, TaskKey,
    TaskRecord, TraceBoundReport, TraceError, TraceEvent,
};
use rp_priority::PriorityDomain;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Configuration of an [`IncrementalReconstructor`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Names of the traced runtime's priority levels, lowest first.
    pub level_names: Vec<String>,
    /// Number of worker threads of the traced runtime (the `P` of observed
    /// schedules and replays).
    pub num_workers: usize,
    /// How far (in trace nanoseconds) the high-water timestamp must advance
    /// past an event before it is committed.  Covers the drain-boundary race
    /// where an event lands in a later batch than events stamped after it.
    pub reorder_window_nanos: u64,
    /// How many ingest epochs a component must stay complete before it is
    /// retired, and how many epochs an orphan event may wait for its task to
    /// be declared before it is dropped (and counted).
    pub grace_epochs: u64,
}

impl StreamConfig {
    /// A configuration with the defaults used by the socket server: a 2 ms
    /// reorder window and 2 grace epochs.
    pub fn new(level_names: Vec<String>, num_workers: usize) -> Self {
        StreamConfig {
            level_names,
            num_workers,
            reorder_window_nanos: 2_000_000,
            grace_epochs: 2,
        }
    }
}

/// One retired request subgraph: its reconstruction plus the Theorem 2.3
/// verdicts, exactly what the post-hoc per-component path would have
/// produced for the same tasks.
#[derive(Debug)]
pub struct SubgraphReport {
    /// The component's cost graph, observed schedule, and task metadata.
    pub run: ReconstructedRun,
    /// Theorem 2.3 checked against the observed schedule.
    pub observed: Vec<TraceBoundReport>,
    /// Theorem 2.3 checked against a replayed weak-respecting prompt
    /// schedule (the configuration the theorem speaks about).
    pub replay: Vec<TraceBoundReport>,
    /// The ingest epoch at which the component was retired.
    pub retired_at_epoch: u64,
}

impl SubgraphReport {
    /// Total counterexamples (hypotheses held, bound failed) across the
    /// observed and replay checks.  Zero for a healthy scheduler.
    pub fn counterexamples(&self) -> usize {
        self.observed
            .iter()
            .chain(&self.replay)
            .filter(|r| r.report.is_counterexample())
            .count()
    }

    /// The smallest task key in the subgraph — a stable identity for
    /// matching against post-hoc components.
    pub fn min_key(&self) -> TaskKey {
        self.run.tasks.iter().map(|t| t.key).min().unwrap_or(0)
    }
}

/// Running per-priority-level totals over all retired subgraphs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelAggregate {
    /// Threads retired at this level.
    pub threads: u64,
    /// Σ over those threads of their own vertex count.
    pub own_vertices: u64,
    /// Σ of competitor work `W` from the replay verdicts.
    pub work_sum: u64,
    /// Σ of a-span `S` from the replay verdicts.
    pub span_sum: u64,
    /// Σ of replay slack ratios (observed / adjusted bound).
    pub slack_sum: f64,
    /// Maximum replay slack ratio seen (> 1 would be a violated bound).
    pub slack_max: f64,
    /// Number of slack samples folded into `slack_sum`.
    pub slack_samples: u64,
    /// Theorem 2.3 counterexamples at this level (observed + replay).
    pub counterexamples: u64,
}

impl LevelAggregate {
    /// Mean a-span over own vertex count — the structural "span fraction"
    /// the admission controller plugs into its `(P−1)·w·φ` term.  `None`
    /// until a thread at this level has been retired.
    pub fn span_fraction(&self) -> Option<f64> {
        (self.own_vertices > 0).then(|| self.span_sum as f64 / self.own_vertices as f64)
    }

    /// Mean competitor work `W` per thread at this level.
    pub fn mean_work(&self) -> Option<f64> {
        (self.threads > 0).then(|| self.work_sum as f64 / self.threads as f64)
    }

    /// Mean a-span `S` per thread at this level.
    pub fn mean_span(&self) -> Option<f64> {
        (self.threads > 0).then(|| self.span_sum as f64 / self.threads as f64)
    }

    /// Mean replay slack ratio (≤ 1 when bounds hold).
    pub fn mean_slack(&self) -> Option<f64> {
        (self.slack_samples > 0).then(|| self.slack_sum / self.slack_samples as f64)
    }
}

/// Running totals over everything the reconstructor has retired, plus the
/// live gauges a server publishes.  Cheap to clone (one small `Vec`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamAggregates {
    /// Per-priority-level totals, indexed by level (lowest first).
    pub levels: Vec<LevelAggregate>,
    /// Request subgraphs retired so far.
    pub retired_subgraphs: u64,
    /// Threads retired so far (Σ of subgraph thread counts).
    pub retired_threads: u64,
    /// Vertices retired so far (Σ of subgraph vertex counts).
    pub retired_vertices: u64,
    /// Total Theorem 2.3 counterexamples across all retired subgraphs.
    pub counterexamples: u64,
    /// Recorded work-steals (whole-run diagnostic).
    pub steals: u64,
    /// Incomplete tasks dropped at [`IncrementalReconstructor::finalize`].
    pub skipped_tasks: u64,
}

impl StreamAggregates {
    fn absorb(&mut self, report: &SubgraphReport) {
        self.retired_subgraphs += 1;
        self.retired_threads += report.run.tasks.len() as u64;
        self.retired_vertices += report.run.dag.vertex_count() as u64;
        self.counterexamples += report.counterexamples() as u64;
        for (i, task) in report.run.tasks.iter().enumerate() {
            let level = &mut self.levels[task.level];
            level.threads += 1;
            level.own_vertices += report.run.dag.thread(task.thread).vertices.len() as u64;
            let replay = &report.replay[i];
            level.work_sum += replay.report.competitor_work as u64;
            level.span_sum += replay.report.a_span as u64;
            if let Some(slack) = replay.slack_ratio() {
                level.slack_sum += slack;
                level.slack_max = level.slack_max.max(slack);
                level.slack_samples += 1;
            }
            if report.observed[i].report.is_counterexample() {
                level.counterexamples += 1;
            }
            if replay.report.is_counterexample() {
                level.counterexamples += 1;
            }
        }
    }
}

/// Live counters of an [`IncrementalReconstructor`] — the memory gauges.
/// `live_tasks` + `pending_events` + `orphan_events` bound the
/// reconstructor's working set; under constant load they plateau instead of
/// growing with run length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Events handed to `ingest` so far.
    pub ingested_events: u64,
    /// Events committed (applied to the partial reconstruction) so far.
    pub committed_events: u64,
    /// Events currently held back by the reorder window.
    pub pending_events: u64,
    /// Committed events currently stashed as orphans (they reference a task
    /// not declared yet).
    pub orphan_events: u64,
    /// Orphans dropped because their task never appeared within the grace
    /// period (e.g. its `Spawn` was lost to a full shard, or its component
    /// was already retired).
    pub unresolved_events: u64,
    /// Tasks currently live (spawned, not yet retired).
    pub live_tasks: u64,
    /// Components currently live.
    pub live_components: u64,
    /// The current ingest epoch.
    pub epoch: u64,
}

/// The state of one live weakly-connected component, kept in its root's
/// slot.
#[derive(Debug, Default)]
struct Component {
    /// Member slots (unordered; sorted by arrival at retirement).
    members: Vec<Slot>,
    /// Members that have not both started and finished yet.
    incomplete: usize,
    /// The epoch at which `incomplete` last reached zero.
    completed_epoch: Option<u64>,
    /// The earliest arrival among the members: the component's place in
    /// retirement order.
    first_arrival: u64,
}

/// One entry of the task table.  A slot is live from its task's first
/// declaration until the task's component retires; it then goes on the
/// free list, and the next task declared reuses it together with its
/// buffers.
#[derive(Debug)]
struct TaskSlot {
    key: TaskKey,
    record: TaskRecord,
    /// Commit-order arrival stamp (reproduces the post-hoc first-appearance
    /// ordering exactly).
    arrival: u64,
    /// Union-find parent slot; a component's root is its own parent.
    parent: Slot,
    /// The component this slot roots; meaningful only while it is a live
    /// root.
    component: Component,
    live: bool,
}

impl TaskSlot {
    fn is_live_root(&self, slot: usize) -> bool {
        self.live && self.parent as usize == slot
    }
}

enum Outcome {
    Applied,
    Orphan,
}

/// Incremental mirror of [`ExecutionTrace::reconstruct_components`](crate::trace::ExecutionTrace::reconstruct_components): feed it
/// drained event batches with [`ingest`](IncrementalReconstructor::ingest),
/// collect retired [`SubgraphReport`]s as they complete, and read the
/// running [`StreamAggregates`] at any time.  See the module docs for the
/// architecture.
///
/// ```
/// use rp_core::stream::{IncrementalReconstructor, StreamConfig};
/// use rp_core::trace::TraceEvent::*;
///
/// let mut recon =
///     IncrementalReconstructor::new(StreamConfig::new(vec!["only".into()], 1)).unwrap();
/// let events = vec![
///     Spawn { task: 1, parent: None, level: 0, at: 0 },
///     Start { task: 1, worker: 0, at: 10 },
///     End { task: 1, at: 20 },
/// ];
/// recon.ingest(&events).unwrap();
/// let retired = recon.finalize().unwrap();
/// assert_eq!(retired.len(), 1);
/// assert_eq!(retired[0].counterexamples(), 0);
/// assert_eq!(recon.aggregates().retired_subgraphs, 1);
/// ```
#[derive(Debug)]
pub struct IncrementalReconstructor {
    domain: PriorityDomain,
    num_workers: usize,
    window: u64,
    grace: u64,
    epoch: u64,
    max_at: u64,
    next_arrival: u64,
    pending: Vec<TraceEvent>,
    /// Orphaned events with the epoch they were stashed at.
    orphans: Vec<(TraceEvent, u64)>,
    /// The task table, indexed by slot.
    slots: Vec<TaskSlot>,
    /// Slots whose component retired, ready for reuse.
    free: Vec<Slot>,
    /// The slot of every live task.
    slot_of: HashMap<TaskKey, Slot>,
    live_components: u64,
    ingested: u64,
    committed: u64,
    unresolved: u64,
    aggregates: StreamAggregates,
}

impl IncrementalReconstructor {
    /// Creates a reconstructor for a runtime with the given configuration.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoLevels`] / [`TraceError::BadLevels`] when the level
    /// declaration is unusable.
    pub fn new(config: StreamConfig) -> Result<Self, TraceError> {
        let domain = trace_domain(&config.level_names)?;
        let levels = vec![LevelAggregate::default(); domain.len()];
        Ok(IncrementalReconstructor {
            domain,
            num_workers: config.num_workers.max(1),
            window: config.reorder_window_nanos,
            grace: config.grace_epochs,
            epoch: 0,
            max_at: 0,
            next_arrival: 0,
            pending: Vec::new(),
            orphans: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: HashMap::new(),
            live_components: 0,
            ingested: 0,
            committed: 0,
            unresolved: 0,
            aggregates: StreamAggregates {
                levels,
                ..StreamAggregates::default()
            },
        })
    }

    /// Ingests one drained batch (events sorted by timestamp), commits
    /// everything older than the reorder window, and returns the subgraphs
    /// whose grace period expired this epoch, in first-appearance order.
    ///
    /// # Errors
    ///
    /// [`TraceError::LevelOutOfRange`] when an event declares a task at a
    /// level outside the domain; [`TraceError::Build`] if a retired
    /// component's edges were rejected (a recording bug).
    pub fn ingest(&mut self, events: &[TraceEvent]) -> Result<Vec<SubgraphReport>, TraceError> {
        self.epoch += 1;
        self.ingested += events.len() as u64;
        self.pending.extend_from_slice(events);
        for ev in events {
            self.max_at = self.max_at.max(ev.at());
        }
        let horizon = self.max_at.saturating_sub(self.window);
        self.pending.sort_by_key(TraceEvent::at);
        let split = self.pending.partition_point(|e| e.at() <= horizon);
        let commit: Vec<TraceEvent> = self.pending.drain(..split).collect();
        self.commit(&commit)?;
        self.retire_ready()
    }

    /// Commits every pending event regardless of the reorder window and
    /// retires whatever becomes ready.  Only safe at **quiescence** — when
    /// the caller knows no recording thread still holds an older timestamp
    /// than what has been drained (e.g. after two consecutive *empty*
    /// drains, since the record-side race window is sub-microsecond while
    /// drains are milliseconds apart).  Calling it mid-traffic would commit
    /// recent events ahead of stragglers the window exists to wait for.
    ///
    /// Unlike [`IncrementalReconstructor::finalize`], incomplete components
    /// stay live and orphans keep waiting out their grace, so the
    /// reconstructor remains usable for further ingests.
    ///
    /// # Errors
    ///
    /// As for [`IncrementalReconstructor::ingest`].
    pub fn flush(&mut self) -> Result<Vec<SubgraphReport>, TraceError> {
        self.epoch += 1;
        self.pending.sort_by_key(TraceEvent::at);
        let commit: Vec<TraceEvent> = std::mem::take(&mut self.pending);
        self.commit(&commit)?;
        self.retire_ready()
    }

    /// Commits every pending and orphaned event it still can, drops the
    /// rest (counted in [`StreamCounters::unresolved_events`]), and retires
    /// **all** remaining components — including incomplete ones, whose
    /// unfinished members are skipped exactly as the post-hoc path skips
    /// them.  Call once at shutdown; afterwards the reconstructor is empty
    /// but its aggregates and counters remain readable.
    ///
    /// # Errors
    ///
    /// As for [`IncrementalReconstructor::ingest`].
    pub fn finalize(&mut self) -> Result<Vec<SubgraphReport>, TraceError> {
        self.epoch += 1;
        self.pending.sort_by_key(TraceEvent::at);
        let commit: Vec<TraceEvent> = std::mem::take(&mut self.pending);
        self.commit(&commit)?;
        // Force-apply whatever orphans remain: declared-late tasks are
        // created without parent attribution, the rest are dropped loudly.
        let orphans = std::mem::take(&mut self.orphans);
        for (ev, _) in orphans {
            self.apply(&ev, true)?;
        }

        // Retire everything, complete or not, in first-appearance order.
        self.retire_roots(|_| true)
    }

    /// The running totals over all retired subgraphs.
    pub fn aggregates(&self) -> &StreamAggregates {
        &self.aggregates
    }

    /// The live memory and progress gauges.
    pub fn counters(&self) -> StreamCounters {
        StreamCounters {
            ingested_events: self.ingested,
            committed_events: self.committed,
            pending_events: self.pending.len() as u64,
            orphan_events: self.orphans.len() as u64,
            unresolved_events: self.unresolved,
            live_tasks: self.slot_of.len() as u64,
            live_components: self.live_components,
            epoch: self.epoch,
        }
    }

    fn commit(&mut self, events: &[TraceEvent]) -> Result<(), TraceError> {
        for ev in events {
            if let Outcome::Orphan = self.apply(ev, false)? {
                self.orphans.push((*ev, self.epoch));
            }
        }
        // Retry orphans until a pass makes no progress: a tie-ordered
        // Start-before-Spawn resolves here, in the same epoch.
        loop {
            let before = self.orphans.len();
            let stash = std::mem::take(&mut self.orphans);
            for (ev, stashed_at) in stash {
                if let Outcome::Orphan = self.apply(&ev, false)? {
                    self.orphans.push((ev, stashed_at));
                }
            }
            if self.orphans.len() == before {
                break;
            }
        }
        // Expire orphans older than the grace period.
        let grace = self.grace;
        let epoch = self.epoch;
        let expired: Vec<TraceEvent> = {
            let mut expired = Vec::new();
            self.orphans.retain(|&(ev, stashed_at)| {
                if epoch.saturating_sub(stashed_at) > grace {
                    expired.push(ev);
                    false
                } else {
                    true
                }
            });
            expired
        };
        for ev in expired {
            self.apply(&ev, true)?;
        }
        Ok(())
    }

    /// Applies one event to the partial reconstruction, mirroring the
    /// post-hoc passes per event.  With `force`, an event that still
    /// references an unknown task is resolved the way the post-hoc path
    /// resolves a task absent from the whole log: spawns still declare
    /// their task (without parent attribution), everything else is dropped
    /// and counted.
    fn apply(&mut self, ev: &TraceEvent, force: bool) -> Result<Outcome, TraceError> {
        match *ev {
            TraceEvent::Spawn {
                task,
                parent,
                level,
                at,
            }
            | TraceEvent::IoSubmit {
                task,
                parent,
                level,
                at,
            } => {
                if level >= self.domain.len() {
                    return Err(TraceError::LevelOutOfRange { task, level });
                }
                let attribute = match parent.map(|p| self.slot_of.get(&p).copied()) {
                    Some(Some(p)) => Some(p),
                    Some(None) if !force => return Ok(Outcome::Orphan),
                    Some(None) => {
                        // The parent never appeared (lost spawn or retired
                        // component): declare the task parentless, loudly.
                        self.unresolved += 1;
                        None
                    }
                    None => None,
                };
                let is_io = matches!(ev, TraceEvent::IoSubmit { .. });
                let slot = self.declare(task, level, is_io, at);
                if let Some(p) = attribute {
                    self.slots[p as usize].record.actions.push(Action {
                        at,
                        kind: ActionKind::SpawnChild(slot),
                    });
                    self.union(p, slot);
                }
                self.committed += 1;
                Ok(Outcome::Applied)
            }
            TraceEvent::Start { task, at, .. } => self.apply_span(task, Some(at), None, force),
            TraceEvent::End { task, at } => self.apply_span(task, None, Some(at), force),
            TraceEvent::IoComplete { task, at } => self.apply_span(task, Some(at), Some(at), force),
            TraceEvent::Touch {
                toucher,
                touched,
                at,
            } => {
                let Some(t) = toucher else {
                    // A blocking touch from outside the runtime: no edge.
                    self.committed += 1;
                    return Ok(Outcome::Applied);
                };
                match (self.slot_of.get(&touched), self.slot_of.get(&t)) {
                    (Some(&touched), Some(&toucher)) => {
                        self.slots[toucher as usize].record.actions.push(Action {
                            at,
                            kind: ActionKind::Touch(touched),
                        });
                        self.union(toucher, touched);
                        self.committed += 1;
                        Ok(Outcome::Applied)
                    }
                    _ if force => {
                        self.unresolved += 1;
                        Ok(Outcome::Applied)
                    }
                    _ => Ok(Outcome::Orphan),
                }
            }
            TraceEvent::Steal { .. } => {
                self.aggregates.steals += 1;
                self.committed += 1;
                Ok(Outcome::Applied)
            }
        }
    }

    /// The slot of `task`, declaring the task as its own one-member
    /// component in a free (or new) slot if it is not live.
    fn declare(&mut self, task: TaskKey, level: usize, is_io: bool, at: u64) -> Slot {
        let entry = match self.slot_of.entry(task) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => e,
        };
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        self.live_components += 1;
        // A free slot lends its action and member buffers to the new task.
        let (slot, mut actions, mut members) = match self.free.pop() {
            Some(slot) => {
                let old = &mut self.slots[slot as usize];
                let actions = std::mem::take(&mut old.record.actions);
                (slot, actions, std::mem::take(&mut old.component.members))
            }
            None => (self.slots.len() as Slot, Vec::new(), Vec::new()),
        };
        actions.clear();
        members.clear();
        members.push(slot);
        let fresh = TaskSlot {
            key: task,
            record: TaskRecord {
                actions,
                ..TaskRecord::new(level, is_io, at)
            },
            arrival,
            parent: slot,
            component: Component {
                members,
                incomplete: 1,
                completed_epoch: None,
                first_arrival: arrival,
            },
            live: true,
        };
        match self.slots.get_mut(slot as usize) {
            Some(reused) => *reused = fresh,
            None => self.slots.push(fresh),
        }
        *entry.insert(slot)
    }

    /// Applies a Start/End/IoComplete span update, tracking completion
    /// transitions for the task's component.
    fn apply_span(
        &mut self,
        task: TaskKey,
        started: Option<u64>,
        finished: Option<u64>,
        force: bool,
    ) -> Result<Outcome, TraceError> {
        let Some(&slot) = self.slot_of.get(&task) else {
            return if force {
                self.unresolved += 1;
                Ok(Outcome::Applied)
            } else {
                Ok(Outcome::Orphan)
            };
        };
        let record = &mut self.slots[slot as usize].record;
        let was_complete = record.is_complete();
        if let Some(at) = started {
            record.started_at.get_or_insert(at);
        }
        if let Some(at) = finished {
            record.finished_at.get_or_insert(at);
        }
        let now_complete = record.is_complete();
        self.committed += 1;
        if !was_complete && now_complete {
            let root = self.find(slot);
            let epoch = self.epoch;
            let component = &mut self.slots[root as usize].component;
            component.incomplete -= 1;
            if component.incomplete == 0 {
                component.completed_epoch = Some(epoch);
            }
        }
        Ok(Outcome::Applied)
    }

    /// Union-find `find` over slots, with full path compression.
    fn find(&mut self, slot: Slot) -> Slot {
        let mut root = slot;
        while self.slots[root as usize].parent != root {
            root = self.slots[root as usize].parent;
        }
        let mut current = slot;
        while current != root {
            let next = self.slots[current as usize].parent;
            self.slots[current as usize].parent = root;
            current = next;
        }
        root
    }

    /// Merges the components of `a` and `b` (union by member count),
    /// recomputing the merged completion epoch.
    fn union(&mut self, a: Slot, b: Slot) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let members = |root: Slot| self.slots[root as usize].component.members.len();
        let (big, small) = if members(ra) >= members(rb) {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.slots[small as usize].parent = big;
        let absorbed = std::mem::take(&mut self.slots[small as usize].component);
        let epoch = self.epoch;
        let target = &mut self.slots[big as usize].component;
        target.members.extend_from_slice(&absorbed.members);
        target.incomplete += absorbed.incomplete;
        target.completed_epoch = (target.incomplete == 0).then_some(epoch);
        target.first_arrival = target.first_arrival.min(absorbed.first_arrival);
        // Hand the absorbed member buffer back for the slot's next task.
        self.slots[small as usize].component.members = absorbed.members;
        self.live_components -= 1;
    }

    /// Retires every component whose grace period expired, in
    /// first-appearance order.
    fn retire_ready(&mut self) -> Result<Vec<SubgraphReport>, TraceError> {
        let (epoch, grace) = (self.epoch, self.grace);
        self.retire_roots(|c| {
            c.completed_epoch
                .is_some_and(|e| epoch.saturating_sub(e) >= grace)
        })
    }

    /// Retires every live component that `ready` accepts, in
    /// first-appearance order.
    fn retire_roots(
        &mut self,
        ready: impl Fn(&Component) -> bool,
    ) -> Result<Vec<SubgraphReport>, TraceError> {
        let mut roots: Vec<(u64, Slot)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(slot, entry)| entry.is_live_root(slot) && ready(&entry.component))
            .map(|(slot, entry)| (entry.component.first_arrival, slot as Slot))
            .collect();
        roots.sort_unstable();
        let mut reports = Vec::new();
        for (_, root) in roots {
            if let Some(report) = self.retire(root)? {
                reports.push(report);
            }
        }
        Ok(reports)
    }

    /// Retires one component: assembles its graph with the shared post-hoc
    /// code, checks Theorem 2.3, folds the verdicts into the aggregates,
    /// and frees every member slot.  Returns `None` for a component with
    /// no completed member (nothing to analyse — its tasks are only counted
    /// as skipped).
    fn retire(&mut self, root: Slot) -> Result<Option<SubgraphReport>, TraceError> {
        let mut member_slots = std::mem::take(&mut self.slots[root as usize].component.members);
        member_slots.sort_unstable_by_key(|&s| self.slots[s as usize].arrival);
        let members: Vec<Member<'_>> = member_slots
            .iter()
            .map(|&slot| {
                let entry = &self.slots[slot as usize];
                Member {
                    key: entry.key,
                    slot,
                    record: &entry.record,
                }
            })
            .filter(|m| m.record.is_complete())
            .collect();
        let skipped = member_slots.len() - members.len();
        let report = if members.is_empty() {
            Ok(None)
        } else {
            assemble(&self.domain, self.num_workers, &members, skipped, 0).map(|run| {
                let (observed, replay) = run.check_observed_and_replay(self.num_workers);
                Some(SubgraphReport {
                    run,
                    observed,
                    replay,
                    retired_at_epoch: self.epoch,
                })
            })
        };
        self.aggregates.skipped_tasks += skipped as u64;
        self.live_components -= 1;
        for &slot in &member_slots {
            let entry = &mut self.slots[slot as usize];
            entry.live = false;
            self.slot_of.remove(&entry.key);
            self.free.push(slot);
        }
        self.slots[root as usize].component.members = member_slots;
        let report = report?;
        if let Some(report) = &report {
            self.aggregates.absorb(report);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ExecutionTrace;
    use TraceEvent::*;

    /// Live tasks counted from the task table itself.
    fn live_slots(recon: &IncrementalReconstructor) -> u64 {
        recon.slots.iter().filter(|s| s.live).count() as u64
    }

    fn config(levels: &[&str], workers: usize) -> StreamConfig {
        StreamConfig {
            level_names: levels.iter().map(|s| s.to_string()).collect(),
            num_workers: workers,
            reorder_window_nanos: 0,
            grace_epochs: 0,
        }
    }

    /// Two independent single-task requests.
    fn two_requests() -> Vec<TraceEvent> {
        vec![
            Spawn {
                task: 1,
                parent: None,
                level: 0,
                at: 0,
            },
            Start {
                task: 1,
                worker: 0,
                at: 10,
            },
            Spawn {
                task: 2,
                parent: None,
                level: 0,
                at: 15,
            },
            End { task: 1, at: 20 },
            Start {
                task: 2,
                worker: 0,
                at: 25,
            },
            End { task: 2, at: 30 },
        ]
    }

    #[test]
    fn independent_requests_retire_separately() {
        let mut recon = IncrementalReconstructor::new(config(&["only"], 1)).unwrap();
        let events = two_requests();
        let retired = recon.ingest(&events).unwrap();
        assert_eq!(retired.len(), 2, "both components complete, grace 0");
        assert_eq!(retired[0].min_key(), 1);
        assert_eq!(retired[1].min_key(), 2);
        assert_eq!(recon.counters().live_tasks, 0, "records freed");
        assert_eq!(recon.aggregates().retired_subgraphs, 2);
        assert_eq!(recon.aggregates().counterexamples, 0);
    }

    #[test]
    fn grace_epochs_delay_retirement() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            grace_epochs: 2,
            ..config(&["only"], 1)
        })
        .unwrap();
        assert!(recon.ingest(&two_requests()).unwrap().is_empty());
        assert!(recon.ingest(&[]).unwrap().is_empty(), "one epoch of grace");
        let retired = recon.ingest(&[]).unwrap();
        assert_eq!(retired.len(), 2, "grace expired");
    }

    #[test]
    fn reorder_window_holds_recent_events_back() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            reorder_window_nanos: 100,
            ..config(&["only"], 1)
        })
        .unwrap();
        recon.ingest(&two_requests()).unwrap();
        // Everything within 100ns of the high-water mark (30) stays
        // pending; only the Spawn at t=0 is on the saturated horizon.
        assert_eq!(recon.counters().pending_events, 5);
        assert_eq!(recon.counters().live_tasks, 1);
        // A much later event pushes the horizon past the old batch.
        let late = vec![Spawn {
            task: 3,
            parent: None,
            level: 0,
            at: 500,
        }];
        let retired = recon.ingest(&late).unwrap();
        assert_eq!(retired.len(), 2);
        assert_eq!(recon.counters().pending_events, 1, "task 3 still pending");
        let last = recon.finalize().unwrap();
        assert!(last.is_empty(), "task 3 never completed");
        assert_eq!(recon.aggregates().skipped_tasks, 1);
    }

    /// At quiescence, `flush` commits the tail the reorder window holds
    /// back and keeps the reconstructor live for further ingests.
    #[test]
    fn flush_commits_the_reorder_tail_at_quiescence() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            reorder_window_nanos: 100,
            ..config(&["only"], 1)
        })
        .unwrap();
        recon.ingest(&two_requests()).unwrap();
        assert_eq!(recon.counters().pending_events, 5);
        let retired = recon.flush().unwrap();
        assert_eq!(retired.len(), 2);
        assert_eq!(recon.counters().pending_events, 0);
        let more = vec![
            Spawn {
                task: 9,
                parent: None,
                level: 0,
                at: 1_000,
            },
            Start {
                task: 9,
                worker: 0,
                at: 1_001,
            },
            End { task: 9, at: 1_002 },
        ];
        recon.ingest(&more).unwrap();
        let retired = recon.flush().unwrap();
        assert_eq!(retired.len(), 1, "reconstructor stays live after flush");
    }

    /// A tie that orders `Start` before `Spawn` (cross-shard merge) must
    /// resolve through the orphan stash, exactly like the post-hoc pass
    /// split does.
    #[test]
    fn tie_ordered_start_before_spawn_resolves_via_orphans() {
        let mut recon = IncrementalReconstructor::new(config(&["only"], 1)).unwrap();
        let events = vec![
            Start {
                task: 1,
                worker: 0,
                at: 10,
            },
            Spawn {
                task: 1,
                parent: None,
                level: 0,
                at: 10,
            },
            End { task: 1, at: 30 },
        ];
        let retired = recon.ingest(&events).unwrap();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].run.dag.thread_count(), 1);
        assert_eq!(recon.counters().unresolved_events, 0);
    }

    /// An event whose task never appears is dropped and counted once its
    /// grace expires — never silently.
    #[test]
    fn unresolvable_orphans_are_counted() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            grace_epochs: 1,
            ..config(&["only"], 1)
        })
        .unwrap();
        let events = vec![
            Touch {
                toucher: Some(99),
                touched: 98,
                at: 5,
            },
            Spawn {
                task: 1,
                parent: None,
                level: 0,
                at: 10,
            },
            Start {
                task: 1,
                worker: 0,
                at: 11,
            },
            End { task: 1, at: 12 },
        ];
        recon.ingest(&events).unwrap();
        assert_eq!(recon.counters().orphan_events, 1, "touch is stashed");
        recon.ingest(&[]).unwrap();
        recon.ingest(&[]).unwrap();
        assert_eq!(recon.counters().orphan_events, 0);
        assert_eq!(recon.counters().unresolved_events, 1);
    }

    /// A union recomputes completion: a complete component merged into a
    /// running one leaves it incomplete, and two complete components merge
    /// into a complete one.
    #[test]
    fn union_recomputes_component_completion() {
        let mut recon = IncrementalReconstructor::new(config(&["only"], 1)).unwrap();
        let spawn = |task, at| Spawn {
            task,
            parent: None,
            level: 0,
            at,
        };
        let start = |task, at| Start {
            task,
            worker: 0,
            at,
        };
        let touch = |toucher, touched, at| Touch {
            toucher: Some(toucher),
            touched,
            at,
        };
        // Task 2 finishes on its own; task 1, still running, touches it.
        let events = [
            spawn(1, 0),
            start(1, 1),
            spawn(2, 2),
            start(2, 3),
            End { task: 2, at: 4 },
            touch(1, 2, 5),
        ];
        assert!(recon.ingest(&events).unwrap().is_empty(), "task 1 runs");
        assert_eq!(recon.counters().live_tasks, 2);
        assert_eq!(recon.counters().live_components, 1);
        let retired = recon.ingest(&[End { task: 1, at: 6 }]).unwrap();
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].run.tasks.len(), 2);
        assert_eq!(retired[0].run.skipped, 0);
        // Tasks 3 and 4 both finish before a touch glues them together.
        let events = [
            spawn(3, 10),
            start(3, 11),
            End { task: 3, at: 12 },
            spawn(4, 13),
            start(4, 14),
            End { task: 4, at: 15 },
            touch(3, 4, 16),
        ];
        let retired = recon.ingest(&events).unwrap();
        assert_eq!(retired.len(), 1, "the merged component is complete");
        assert_eq!(retired[0].run.tasks.len(), 2);
        assert_eq!(recon.counters().live_tasks, 0);
        assert_eq!(recon.counters().live_components, 0);
    }

    #[test]
    fn bad_level_is_reported() {
        let mut recon = IncrementalReconstructor::new(config(&["only"], 1)).unwrap();
        let events = vec![Spawn {
            task: 1,
            parent: None,
            level: 3,
            at: 0,
        }];
        assert!(matches!(
            recon.ingest(&events).unwrap_err(),
            TraceError::LevelOutOfRange { task: 1, level: 3 }
        ));
    }

    /// The load-bearing equivalence: chunk-feeding a full log through the
    /// streaming path (any chunking) produces the same subgraphs, verdicts,
    /// and (W, S) values as the post-hoc per-component reconstruction.
    #[test]
    fn streaming_matches_post_hoc_components_for_any_chunking() {
        // A two-level workload: request roots spawn children and an I/O
        // future, then touch both.
        let mut events = Vec::new();
        let mut key = 0u64;
        let mut t = 0u64;
        for _ in 0..5 {
            key += 1;
            let root = key;
            let (child, io) = (key + 1, key + 2);
            key += 2;
            events.push(Spawn {
                task: root,
                parent: None,
                level: 1,
                at: t,
            });
            events.push(Start {
                task: root,
                worker: 0,
                at: t + 1,
            });
            events.push(Spawn {
                task: child,
                parent: Some(root),
                level: 0,
                at: t + 2,
            });
            events.push(IoSubmit {
                task: io,
                parent: Some(root),
                level: 1,
                at: t + 3,
            });
            events.push(Start {
                task: child,
                worker: 1,
                at: t + 4,
            });
            events.push(End {
                task: child,
                at: t + 5,
            });
            events.push(IoComplete {
                task: io,
                at: t + 6,
            });
            events.push(Touch {
                toucher: Some(root),
                touched: io,
                at: t + 7,
            });
            events.push(Touch {
                toucher: Some(root),
                touched: child,
                at: t + 8,
            });
            events.push(End {
                task: root,
                at: t + 9,
            });
            t += 10;
        }
        let trace = ExecutionTrace {
            events: events.clone(),
            num_workers: 2,
            level_names: vec!["lo".into(), "hi".into()],
        };
        let post_hoc = trace.reconstruct_components().unwrap();
        assert_eq!(post_hoc.len(), 5);

        for chunk in [1, 3, 7, events.len()] {
            let mut recon = IncrementalReconstructor::new(StreamConfig {
                reorder_window_nanos: 4,
                grace_epochs: 1,
                ..config(&["lo", "hi"], 2)
            })
            .unwrap();
            let mut streamed = Vec::new();
            for batch in events.chunks(chunk) {
                streamed.extend(recon.ingest(batch).unwrap());
            }
            streamed.extend(recon.finalize().unwrap());
            assert_eq!(streamed.len(), post_hoc.len(), "chunk={chunk}");
            for (s, p) in streamed.iter().zip(&post_hoc) {
                assert_eq!(s.run.tasks, p.tasks, "chunk={chunk}");
                assert_eq!(s.run.dag.vertex_count(), p.dag.vertex_count());
                assert_eq!(s.run.schedule.steps, p.schedule.steps);
                let p_observed = p.check_observed();
                let p_replay = p.check_replay(2);
                for (a, b) in s.observed.iter().zip(&p_observed) {
                    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
                }
                for (a, b) in s.replay.iter().zip(&p_replay) {
                    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
                }
            }
            assert_eq!(recon.counters().unresolved_events, 0);
            assert_eq!(recon.counters().live_tasks, 0);
        }
    }

    /// Memory is bounded by in-flight work: under a constant stream of
    /// completing requests, live task count plateaus, and the task table
    /// stops growing because retired slots are reused.
    #[test]
    fn live_task_count_plateaus_under_constant_load() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            grace_epochs: 1,
            ..config(&["only"], 1)
        })
        .unwrap();
        let mut max_live = 0;
        let mut table_after_warmup = 0;
        for i in 0..200u64 {
            let base = 10 * i;
            let task = i + 1;
            let events = vec![
                Spawn {
                    task,
                    parent: None,
                    level: 0,
                    at: base,
                },
                Start {
                    task,
                    worker: 0,
                    at: base + 1,
                },
                End { task, at: base + 2 },
            ];
            recon.ingest(&events).unwrap();
            let live = recon.counters().live_tasks;
            assert_eq!(live, live_slots(&recon), "the gauge counts live tasks");
            max_live = max_live.max(live);
            if i == 10 {
                table_after_warmup = recon.slots.len();
            }
        }
        assert!(max_live <= 2, "live tasks plateau, got {max_live}");
        assert!(table_after_warmup <= 3);
        assert_eq!(
            recon.slots.len(),
            table_after_warmup,
            "retired slots are reused"
        );
        assert_eq!(recon.aggregates().retired_subgraphs, 199);
        let agg = recon.aggregates();
        assert!(agg.levels[0].span_fraction().unwrap() > 0.0);
        assert!(agg.levels[0].mean_slack().unwrap() <= 1.0);
    }
}
