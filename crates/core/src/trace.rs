//! Reconstructing cost graphs from runtime execution traces.
//!
//! The I-Cilk runtime (`rp-icilk`) can record a low-overhead event log of
//! everything it executes: task spawns (`fcreate`), touches (`ftouch`),
//! simulated-I/O submissions and completions, and per-task run spans.  This
//! module is the other half of that loop: it converts such an
//! [`ExecutionTrace`] back into the paper's cost model — a [`CostDag`]
//! `g = (T, Ec, Et, Ew)` plus a concrete [`Schedule`] — so that
//! [`BoundAnalysis`] can check the Theorem 2.3 response-time bound against
//! what the production scheduler *actually did*, not just against synthetic
//! DAGs.
//!
//! # Reconstruction rules
//!
//! * every traced task (and every I/O future) becomes a **thread** whose
//!   priority is the task's priority level;
//! * a task's vertex sequence is: a *begin* vertex (run start), one *action*
//!   vertex per spawn or touch it performed (in recorded order), and an
//!   *end* vertex (run end).  An I/O future is a single-vertex thread at its
//!   completion instant;
//! * each spawn becomes a **strong fcreate edge** from the spawning action
//!   vertex to the child's first vertex;
//! * each touch of an equal-or-higher-priority task becomes a **strong
//!   ftouch edge** (touched thread's last vertex → touching action vertex);
//! * a touch of a *lower*-priority task — a dependence the λ⁴ᵢ type system
//!   would reject as an inversion — is demoted to a **weak edge**: the
//!   observed execution did order the two endpoints (the value was
//!   available), so the reconstructed schedule remains admissible, and the
//!   graph stays well-formed exactly when the program's legal touches are
//!   the only strong dependencies;
//! * the **observed schedule** is the recorded execution linearised: vertex
//!   timestamps are first made causally consistent (every vertex strictly
//!   after all of its parents), then vertices are grouped greedily into
//!   steps of at most `P` vertices such that no step contains both endpoints
//!   of an edge.  The result is always a valid, admissible schedule of the
//!   reconstructed graph; whether it is *prompt* is checked (not assumed),
//!   so a report can honestly distinguish "bound violated" from "hypotheses
//!   did not hold".
//!
//! Any run where the hypotheses hold and the bound still fails
//! ([`BoundReport::is_counterexample`]) is a scheduler or reconstruction bug
//! — the theorem turned into an executable oracle.

use crate::bound::{BoundAnalysis, BoundReport};
use crate::build::{DagBuildError, DagBuilder};
use crate::graph::{CostDag, ThreadId, VertexId};
use crate::schedule::Schedule;
use crate::scheduler::weak_respecting_prompt_schedule;
use rp_priority::PriorityDomain;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a traced task or I/O future, unique within one trace.
pub type TaskKey = u64;

/// One recorded runtime event.  Timestamps are nanoseconds since the
/// recording collector's epoch, from a single monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `fcreate`: a task was spawned at a priority level.  `parent` is the
    /// traced task whose body performed the spawn (`None` when spawned from
    /// outside the runtime, e.g. by a load driver).
    Spawn {
        /// The new task's key.
        task: TaskKey,
        /// The spawning task, if the spawn happened inside a traced task.
        parent: Option<TaskKey>,
        /// Priority level index (0 = lowest).
        level: usize,
        /// When the spawn was recorded.
        at: u64,
    },
    /// A simulated-I/O operation was submitted (`cilk_read`/`cilk_write`).
    IoSubmit {
        /// The I/O future's key.
        task: TaskKey,
        /// The submitting task, if traced.
        parent: Option<TaskKey>,
        /// Priority level index of the I/O future.
        level: usize,
        /// When the submission was recorded.
        at: u64,
    },
    /// A worker began running a task's body.
    Start {
        /// The task.
        task: TaskKey,
        /// Ordinal of the recording worker thread.
        worker: usize,
        /// When the run began.
        at: u64,
    },
    /// A task's body finished (recorded *before* its future is fulfilled, so
    /// every touch of the value is timestamped after the end event).
    End {
        /// The task.
        task: TaskKey,
        /// When the run ended.
        at: u64,
    },
    /// `ftouch` obtained a value.  `toucher` is the traced task whose body
    /// performed the touch (`None` for blocking touches from outside the
    /// runtime, which reconstruct to no edge).
    Touch {
        /// The touching task, if traced.
        toucher: Option<TaskKey>,
        /// The touched task or I/O future.
        touched: TaskKey,
        /// When the touch was recorded.
        at: u64,
    },
    /// A simulated-I/O operation completed (its payload was produced).
    IoComplete {
        /// The I/O future.
        task: TaskKey,
        /// When the completion was recorded.
        at: u64,
    },
    /// A task was stolen from a peer worker's deque (diagnostic only; does
    /// not affect reconstruction).
    Steal {
        /// The stolen task.
        task: TaskKey,
        /// Ordinal of the stealing worker thread.
        thief: usize,
        /// When the steal was recorded.
        at: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp (nanoseconds since the trace epoch).
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::Spawn { at, .. }
            | TraceEvent::IoSubmit { at, .. }
            | TraceEvent::Start { at, .. }
            | TraceEvent::End { at, .. }
            | TraceEvent::Touch { at, .. }
            | TraceEvent::IoComplete { at, .. }
            | TraceEvent::Steal { at, .. } => at,
        }
    }
}

/// A merged, time-ordered event log of one runtime execution, together with
/// the context reconstruction needs.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// The events, sorted by timestamp (stable: events recorded by one
    /// thread keep their relative order on ties).
    pub events: Vec<TraceEvent>,
    /// Number of worker threads of the traced runtime (the `P` of the
    /// observed schedule).
    pub num_workers: usize,
    /// Names of the priority levels, lowest first.
    pub level_names: Vec<String>,
}

/// Errors produced while reconstructing a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace declared no priority levels.
    NoLevels,
    /// The level names were rejected by the priority-domain builder.
    BadLevels(String),
    /// An event referenced a priority level index outside the declared
    /// domain.
    LevelOutOfRange {
        /// The offending task.
        task: TaskKey,
        /// The out-of-range level index.
        level: usize,
    },
    /// No task in the trace ever completed, so there is nothing to analyse.
    Empty,
    /// The reconstructed edge set was rejected by the DAG builder (this
    /// indicates a recording bug: causally ordered events cannot form a
    /// cycle).
    Build(DagBuildError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NoLevels => write!(f, "trace declares no priority levels"),
            TraceError::BadLevels(e) => write!(f, "bad priority level names: {e}"),
            TraceError::LevelOutOfRange { task, level } => {
                write!(f, "task {task} has out-of-range priority level {level}")
            }
            TraceError::Empty => write!(f, "trace contains no completed tasks"),
            TraceError::Build(e) => write!(f, "reconstructed graph rejected: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Metadata about one reconstructed thread (task or I/O future).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedTask {
    /// The runtime's key for the task.
    pub key: TaskKey,
    /// The thread the task became (index into the reconstructed graph).
    pub thread: ThreadId,
    /// Whether this is an I/O future rather than a CPU task.
    pub is_io: bool,
    /// Priority level index.
    pub level: usize,
    /// When the task was spawned / the I/O submitted (trace nanos).
    pub spawned_at: u64,
    /// When the body started running (for I/O: completion time).
    pub started_at: u64,
    /// When the body finished (for I/O: completion time).
    pub finished_at: u64,
}

impl TracedTask {
    /// Wall-clock response time: spawn (readiness) → body finished, in
    /// nanoseconds.  The runtime-level analogue of the schedule's step-count
    /// response time `T(a)`.
    pub fn measured_response_nanos(&self) -> u64 {
        self.finished_at.saturating_sub(self.spawned_at)
    }
}

/// One thread's Theorem 2.3 verdict, paired with the wall-clock measurement
/// from the trace.
#[derive(Debug, Clone)]
pub struct TraceBoundReport {
    /// The task this report is about.
    pub task: TracedTask,
    /// The bound report for the thread against the checked schedule.
    pub report: BoundReport,
}

impl TraceBoundReport {
    /// Observed steps over the boundary-adjusted bound (`≤ 1` when the bound
    /// holds); `None` when the schedule never completed the thread.
    pub fn slack_ratio(&self) -> Option<f64> {
        let observed = self.report.observed? as f64;
        (self.report.adjusted_bound > 0.0).then(|| observed / self.report.adjusted_bound)
    }
}

/// What reconstruction produced: the cost graph, the observed schedule, and
/// per-thread task metadata (indexed by [`ThreadId::index`]).
#[derive(Debug)]
pub struct ReconstructedRun {
    /// The reconstructed cost graph.
    pub dag: CostDag,
    /// The observed execution, linearised into a valid admissible schedule
    /// on `num_workers` cores.
    pub schedule: Schedule,
    /// Per-thread task metadata, indexed by thread id.
    pub tasks: Vec<TracedTask>,
    /// Raw observed timestamp of every vertex, indexed by vertex id.
    pub vertex_times: Vec<u64>,
    /// Tasks dropped because the trace never saw them complete (e.g. a
    /// snapshot taken before drain).
    pub skipped: usize,
    /// Number of recorded work-steals (diagnostic).
    pub steals: u64,
}

impl ReconstructedRun {
    /// Checks Theorem 2.3 for every thread against the **observed**
    /// schedule.  Reports are indexed by thread id.
    pub fn check_observed(&self) -> Vec<TraceBoundReport> {
        self.check_schedule(&BoundAnalysis::new(&self.dag), &self.schedule)
    }

    /// Checks Theorem 2.3 for every thread against a **replayed** prompt
    /// admissible schedule of the reconstructed graph on `num_cores` cores
    /// (the weak-respecting prompt scheduler).  Whenever the replay is
    /// prompt, the theorem applies in full, so any counterexample here is a
    /// bug in the graph reconstruction, the scheduler, or the bound
    /// implementation.
    pub fn check_replay(&self, num_cores: usize) -> Vec<TraceBoundReport> {
        let replay = weak_respecting_prompt_schedule(&self.dag, num_cores);
        self.check_schedule(&BoundAnalysis::new(&self.dag), &replay)
    }

    /// [`check_observed`](Self::check_observed) and
    /// [`check_replay`](Self::check_replay) over one analysis of the graph:
    /// the same two report lists, for the cost of one.
    pub fn check_observed_and_replay(
        &self,
        num_cores: usize,
    ) -> (Vec<TraceBoundReport>, Vec<TraceBoundReport>) {
        let analysis = BoundAnalysis::new(&self.dag);
        let replay = weak_respecting_prompt_schedule(&self.dag, num_cores);
        (
            self.check_schedule(&analysis, &self.schedule),
            self.check_schedule(&analysis, &replay),
        )
    }

    fn check_schedule(
        &self,
        analysis: &BoundAnalysis,
        schedule: &Schedule,
    ) -> Vec<TraceBoundReport> {
        analysis
            .check_all(schedule)
            .into_iter()
            .zip(&self.tasks)
            .map(|(report, task)| TraceBoundReport {
                task: task.clone(),
                report,
            })
            .collect()
    }
}

/// A task's dense index in a reconstructor's task table: first-appearance
/// order on the post-hoc path, a reusable table slot on the streaming one.
/// Actions name the task they spawn or touch by slot.
pub(crate) type Slot = u32;

/// Per-task accumulation while walking the event log.  Shared between the
/// post-hoc passes below and the streaming reconstructor
/// ([`crate::stream`]), so both paths assemble identical graphs.
#[derive(Debug)]
pub(crate) struct TaskRecord {
    pub(crate) level: usize,
    pub(crate) is_io: bool,
    pub(crate) spawned_at: u64,
    pub(crate) started_at: Option<u64>,
    pub(crate) finished_at: Option<u64>,
    /// Spawns and touches performed by this task's body, in recorded order.
    pub(crate) actions: Vec<Action>,
}

impl TaskRecord {
    pub(crate) fn new(level: usize, is_io: bool, spawned_at: u64) -> Self {
        TaskRecord {
            level,
            is_io,
            spawned_at,
            started_at: None,
            finished_at: None,
            actions: Vec::new(),
        }
    }

    /// Whether the trace saw this task both start and finish.
    pub(crate) fn is_complete(&self) -> bool {
        self.started_at.is_some() && self.finished_at.is_some()
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ActionKind {
    SpawnChild(Slot),
    Touch(Slot),
}

impl ActionKind {
    /// The slot of the spawned or touched task.
    pub(crate) fn target(self) -> Slot {
        match self {
            ActionKind::SpawnChild(s) | ActionKind::Touch(s) => s,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Action {
    pub(crate) at: u64,
    pub(crate) kind: ActionKind,
}

/// Builds the total-order priority domain a trace's level names declare.
pub(crate) fn trace_domain(level_names: &[String]) -> Result<PriorityDomain, TraceError> {
    if level_names.is_empty() {
        return Err(TraceError::NoLevels);
    }
    PriorityDomain::total_order(level_names.iter().cloned())
        .map_err(|e| TraceError::BadLevels(e.to_string()))
}

impl ExecutionTrace {
    /// Reconstructs the cost graph and observed schedule from the event
    /// log.
    ///
    /// Tasks that never completed are skipped (counted in
    /// [`ReconstructedRun::skipped`]); edges referencing skipped or unknown
    /// tasks are dropped.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the level declaration is unusable, an
    /// event references an out-of-range level, or no task ever completed.
    pub fn reconstruct(&self) -> Result<ReconstructedRun, TraceError> {
        let domain = trace_domain(&self.level_names)?;
        let (records, steals) = collect_records(&self.events, &domain)?;

        // Keep only completed tasks.
        let members: Vec<Member<'_>> = (0..records.len() as Slot)
            .map(|slot| Member::of(&records, slot))
            .filter(|m| m.record.is_complete())
            .collect();
        let skipped = records.len() - members.len();
        if members.is_empty() {
            return Err(TraceError::Empty);
        }
        assemble(&domain, self.num_workers, &members, skipped, steals)
    }

    /// Reconstructs each **weakly-connected component** of the trace — each
    /// request subgraph — as its own [`ReconstructedRun`], in order of the
    /// component's first appearance in the log.
    ///
    /// This is the post-hoc mirror of the streaming reconstructor
    /// ([`crate::stream::IncrementalReconstructor`]), which retires one
    /// component at a time: both call the same graph-assembly code, so
    /// per-component verdicts and (W, S) values are identical by
    /// construction.  Note that a component's bound reports can
    /// legitimately differ from the full-graph [`ExecutionTrace::reconstruct`]
    /// reports, because competitor work `W` counts vertices of *other*
    /// components when they are present in the same graph.
    ///
    /// Tasks that never completed are excluded from their component's graph
    /// (counted in that component's [`ReconstructedRun::skipped`]) but still
    /// glue components together for partitioning purposes.  Components with
    /// no completed task at all are dropped.  [`ReconstructedRun::steals`] is
    /// reported on the first component (steals are a whole-run diagnostic,
    /// not attributable to one request).
    ///
    /// # Errors
    ///
    /// As for [`ExecutionTrace::reconstruct`].
    pub fn reconstruct_components(&self) -> Result<Vec<ReconstructedRun>, TraceError> {
        let domain = trace_domain(&self.level_names)?;
        let (records, steals) = collect_records(&self.events, &domain)?;

        // Union-find over slots: spawns and touches glue the performing task
        // to the created/touched one.
        let mut uf = UnionFind::new(records.len());
        for (slot, (_, record)) in records.iter().enumerate() {
            for action in &record.actions {
                uf.union(slot, action.kind.target() as usize);
            }
        }

        // Group members by component root, in first-appearance order of both
        // the component and its members.
        let mut component_of_root = vec![usize::MAX; records.len()];
        let mut components: Vec<Vec<Slot>> = Vec::new();
        for slot in 0..records.len() {
            let root = uf.find(slot);
            if component_of_root[root] == usize::MAX {
                component_of_root[root] = components.len();
                components.push(Vec::new());
            }
            components[component_of_root[root]].push(slot as Slot);
        }

        let mut runs = Vec::with_capacity(components.len());
        let mut members: Vec<Member<'_>> = Vec::new();
        for slots in &components {
            members.clear();
            members.extend(
                slots
                    .iter()
                    .map(|&slot| Member::of(&records, slot))
                    .filter(|m| m.record.is_complete()),
            );
            if members.is_empty() {
                continue;
            }
            let skipped = slots.len() - members.len();
            let run_steals = if runs.is_empty() { steals } else { 0 };
            runs.push(assemble(
                &domain,
                self.num_workers,
                &members,
                skipped,
                run_steals,
            )?);
        }
        if runs.is_empty() {
            return Err(TraceError::Empty);
        }
        Ok(runs)
    }
}

/// Minimal union-find (path halving + union by size) used for component
/// partitioning.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }
}

/// Every declared task's key and record, indexed by slot.
type Records = Vec<(TaskKey, TaskRecord)>;

/// Walks a complete event log into per-task records, indexed by slot in
/// first-appearance order, and counts the steals.
fn collect_records(
    events: &[TraceEvent],
    domain: &PriorityDomain,
) -> Result<(Records, u64), TraceError> {
    // Pass 1: create a record per declared task, in first-appearance
    // order.  Done before any Start/End is applied so a cross-shard
    // timestamp tie that orders a task's `Start` ahead of its `Spawn`
    // in the merged log cannot silently drop the task.
    let mut slot_of: HashMap<TaskKey, Slot> = HashMap::new();
    let mut records: Records = Vec::new();
    let mut steals = 0u64;
    for ev in events {
        match *ev {
            TraceEvent::Spawn {
                task, level, at, ..
            }
            | TraceEvent::IoSubmit {
                task, level, at, ..
            } => {
                if level >= domain.len() {
                    return Err(TraceError::LevelOutOfRange { task, level });
                }
                slot_of.entry(task).or_insert_with(|| {
                    let is_io = matches!(ev, TraceEvent::IoSubmit { .. });
                    records.push((task, TaskRecord::new(level, is_io, at)));
                    (records.len() - 1) as Slot
                });
            }
            TraceEvent::Steal { .. } => steals += 1,
            _ => {}
        }
    }

    // Pass 2: apply run spans and completions, and attribute spawn/touch
    // actions to the performing task.
    let slot = |key: TaskKey| slot_of.get(&key).copied();
    for ev in events {
        match *ev {
            TraceEvent::Start { task, at, .. } => {
                if let Some(s) = slot(task) {
                    records[s as usize].1.started_at.get_or_insert(at);
                }
            }
            TraceEvent::End { task, at } => {
                if let Some(s) = slot(task) {
                    records[s as usize].1.finished_at.get_or_insert(at);
                }
            }
            TraceEvent::IoComplete { task, at } => {
                if let Some(s) = slot(task) {
                    let r = &mut records[s as usize].1;
                    r.started_at.get_or_insert(at);
                    r.finished_at.get_or_insert(at);
                }
            }
            TraceEvent::Spawn {
                task,
                parent: Some(p),
                at,
                ..
            }
            | TraceEvent::IoSubmit {
                task,
                parent: Some(p),
                at,
                ..
            } => {
                if let (Some(child), Some(parent)) = (slot(task), slot(p)) {
                    records[parent as usize].1.actions.push(Action {
                        at,
                        kind: ActionKind::SpawnChild(child),
                    });
                }
            }
            TraceEvent::Touch {
                toucher: Some(t),
                touched,
                at,
            } => {
                if let (Some(touched), Some(toucher)) = (slot(touched), slot(t)) {
                    records[toucher as usize].1.actions.push(Action {
                        at,
                        kind: ActionKind::Touch(touched),
                    });
                }
            }
            _ => {}
        }
    }

    Ok((records, steals))
}

/// One complete task handed to [`assemble`]: its key, its slot in the
/// caller's task table (what its peers' actions name it by), and its
/// record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member<'a> {
    pub(crate) key: TaskKey,
    pub(crate) slot: Slot,
    pub(crate) record: &'a TaskRecord,
}

impl<'a> Member<'a> {
    fn of(records: &'a Records, slot: Slot) -> Self {
        let (key, record) = &records[slot as usize];
        Member {
            key: *key,
            slot,
            record,
        }
    }
}

/// Builds the cost graph and observed schedule for the given complete
/// tasks (`members`, in thread order); shared verbatim by the post-hoc and
/// streaming paths.  Edges to tasks outside `members` are dropped.  Each
/// member's actions are taken in timestamp order: as recorded when they
/// already are (always on the post-hoc path, whose log is time-sorted), or
/// from a stably sorted copy (a streaming commit can apply a late-resolved
/// orphan event out of order).
pub(crate) fn assemble(
    domain: &PriorityDomain,
    num_workers: usize,
    members: &[Member<'_>],
    skipped: usize,
    steals: u64,
) -> Result<ReconstructedRun, TraceError> {
    let actions: Vec<Cow<'_, [Action]>> = members
        .iter()
        .map(|m| {
            let actions = &m.record.actions;
            if actions.is_sorted_by_key(|a| a.at) {
                Cow::Borrowed(actions.as_slice())
            } else {
                let mut sorted = actions.clone();
                sorted.sort_by_key(|a| a.at);
                Cow::Owned(sorted)
            }
        })
        .collect();
    // Slot → thread index, sorted by slot for lookups.
    let mut thread_by_slot: Vec<(Slot, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, m)| (m.slot, i))
        .collect();
    thread_by_slot.sort_unstable();
    let thread_of = |slot: Slot| {
        thread_by_slot
            .binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .map(|i| thread_by_slot[i].1)
    };

    // Pass 3: build the graph.  Threads in `members` order; vertices carry
    // their observed timestamps; action vertex timestamps are clamped into
    // the task's [start, end] span to tolerate clock coarseness.  A
    // thread's vertices are numbered consecutively, so its `k`-th action
    // vertex is `begin + 1 + k`.
    let vertex_count = members
        .iter()
        .zip(&actions)
        .map(|(m, a)| if m.record.is_io { 1 } else { a.len() + 2 })
        .sum();
    let mut builder = DagBuilder::new(domain.clone());
    let mut vertex_times: Vec<u64> = Vec::with_capacity(vertex_count);
    let mut tasks: Vec<TracedTask> = Vec::with_capacity(members.len());
    // Each thread's first and last vertex (the last is needed before
    // `build()` for weak edges).
    let mut thread_ends: Vec<(VertexId, VertexId)> = Vec::with_capacity(members.len());
    for (i, m) in members.iter().enumerate() {
        let r = m.record;
        let priority = domain.by_index(r.level);
        let name = if r.is_io {
            format!("io{i}")
        } else {
            format!("task{i}")
        };
        let t = builder.thread(name, priority);
        let started = r.started_at.expect("members are complete");
        let finished = r.finished_at.expect("members are complete").max(started);
        let ends = if r.is_io {
            // A single vertex at the completion instant.
            let v = builder.vertex_labeled(t, Some("io"));
            vertex_times.push(finished);
            (v, v)
        } else {
            let begin = builder.vertex_labeled(t, Some("begin"));
            vertex_times.push(started);
            for a in actions[i].iter() {
                let label = match a.kind {
                    ActionKind::SpawnChild(_) => "spawn",
                    ActionKind::Touch(_) => "touch",
                };
                builder.vertex_labeled(t, Some(label));
                vertex_times.push(a.at.clamp(started, finished));
            }
            let end = builder.vertex_labeled(t, Some("end"));
            vertex_times.push(finished);
            (begin, end)
        };
        thread_ends.push(ends);
        tasks.push(TracedTask {
            key: m.key,
            thread: t,
            is_io: r.is_io,
            level: r.level,
            spawned_at: r.spawned_at,
            started_at: started,
            finished_at: finished,
        });
    }

    // Pass 4: edges.
    for (i, m) in members.iter().enumerate() {
        let r = m.record;
        if r.is_io {
            continue;
        }
        let my_priority = domain.by_index(r.level);
        let begin = thread_ends[i].0.index();
        for (k, a) in actions[i].iter().enumerate() {
            let v = VertexId((begin + 1 + k) as u32);
            let Some(j) = thread_of(a.kind.target()) else {
                continue;
            };
            match a.kind {
                ActionKind::SpawnChild(_) => {
                    builder
                        .fcreate(v, tasks[j].thread)
                        .map_err(TraceError::Build)?;
                }
                ActionKind::Touch(_) => {
                    let touched_priority = domain.by_index(members[j].record.level);
                    if domain.leq(my_priority, touched_priority) {
                        // A legal touch: a strong ftouch edge.
                        builder
                            .ftouch(tasks[j].thread, v)
                            .map_err(TraceError::Build)?;
                    } else {
                        // An inverting dependence: demoted to a weak edge
                        // from the touched thread's last vertex so the graph
                        // stays well-formed while the observed ordering is
                        // still recorded.
                        builder
                            .weak(thread_ends[j].1, v)
                            .map_err(TraceError::Build)?;
                    }
                }
            }
        }
    }

    let dag = builder.build().map_err(TraceError::Build)?;
    let schedule = observed_schedule(&dag, &vertex_times, num_workers.max(1));
    Ok(ReconstructedRun {
        dag,
        schedule,
        tasks,
        vertex_times,
        skipped,
        steals,
    })
}

/// Linearises observed vertex timestamps into a valid admissible schedule:
///
/// 1. *causal adjustment*: in topological order, each vertex's time becomes
///    `max(observed, max(parent adjusted) + 1)` over strong **and** weak
///    parents, repairing sub-tick clock ties without reordering anything the
///    clock did resolve;
/// 2. vertices are sorted by `(adjusted time, vertex id)` — a linear
///    extension, since every edge strictly increases adjusted time;
/// 3. greedy grouping packs consecutive vertices into steps of at most
///    `num_cores`, starting a new step whenever a vertex has a parent in the
///    current step.
fn observed_schedule(dag: &CostDag, times: &[u64], num_cores: usize) -> Schedule {
    let order = crate::analysis::topological_order(dag);
    let mut adjusted: Vec<u64> = times.to_vec();
    for &v in &order {
        let mut t = times[v.index()];
        for e in dag.in_edges(v) {
            t = t.max(adjusted[e.from.index()].saturating_add(1));
        }
        adjusted[v.index()] = t;
    }
    let mut by_time: Vec<VertexId> = dag.vertices().collect();
    by_time.sort_by_key(|v| (adjusted[v.index()], v.0));

    let mut steps: Vec<Vec<VertexId>> = Vec::new();
    let mut current: Vec<VertexId> = Vec::new();
    let mut in_current = vec![false; dag.vertex_count()];
    for v in by_time {
        let parent_in_step = dag.in_edges(v).any(|e| in_current[e.from.index()]);
        if current.len() >= num_cores || parent_in_step {
            for &u in &current {
                in_current[u.index()] = false;
            }
            steps.push(std::mem::take(&mut current));
        }
        in_current[v.index()] = true;
        current.push(v);
    }
    if !current.is_empty() {
        steps.push(current);
    }
    Schedule { num_cores, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellformed::check_well_formed;

    fn trace(events: Vec<TraceEvent>, workers: usize, levels: &[&str]) -> ExecutionTrace {
        ExecutionTrace {
            events,
            num_workers: workers,
            level_names: levels.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// External driver spawns task 1; task 1 spawns task 2 and touches it.
    fn chain_events() -> Vec<TraceEvent> {
        use TraceEvent::*;
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
                parent: Some(1),
                level: 0,
                at: 20,
            },
            Start {
                task: 2,
                worker: 0,
                at: 30,
            },
            End { task: 2, at: 40 },
            Touch {
                toucher: Some(1),
                touched: 2,
                at: 50,
            },
            End { task: 1, at: 60 },
        ]
    }

    #[test]
    fn chain_reconstructs_well_formed_dag_and_valid_schedule() {
        let run = trace(chain_events(), 1, &["only"]).reconstruct().unwrap();
        assert_eq!(run.dag.thread_count(), 2);
        // task0: begin, spawn, touch, end; task1: begin, end.
        assert_eq!(run.dag.vertex_count(), 6);
        assert_eq!(run.dag.create_edges().len(), 1);
        assert_eq!(run.dag.touch_edges().len(), 1);
        assert_eq!(run.dag.weak_edges().len(), 0);
        assert_eq!(run.skipped, 0);
        assert!(check_well_formed(&run.dag).is_ok());
        run.schedule.validate(&run.dag).unwrap();
        assert!(run.schedule.is_admissible(&run.dag));
        assert!(run.schedule.is_prompt(&run.dag), "single level, P=1");
        // Measured response covers spawn → end.
        assert_eq!(run.tasks[0].measured_response_nanos(), 60);
        assert_eq!(run.tasks[1].measured_response_nanos(), 20);
    }

    #[test]
    fn chain_bounds_hold_on_observed_and_replay() {
        let run = trace(chain_events(), 1, &["only"]).reconstruct().unwrap();
        for reports in [run.check_observed(), run.check_replay(1)] {
            assert_eq!(reports.len(), 2);
            for r in &reports {
                assert!(r.report.hypotheses_hold(), "{r:?}");
                assert!(r.report.bound_holds(), "{r:?}");
                assert!(!r.report.is_counterexample());
                assert!(r.slack_ratio().unwrap() <= 1.0);
            }
        }
    }

    /// A high-priority task touches a low-priority one: illegal as a
    /// strong edge, demoted to weak.
    fn inverting_touch_events() -> Vec<TraceEvent> {
        use TraceEvent::*;
        vec![
            Spawn {
                task: 1,
                parent: None,
                level: 1,
                at: 0,
            },
            Start {
                task: 1,
                worker: 0,
                at: 10,
            },
            Spawn {
                task: 2,
                parent: Some(1),
                level: 0,
                at: 20,
            },
            Start {
                task: 2,
                worker: 0,
                at: 30,
            },
            End { task: 2, at: 40 },
            Touch {
                toucher: Some(1),
                touched: 2,
                at: 50,
            },
            End { task: 1, at: 60 },
        ]
    }

    #[test]
    fn inverting_touch_becomes_weak_edge() {
        let run = trace(inverting_touch_events(), 1, &["lo", "hi"])
            .reconstruct()
            .unwrap();
        assert_eq!(run.dag.touch_edges().len(), 0);
        assert_eq!(run.dag.weak_edges().len(), 1);
        assert!(
            check_well_formed(&run.dag).is_ok(),
            "weak demotion keeps the graph well-formed"
        );
        run.schedule.validate(&run.dag).unwrap();
        assert!(
            run.schedule.is_admissible(&run.dag),
            "the observed order satisfied the weak edge"
        );
    }

    /// One analysis serving both schedules gives exactly the reports of
    /// two separate calls.
    #[test]
    fn shared_analysis_reports_equal_separate_calls() {
        let runs = [
            trace(chain_events(), 1, &["only"]),
            trace(inverting_touch_events(), 1, &["lo", "hi"]),
        ]
        .map(|t| t.reconstruct().unwrap());
        for run in &runs {
            for p in 1..=3 {
                assert_eq!(
                    format!("{:?}", run.check_observed_and_replay(p)),
                    format!("{:?}", (run.check_observed(), run.check_replay(p)))
                );
            }
        }
    }

    #[test]
    fn io_future_becomes_single_vertex_thread() {
        use TraceEvent::*;
        let events = vec![
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
            IoSubmit {
                task: 2,
                parent: Some(1),
                level: 0,
                at: 20,
            },
            IoComplete { task: 2, at: 45 },
            Touch {
                toucher: Some(1),
                touched: 2,
                at: 50,
            },
            End { task: 1, at: 60 },
        ];
        let run = trace(events, 1, &["only"]).reconstruct().unwrap();
        assert_eq!(run.dag.thread_count(), 2);
        let io = run.tasks.iter().find(|t| t.is_io).unwrap();
        assert_eq!(run.dag.thread(io.thread).vertices.len(), 1);
        assert_eq!(io.measured_response_nanos(), 25);
        assert_eq!(run.dag.create_edges().len(), 1);
        assert_eq!(run.dag.touch_edges().len(), 1);
        assert!(check_well_formed(&run.dag).is_ok());
        run.schedule.validate(&run.dag).unwrap();
        for r in run.check_observed() {
            assert!(!r.report.is_counterexample());
        }
    }

    #[test]
    fn incomplete_tasks_are_skipped() {
        use TraceEvent::*;
        let events = vec![
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
            // Task 2 spawned but never ran.
            Spawn {
                task: 2,
                parent: Some(1),
                level: 0,
                at: 20,
            },
            End { task: 1, at: 30 },
        ];
        let run = trace(events, 1, &["only"]).reconstruct().unwrap();
        assert_eq!(run.skipped, 1);
        assert_eq!(run.dag.thread_count(), 1);
        assert_eq!(
            run.dag.create_edges().len(),
            0,
            "edge to skipped task dropped"
        );
        run.schedule.validate(&run.dag).unwrap();
    }

    #[test]
    fn errors_are_reported() {
        use TraceEvent::*;
        assert_eq!(
            trace(vec![], 1, &[]).reconstruct().unwrap_err(),
            TraceError::NoLevels
        );
        assert_eq!(
            trace(vec![], 1, &["only"]).reconstruct().unwrap_err(),
            TraceError::Empty
        );
        let bad_level = vec![Spawn {
            task: 1,
            parent: None,
            level: 7,
            at: 0,
        }];
        assert!(matches!(
            trace(bad_level, 1, &["only"]).reconstruct().unwrap_err(),
            TraceError::LevelOutOfRange { task: 1, level: 7 }
        ));
        let dup = trace(vec![], 1, &["a", "a"]).reconstruct().unwrap_err();
        assert!(matches!(dup, TraceError::BadLevels(_)));
        // Display impls render.
        for e in [
            TraceError::NoLevels,
            TraceError::Empty,
            TraceError::LevelOutOfRange { task: 1, level: 7 },
            TraceError::BadLevels("dup".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Spawn and Start land in different shards (different recording
    /// threads), so a timestamp tie can order Start *before* Spawn in the
    /// merged log.  The task must still reconstruct, not be skipped.
    #[test]
    fn start_ordered_before_spawn_on_a_tie_still_reconstructs() {
        use TraceEvent::*;
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
            IoComplete { task: 2, at: 20 },
            IoSubmit {
                task: 2,
                parent: Some(1),
                level: 0,
                at: 20,
            },
            End { task: 1, at: 30 },
        ];
        let run = trace(events, 1, &["only"]).reconstruct().unwrap();
        assert_eq!(run.skipped, 0, "tied events must not drop tasks");
        assert_eq!(run.dag.thread_count(), 2);
        assert_eq!(run.dag.create_edges().len(), 1);
        run.schedule.validate(&run.dag).unwrap();
    }

    #[test]
    fn clock_ties_are_causally_repaired() {
        use TraceEvent::*;
        // Coarse clock: everything at t=0.  The schedule must still be a
        // valid linear extension.
        let events = vec![
            Spawn {
                task: 1,
                parent: None,
                level: 0,
                at: 0,
            },
            Start {
                task: 1,
                worker: 0,
                at: 0,
            },
            Spawn {
                task: 2,
                parent: Some(1),
                level: 0,
                at: 0,
            },
            Start {
                task: 2,
                worker: 0,
                at: 0,
            },
            End { task: 2, at: 0 },
            Touch {
                toucher: Some(1),
                touched: 2,
                at: 0,
            },
            End { task: 1, at: 0 },
        ];
        let run = trace(events, 2, &["only"]).reconstruct().unwrap();
        run.schedule.validate(&run.dag).unwrap();
        assert!(run.schedule.is_admissible(&run.dag));
    }

    /// Causal adjustment moves a tied vertex one tick past its parent and
    /// no further: it then ties with a vertex observed a tick later, and
    /// the lower vertex id goes first.
    #[test]
    fn causal_adjustment_moves_a_tied_vertex_one_tick() {
        let dom = PriorityDomain::single();
        let mut b = DagBuilder::new(dom.clone());
        let a = b.thread("a", dom.by_index(0));
        let (a0, a1) = (b.vertex(a), b.vertex(a));
        let c = b.thread("c", dom.by_index(0));
        let c0 = b.vertex(c);
        let dag = b.build().unwrap();
        let schedule = observed_schedule(&dag, &[0, 0, 1], 2);
        assert_eq!(schedule.steps, vec![vec![a0], vec![a1, c0]]);
    }

    #[test]
    fn grouping_respects_core_limit() {
        use TraceEvent::*;
        // Four independent externally-spawned tasks at overlapping times on
        // two workers: no step may exceed two vertices.
        let mut events = Vec::new();
        for k in 1..=4u64 {
            events.push(Spawn {
                task: k,
                parent: None,
                level: 0,
                at: 0,
            });
            events.push(Start {
                task: k,
                worker: (k % 2) as usize,
                at: 10,
            });
            events.push(End { task: k, at: 20 });
        }
        let run = trace(events, 2, &["only"]).reconstruct().unwrap();
        run.schedule.validate(&run.dag).unwrap();
        assert!(run.schedule.steps.iter().all(|s| s.len() <= 2));
        assert_eq!(run.schedule.num_cores, 2);
    }
}
