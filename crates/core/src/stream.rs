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
    assemble, trace_domain, Action, ActionKind, ReconstructedRun, TaskKey, TaskRecord,
    TraceBoundReport, TraceError, TraceEvent,
};
use rp_priority::PriorityDomain;
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

/// The state of one live weakly-connected component.
#[derive(Debug)]
struct Component {
    /// Member task keys (unordered; sorted by arrival at retirement).
    members: Vec<TaskKey>,
    /// Members that have not both started and finished yet.
    incomplete: usize,
    /// The epoch at which `incomplete` last reached zero.
    completed_epoch: Option<u64>,
}

/// One live task: its accumulating record plus a commit-order arrival stamp
/// (used to reproduce the post-hoc first-appearance ordering exactly).
#[derive(Debug)]
struct LiveTask {
    record: TaskRecord,
    arrival: u64,
    /// Union-find slot of this task (index into the reconstructor's
    /// ever-growing id space is avoided: slots are per-task keys).
    root_hint: TaskKey,
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
    tasks: HashMap<TaskKey, LiveTask>,
    components: HashMap<TaskKey, Component>,
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
            tasks: HashMap::new(),
            components: HashMap::new(),
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
        let mut roots: Vec<TaskKey> = self.components.keys().copied().collect();
        roots.sort_by_key(|root| self.min_arrival(root));
        let mut reports = Vec::new();
        for root in roots {
            if let Some(report) = self.retire(root)? {
                reports.push(report);
            }
        }
        Ok(reports)
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
            live_tasks: self.tasks.len() as u64,
            live_components: self.components.len() as u64,
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
    /// post-hoc passes 1a/1b/2 per event.  With `force`, an event that
    /// still references an unknown task is resolved the way the post-hoc
    /// path resolves a task absent from the whole log: spawns still declare
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
                let attribute = match parent {
                    Some(p) if self.tasks.contains_key(&p) => Some(p),
                    Some(_) if !force => return Ok(Outcome::Orphan),
                    Some(_) => {
                        // The parent never appeared (lost spawn or retired
                        // component): declare the task parentless, loudly.
                        self.unresolved += 1;
                        None
                    }
                    None => None,
                };
                let is_io = matches!(ev, TraceEvent::IoSubmit { .. });
                if !self.tasks.contains_key(&task) {
                    let arrival = self.next_arrival;
                    self.next_arrival += 1;
                    self.tasks.insert(
                        task,
                        LiveTask {
                            record: TaskRecord::new(level, is_io, at),
                            arrival,
                            root_hint: task,
                        },
                    );
                    self.components.insert(
                        task,
                        Component {
                            members: vec![task],
                            incomplete: 1,
                            completed_epoch: None,
                        },
                    );
                }
                if let Some(p) = attribute {
                    if let Some(parent_task) = self.tasks.get_mut(&p) {
                        parent_task.record.actions.push(Action {
                            at,
                            kind: ActionKind::SpawnChild(task),
                        });
                    }
                    self.union(p, task);
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
                if self.tasks.contains_key(&touched) && self.tasks.contains_key(&t) {
                    if let Some(toucher_task) = self.tasks.get_mut(&t) {
                        toucher_task.record.actions.push(Action {
                            at,
                            kind: ActionKind::Touch(touched),
                        });
                    }
                    self.union(t, touched);
                    self.committed += 1;
                    Ok(Outcome::Applied)
                } else if force {
                    self.unresolved += 1;
                    Ok(Outcome::Applied)
                } else {
                    Ok(Outcome::Orphan)
                }
            }
            TraceEvent::Steal { .. } => {
                self.aggregates.steals += 1;
                self.committed += 1;
                Ok(Outcome::Applied)
            }
        }
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
        let Some(live) = self.tasks.get_mut(&task) else {
            return if force {
                self.unresolved += 1;
                Ok(Outcome::Applied)
            } else {
                Ok(Outcome::Orphan)
            };
        };
        let was_complete = live.record.is_complete();
        if let Some(at) = started {
            live.record.started_at.get_or_insert(at);
        }
        if let Some(at) = finished {
            live.record.finished_at.get_or_insert(at);
        }
        let now_complete = live.record.is_complete();
        self.committed += 1;
        if !was_complete && now_complete {
            let root = self.find(task);
            let epoch = self.epoch;
            if let Some(component) = self.components.get_mut(&root) {
                component.incomplete -= 1;
                if component.incomplete == 0 {
                    component.completed_epoch = Some(epoch);
                }
            }
        }
        Ok(Outcome::Applied)
    }

    /// Union-find `find` over task keys, with path compression through the
    /// per-task `root_hint`.
    fn find(&mut self, task: TaskKey) -> TaskKey {
        let mut path = Vec::new();
        let mut current = task;
        loop {
            let hint = self.tasks[&current].root_hint;
            if hint == current {
                break;
            }
            path.push(current);
            current = hint;
        }
        for k in path {
            self.tasks.get_mut(&k).expect("task on path").root_hint = current;
        }
        current
    }

    /// Merges the components of `a` and `b` (union by member count),
    /// recomputing the merged completion epoch.
    fn union(&mut self, a: TaskKey, b: TaskKey) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) =
            if self.components[&ra].members.len() >= self.components[&rb].members.len() {
                (ra, rb)
            } else {
                (rb, ra)
            };
        let absorbed = self.components.remove(&small).expect("small root exists");
        self.tasks
            .get_mut(&small)
            .expect("small root task")
            .root_hint = big;
        let epoch = self.epoch;
        let target = self.components.get_mut(&big).expect("big root exists");
        target.members.extend(absorbed.members);
        target.incomplete += absorbed.incomplete;
        target.completed_epoch = (target.incomplete == 0).then_some(epoch);
    }

    /// Retires every component whose grace period expired, in
    /// first-appearance order.
    fn retire_ready(&mut self) -> Result<Vec<SubgraphReport>, TraceError> {
        let epoch = self.epoch;
        let grace = self.grace;
        let mut ready: Vec<TaskKey> = self
            .components
            .iter()
            .filter(|(_, c)| {
                c.completed_epoch
                    .is_some_and(|e| epoch.saturating_sub(e) >= grace)
            })
            .map(|(&root, _)| root)
            .collect();
        ready.sort_by_key(|root| self.min_arrival(root));
        let mut reports = Vec::new();
        for root in ready {
            if let Some(report) = self.retire(root)? {
                reports.push(report);
            }
        }
        Ok(reports)
    }

    fn min_arrival(&self, root: &TaskKey) -> u64 {
        self.components[root]
            .members
            .iter()
            .map(|k| self.tasks[k].arrival)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Retires one component: assembles its graph with the shared post-hoc
    /// code, checks Theorem 2.3, folds the verdicts into the aggregates,
    /// and frees every member record.  Returns `None` for a component with
    /// no completed member (nothing to analyse — its tasks are only counted
    /// as skipped).
    fn retire(&mut self, root: TaskKey) -> Result<Option<SubgraphReport>, TraceError> {
        let component = self.components.remove(&root).expect("root exists");
        let mut member_keys = component.members;
        member_keys.sort_by_key(|k| self.tasks[k].arrival);
        let report = {
            let members: Vec<(TaskKey, &TaskRecord)> = member_keys
                .iter()
                .filter(|k| self.tasks[k].record.is_complete())
                .map(|&k| (k, &self.tasks[&k].record))
                .collect();
            let skipped = member_keys.len() - members.len();
            self.aggregates.skipped_tasks += skipped as u64;
            if members.is_empty() {
                None
            } else {
                let run = assemble(&self.domain, self.num_workers, &members, skipped, 0)?;
                let (observed, replay) = run.check_observed_and_replay(self.num_workers);
                Some(SubgraphReport {
                    run,
                    observed,
                    replay,
                    retired_at_epoch: self.epoch,
                })
            }
        };
        for k in &member_keys {
            self.tasks.remove(k);
        }
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
    /// completing requests, live task count plateaus.
    #[test]
    fn live_task_count_plateaus_under_constant_load() {
        let mut recon = IncrementalReconstructor::new(StreamConfig {
            grace_epochs: 1,
            ..config(&["only"], 1)
        })
        .unwrap();
        let mut max_live = 0;
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
            max_live = max_live.max(recon.counters().live_tasks);
        }
        assert!(max_live <= 2, "live tasks plateau, got {max_live}");
        assert_eq!(recon.aggregates().retired_subgraphs, 199);
        let agg = recon.aggregates();
        assert!(agg.levels[0].span_fraction().unwrap() > 0.0);
        assert!(agg.levels[0].mean_slack().unwrap() <= 1.0);
    }
}
