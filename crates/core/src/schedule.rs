//! Schedules of cost graphs: validity, admissibility, promptness, and
//! response time.

use crate::graph::{CostDag, ThreadId, VertexId};
use std::fmt;

/// A schedule: the assignment of vertices to processing cores at each time
/// step.  `steps[j]` lists the vertices executed during step `j`
/// (at most `num_cores` of them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of processing cores `P`.
    pub num_cores: usize,
    /// Vertices executed per step.
    pub steps: Vec<Vec<VertexId>>,
}

/// Reasons a schedule fails validation against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A step executes more vertices than there are cores.
    TooManyPerStep {
        /// The offending step index.
        step: usize,
    },
    /// A vertex was executed more than once, or never.
    NotExactlyOnce(VertexId),
    /// A vertex was executed before one of its strong parents.
    DependenceViolated {
        /// The parent that had not yet executed.
        parent: VertexId,
        /// The vertex that ran too early.
        child: VertexId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TooManyPerStep { step } => {
                write!(f, "step {step} assigns more vertices than cores")
            }
            ScheduleError::NotExactlyOnce(v) => {
                write!(f, "vertex {v} is not executed exactly once")
            }
            ScheduleError::DependenceViolated { parent, child } => {
                write!(
                    f,
                    "vertex {child} executed before its strong parent {parent}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Creates an empty schedule for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        Schedule {
            num_cores,
            steps: Vec::new(),
        }
    }

    /// Total number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step at which each vertex was executed (`None` if never).
    pub fn step_of(&self, dag: &CostDag) -> Vec<Option<usize>> {
        let mut step_of = vec![None; dag.vertex_count()];
        for (j, step) in self.steps.iter().enumerate() {
            for &v in step {
                step_of[v.index()] = Some(j);
            }
        }
        step_of
    }

    /// Checks that the schedule is a valid schedule of `dag`: every vertex
    /// runs exactly once, no step uses more than `num_cores` cores, and every
    /// vertex runs strictly after all of its *strong* parents.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, dag: &CostDag) -> Result<(), ScheduleError> {
        let mut count = vec![0usize; dag.vertex_count()];
        for (j, step) in self.steps.iter().enumerate() {
            if step.len() > self.num_cores {
                return Err(ScheduleError::TooManyPerStep { step: j });
            }
            for &v in step {
                count[v.index()] += 1;
            }
        }
        for v in dag.vertices() {
            if count[v.index()] != 1 {
                return Err(ScheduleError::NotExactlyOnce(v));
            }
        }
        let step_of = self.step_of(dag);
        for e in dag.strong_edges() {
            let (ps, cs) = (step_of[e.from.index()], step_of[e.to.index()]);
            match (ps, cs) {
                (Some(p), Some(c)) if p < c => {}
                _ => {
                    return Err(ScheduleError::DependenceViolated {
                        parent: e.from,
                        child: e.to,
                    })
                }
            }
        }
        Ok(())
    }

    /// Whether the schedule is *admissible* for `dag`: for every weak edge
    /// `(u, u')`, `u` executes strictly before `u'` (Section 2.2).
    pub fn is_admissible(&self, dag: &CostDag) -> bool {
        admissible_in(dag, &self.step_of(dag))
    }

    /// Whether the schedule is *prompt* for `dag`: at every step, ready
    /// vertices are assigned in priority order — no assigned vertex is
    /// strictly lower priority than an unassigned ready vertex, and cores are
    /// only left idle when no ready vertices remain.
    ///
    /// The ready set is kept as an unordered list with a position index:
    /// it is seeded once, each executed vertex leaves by `swap_remove`, and
    /// newly ready vertices join as their last strong parent executes.  The
    /// check is therefore `O(V + E)` plus the priority comparisons, at most
    /// `P` times the ready-set size per step.
    pub fn is_prompt(&self, dag: &CostDag) -> bool {
        const ABSENT: usize = usize::MAX;
        let dom = dag.domain();
        let mut tracker = crate::adjacency::ReadyTracker::new(dag);
        let mut ready = tracker.ready_set();
        let mut pos = vec![ABSENT; dag.vertex_count()];
        for (i, v) in ready.iter().enumerate() {
            pos[v.index()] = i;
        }
        for step in &self.steps {
            let assigned: &[VertexId] = step;
            // All assigned vertices must be ready.
            if !assigned.iter().all(|&v| tracker.is_ready(v)) {
                return false;
            }
            // Cores may only idle if every ready vertex was assigned.
            if assigned.len() < self.num_cores.min(ready.len()) {
                return false;
            }
            // No unassigned ready vertex is strictly higher priority than an
            // assigned one.
            for &u in assigned {
                for &v in &ready {
                    if !assigned.contains(&v) && dom.lt(dag.priority_of(u), dag.priority_of(v)) {
                        return false;
                    }
                }
            }
            for &v in assigned {
                let i = std::mem::replace(&mut pos[v.index()], ABSENT);
                if i != ABSENT {
                    ready.swap_remove(i);
                    if let Some(&moved) = ready.get(i) {
                        pos[moved.index()] = i;
                    }
                }
                tracker.execute_with(dag, v, |w| {
                    pos[w.index()] = ready.len();
                    ready.push(w);
                });
            }
        }
        true
    }

    /// The response time `T(a)` of thread `a` under this schedule: the number
    /// of steps between when `a`'s first vertex becomes ready and when its
    /// last vertex is executed, inclusive (Section 2.3).
    ///
    /// Returns `None` if the thread's last vertex is never executed.
    pub fn response_time(&self, dag: &CostDag, a: ThreadId) -> Option<usize> {
        response_time_in(dag, &self.step_of(dag), a)
    }

    /// The number of steps during which at least one vertex of thread `a`
    /// could still run (from `s` ready to `t` executed); alias of
    /// [`response_time`](Self::response_time) kept for readability at call
    /// sites measuring responsiveness.
    pub fn active_steps(&self, dag: &CostDag, a: ThreadId) -> Option<usize> {
        self.response_time(dag, a)
    }

    /// Utilization: fraction of core-steps that execute a vertex.
    pub fn utilization(&self) -> f64 {
        if self.steps.is_empty() || self.num_cores == 0 {
            return 0.0;
        }
        let busy: usize = self.steps.iter().map(Vec::len).sum();
        busy as f64 / (self.steps.len() * self.num_cores) as f64
    }
}

/// [`Schedule::is_admissible`] given the schedule's
/// [`step_of`](Schedule::step_of), so a caller asking several questions of
/// one schedule computes that map once.
pub(crate) fn admissible_in(dag: &CostDag, step_of: &[Option<usize>]) -> bool {
    dag.weak_edges()
        .iter()
        .all(|&(u, v)| match (step_of[u.index()], step_of[v.index()]) {
            (Some(su), Some(sv)) => su < sv,
            _ => false,
        })
}

/// [`Schedule::response_time`] given the schedule's
/// [`step_of`](Schedule::step_of).
pub(crate) fn response_time_in(
    dag: &CostDag,
    step_of: &[Option<usize>],
    a: ThreadId,
) -> Option<usize> {
    let s = dag.first_vertex(a);
    let t = dag.last_vertex(a);
    let end = step_of[t.index()]?;
    // s becomes ready at the first step at the start of which all of its
    // strong parents have executed.
    let mut ready_step = 0;
    for p in dag.strong_parents(s) {
        ready_step = ready_step.max(step_of[p.index()]? + 1);
    }
    Some(end.saturating_sub(ready_step) + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use crate::random::{sized_dag, RandomDagConfig, RandomDagGenerator};
    use crate::scheduler::{prompt_schedule, weak_respecting_prompt_schedule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rp_priority::PriorityDomain;

    /// The promptness check as it was before the incremental ready list,
    /// kept verbatim as an executable specification: it rescans every
    /// vertex for the ready set at each step.
    fn is_prompt_reference(schedule: &Schedule, dag: &CostDag) -> bool {
        let dom = dag.domain();
        let mut tracker = crate::adjacency::ReadyTracker::new(dag);
        for step in &schedule.steps {
            let assigned: &[VertexId] = step;
            // All assigned vertices must be ready.
            if !assigned.iter().all(|&v| tracker.is_ready(v)) {
                return false;
            }
            let ready = tracker.ready_set();
            // Cores may only idle if every ready vertex was assigned.
            if assigned.len() < schedule.num_cores.min(ready.len()) {
                return false;
            }
            // No unassigned ready vertex is strictly higher priority than an
            // assigned one.
            for &u in assigned {
                for &v in &ready {
                    if !assigned.contains(&v) && dom.lt(dag.priority_of(u), dag.priority_of(v)) {
                        return false;
                    }
                }
            }
            for &v in assigned {
                tracker.execute(dag, v);
            }
        }
        true
    }

    /// Random DAGs over one to four levels, sized DAGs, and the paper's
    /// figures.
    fn differential_corpus() -> Vec<CostDag> {
        let mut corpus = Vec::new();
        for seed in 0..24u64 {
            let config = RandomDagConfig {
                priority_levels: 1 + (seed as usize % 4),
                max_depth: 3,
                max_children: 3,
                max_thread_len: 4,
                touch_probability: 0.6,
                weak_edge_probability: 0.4,
            };
            corpus.push(RandomDagGenerator::new(config, seed).generate());
        }
        for levels in 1..=4 {
            corpus.push(sized_dag(0x5EED + levels as u64, 12, 5, levels));
        }
        corpus.extend([
            crate::examples::figure1a().0,
            crate::examples::figure1b().0,
            crate::examples::figure1c().0,
            crate::examples::figure2a().0,
            crate::examples::figure2b().0,
            crate::examples::figure3().0,
        ]);
        corpus
    }

    /// The three ways a schedule is made non-prompt, each applied at a
    /// random step: two vertices swapped across adjacent steps, one vertex
    /// deferred to the next step (idling its core), and an assigned vertex
    /// exchanged with a strictly lower-priority vertex that is ready at the
    /// same step but runs later.
    fn mutants(dag: &CostDag, schedule: &Schedule, rng: &mut StdRng) -> Vec<Schedule> {
        let n = schedule.steps.len();
        let mut out = Vec::new();
        if n >= 2 {
            let j = rng.gen_range(0..n - 1);
            let mut m = schedule.clone();
            let (a, b) = (
                rng.gen_range(0..m.steps[j].len()),
                rng.gen_range(0..m.steps[j + 1].len()),
            );
            let tmp = m.steps[j][a];
            m.steps[j][a] = m.steps[j + 1][b];
            m.steps[j + 1][b] = tmp;
            out.push(m);
        }
        if n >= 1 {
            let j = rng.gen_range(0..n);
            let mut m = schedule.clone();
            let i = rng.gen_range(0..m.steps[j].len());
            let v = m.steps[j].remove(i);
            if j + 1 == n {
                m.steps.push(vec![v]);
            } else {
                m.steps[j + 1].insert(0, v);
            }
            out.push(m);
        }
        // Replay the schedule to find, at some step, an assigned vertex and
        // a strictly lower-priority ready vertex that runs later.
        let dom = dag.domain();
        let step_of = schedule.step_of(dag);
        let mut tracker = crate::adjacency::ReadyTracker::new(dag);
        let start = rng.gen_range(0..n.max(1));
        for (j, step) in schedule.steps.iter().enumerate() {
            if j >= start {
                let swap = tracker.ready_set().into_iter().find_map(|low| {
                    let later = step_of[low.index()].filter(|&k| k > j)?;
                    let i = step
                        .iter()
                        .position(|&u| dom.lt(dag.priority_of(low), dag.priority_of(u)))?;
                    Some((low, later, i))
                });
                if let Some((low, later, i)) = swap {
                    let mut m = schedule.clone();
                    let high = m.steps[j][i];
                    m.steps[j][i] = low;
                    let k = m.steps[later].iter().position(|&x| x == low).unwrap();
                    m.steps[later][k] = high;
                    out.push(m);
                    break;
                }
            }
            for &v in step {
                tracker.execute(dag, v);
            }
        }
        out
    }

    #[test]
    fn is_prompt_matches_the_reference_on_schedules_and_mutants() {
        let mut rng = StdRng::seed_from_u64(0x9B0_3A7);
        let (mut prompt, mut not_prompt) = (0, 0);
        for (g, dag) in differential_corpus().iter().enumerate() {
            for p in 1..=3 {
                for schedule in [
                    prompt_schedule(dag, p),
                    weak_respecting_prompt_schedule(dag, p),
                ] {
                    let mut cases = vec![schedule.clone()];
                    for _ in 0..4 {
                        cases.extend(mutants(dag, &schedule, &mut rng));
                    }
                    for case in &cases {
                        let verdict = case.is_prompt(dag);
                        assert_eq!(
                            verdict,
                            is_prompt_reference(case, dag),
                            "graph {g} P={p}: {case:?}"
                        );
                        if verdict {
                            prompt += 1;
                        } else {
                            not_prompt += 1;
                        }
                    }
                }
            }
        }
        assert!(
            prompt >= 100 && not_prompt >= 100,
            "both verdicts must be exercised: {prompt} prompt, {not_prompt} not"
        );
    }

    /// main = [m0, m1], child = [c0]; create(m0, child); weak(c0, m1).
    fn weak_graph() -> (CostDag, VertexId, VertexId, VertexId) {
        let dom = PriorityDomain::numeric(2);
        let mut b = DagBuilder::new(dom.clone());
        let main = b.thread("main", dom.by_index(1));
        let child = b.thread("child", dom.by_index(0));
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let c0 = b.vertex(child);
        b.fcreate(m0, child).unwrap();
        b.weak(c0, m1).unwrap();
        (b.build().unwrap(), m0, m1, c0)
    }

    #[test]
    fn validate_accepts_correct_schedule() {
        let (g, m0, m1, c0) = weak_graph();
        let s = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1, c0]],
        };
        assert!(s.validate(&g).is_ok());
        assert_eq!(s.len(), 2);
        assert!((s.utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_missing_and_duplicate() {
        let (g, m0, m1, c0) = weak_graph();
        let missing = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1]],
        };
        assert!(matches!(
            missing.validate(&g),
            Err(ScheduleError::NotExactlyOnce(_))
        ));
        let dup = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1, c0], vec![c0]],
        };
        assert!(matches!(
            dup.validate(&g),
            Err(ScheduleError::NotExactlyOnce(_))
        ));
    }

    #[test]
    fn validate_rejects_dependence_violation_and_overflow() {
        let (g, m0, m1, c0) = weak_graph();
        let early = Schedule {
            num_cores: 2,
            steps: vec![vec![m1, m0], vec![c0]],
        };
        assert!(matches!(
            early.validate(&g),
            Err(ScheduleError::DependenceViolated { .. })
        ));
        let overflow = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![m1, c0]],
        };
        assert!(matches!(
            overflow.validate(&g),
            Err(ScheduleError::TooManyPerStep { .. })
        ));
    }

    #[test]
    fn admissibility_requires_weak_order() {
        let (g, m0, m1, c0) = weak_graph();
        // c0 strictly before m1: admissible.
        let good = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![c0], vec![m1]],
        };
        assert!(good.validate(&g).is_ok());
        assert!(good.is_admissible(&g));
        // m1 and c0 in the same step: not admissible.
        let same = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1, c0]],
        };
        assert!(!same.is_admissible(&g));
        // m1 before c0: not admissible.
        let rev = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![m1], vec![c0]],
        };
        assert!(!rev.is_admissible(&g));
    }

    #[test]
    fn promptness_checks_priority_order_and_idleness() {
        let (g, m0, m1, c0) = weak_graph();
        // m1 (hi) and c0 (lo) both ready after m0.  With one core, a prompt
        // schedule must run m1 before c0.
        let prompt = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![m1], vec![c0]],
        };
        assert!(prompt.is_prompt(&g));
        let not_prompt = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![c0], vec![m1]],
        };
        assert!(!not_prompt.is_prompt(&g));
        // Leaving a core idle while work is ready is not prompt.
        let idle = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1], vec![c0]],
        };
        assert!(!idle.is_prompt(&g));
        // Using both cores is prompt (though not admissible here).
        let both = Schedule {
            num_cores: 2,
            steps: vec![vec![m0], vec![m1, c0]],
        };
        assert!(both.is_prompt(&g));
    }

    #[test]
    fn response_time_measured_from_readiness() {
        let (g, m0, m1, c0) = weak_graph();
        let main = g.thread_by_name("main").unwrap();
        let child = g.thread_by_name("child").unwrap();
        let s = Schedule {
            num_cores: 1,
            steps: vec![vec![m0], vec![c0], vec![m1]],
        };
        // main: s = m0 ready at step 0, t = m1 executed at step 2 → T = 3.
        assert_eq!(s.response_time(&g, main), Some(3));
        // child: c0 ready after m0 (step 1), executed at step 1 → T = 1.
        assert_eq!(s.response_time(&g, child), Some(1));
        assert_eq!(s.active_steps(&g, child), Some(1));
        // Incomplete schedule yields None.
        let incomplete = Schedule {
            num_cores: 1,
            steps: vec![vec![m0]],
        };
        assert_eq!(incomplete.response_time(&g, main), None);
    }
}
