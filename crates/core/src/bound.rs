//! The Theorem 2.3 response-time bound.
//!
//! For a well-formed graph `g`, a thread `a` of priority `ρ`, and any
//! admissible prompt schedule on `P` cores:
//!
//! ```text
//! T(a) ≤ (1/P) · [ W_{⊀ρ}(↛↓a) + (P − 1) · S_a(↛↓a) ]
//! ```
//!
//! [`response_time_bound`] computes the right-hand side and
//! [`check_response_time_bound`] compares it against the observed response
//! time of a concrete schedule, producing a [`BoundReport`].

use crate::analysis::{PriorityFacts, Reachability};
use crate::graph::{CostDag, ThreadId};
use crate::metrics::{a_span_over, a_span_with, competitor_work_in};
use crate::schedule::{admissible_in, response_time_in, Schedule};
use crate::strengthen::{strengthening_is_identity, strengthening_with};
use crate::wellformed::well_formed_errors;
use std::cell::RefCell;

/// The outcome of checking Theorem 2.3 on one thread and one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundReport {
    /// The thread the bound was computed for.
    pub thread: ThreadId,
    /// Number of cores of the schedule.
    pub num_cores: usize,
    /// Competitor work `W_{⊀ρ}(↛↓a)`.
    pub competitor_work: usize,
    /// The a-span `S_a(↛↓a)`.
    pub a_span: usize,
    /// The right-hand side of the bound, exactly as printed in the paper:
    /// `(W + (P-1)·S) / P`.
    pub bound: f64,
    /// The boundary-adjusted bound `(W + 2 + (P-1)·(S+1)) / P`.
    ///
    /// The paper's competitor-work and a-span sets `↛↓a` exclude the
    /// thread's own first and last vertices (`s` and `t` are ancestors of
    /// themselves), but the token-counting argument in the proof of
    /// Theorem 2.3 places tokens for `s` and `t` and walks span paths that
    /// may include `s`.  The adjusted bound accounts for those boundary
    /// vertices; it is the inequality the proof establishes verbatim, and
    /// differs from `bound` by at most `(2 + P - 1) / P ≤ 3`.
    pub adjusted_bound: f64,
    /// The observed response time `T(a)`, if the schedule completed the
    /// thread.
    pub observed: Option<usize>,
    /// Whether the schedule was admissible for the graph.
    pub admissible: bool,
    /// Whether the schedule was prompt for the graph.
    pub prompt: bool,
    /// Whether the graph was well-formed.
    pub well_formed: bool,
}

impl BoundReport {
    /// Whether the theorem's hypotheses hold for this (graph, schedule)
    /// pair — well-formed graph, admissible prompt schedule.
    pub fn hypotheses_hold(&self) -> bool {
        self.well_formed && self.admissible && self.prompt
    }

    /// Whether the boundary-adjusted bound is respected.  Vacuously true when
    /// the observed response time is unavailable.
    pub fn bound_holds(&self) -> bool {
        match self.observed {
            Some(t) => (t as f64) <= self.adjusted_bound + 1e-9,
            None => true,
        }
    }

    /// Whether the unadjusted bound (the formula exactly as printed in the
    /// paper) is respected.  This can be off by the boundary vertices `s`
    /// and `t`; see [`BoundReport::adjusted_bound`].
    pub fn paper_bound_holds(&self) -> bool {
        match self.observed {
            Some(t) => (t as f64) <= self.bound + 1e-9,
            None => true,
        }
    }

    /// Whether this report is a counterexample to Theorem 2.3: the
    /// hypotheses hold but the bound does not.
    pub fn is_counterexample(&self) -> bool {
        self.hypotheses_hold() && !self.bound_holds()
    }
}

/// A per-graph cache of everything the bound computation needs that does not
/// depend on a schedule: the reachability relations (three `V×V` bit
/// matrices, see [`Reachability`]), the priority rows and inverting edges
/// every per-thread query shares, the well-formedness verdict, and the
/// per-thread `(competitor work, a-span)` pairs (computed on demand and
/// memoized, since the strengthening is inherently per-thread).  A thread's
/// competitor work is a popcount over three rows; its a-span builds the
/// strengthened copy of the graph only when Definition 2 rewrites one of
/// its edges, and otherwise walks the base graph.  The same relations
/// answer Definition 4 through
/// [`check_strongly_well_formed_with`](crate::wellformed::check_strongly_well_formed_with)
/// on [`reachability`](Self::reachability).
///
/// Callers that check bounds for several threads or several schedules of the
/// same graph should build one `BoundAnalysis` and reuse it; the one-shot
/// helpers below construct a fresh analysis per call, which recomputes all
/// three `O(V·E/64)` reachability matrices every time.
#[derive(Debug)]
pub struct BoundAnalysis<'g> {
    dag: &'g CostDag,
    reach: Reachability,
    facts: PriorityFacts,
    well_formed: bool,
    metrics: RefCell<Vec<Option<(usize, usize)>>>,
}

impl<'g> BoundAnalysis<'g> {
    /// Analyses a graph: reachability, the priority facts and
    /// well-formedness are computed once, here; per-thread metrics lazily.
    pub fn new(dag: &'g CostDag) -> Self {
        let reach = Reachability::new(dag);
        let facts = PriorityFacts::new(dag);
        let well_formed = well_formed_errors(dag, &reach, &facts).is_empty();
        BoundAnalysis {
            dag,
            reach,
            facts,
            well_formed,
            metrics: RefCell::new(vec![None; dag.thread_count()]),
        }
    }

    /// The graph the analysis belongs to.
    pub fn dag(&self) -> &'g CostDag {
        self.dag
    }

    /// The shared reachability relations.
    pub fn reachability(&self) -> &Reachability {
        &self.reach
    }

    /// Whether the graph is well-formed (Definition 1).
    pub fn is_well_formed(&self) -> bool {
        self.well_formed
    }

    /// `(W_{⊀ρ}(↛↓a), S_a(↛↓a))` for thread `a`, memoized.
    pub fn thread_metrics(&self, a: ThreadId) -> (usize, usize) {
        if let Some(m) = self.metrics.borrow()[a.index()] {
            return m;
        }
        let (dag, reach, facts) = (self.dag, &self.reach, &self.facts);
        let w = competitor_work_in(dag, a, reach, facts.competes(dag.thread_priority(a)));
        // Definition 2 rewrites no edge for most threads: their ĝₐ is the
        // base graph, so the a-span walks it without a strengthened copy.
        let s = if !strengthening_is_identity(dag, a, reach, facts) {
            a_span_with(dag, a, reach, &strengthening_with(dag, a, reach))
        } else {
            a_span_over(dag, a, reach, &|v| dag.strong_parents(v))
        };
        self.metrics.borrow_mut()[a.index()] = Some((w, s));
        (w, s)
    }

    /// The right-hand side of Theorem 2.3 for thread `a` on `P` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn bound(&self, a: ThreadId, num_cores: usize) -> f64 {
        assert!(num_cores > 0, "need at least one core");
        let (w, s) = self.thread_metrics(a);
        (w as f64 + (num_cores as f64 - 1.0) * s as f64) / num_cores as f64
    }

    /// The schedule facts every thread's report shares, each computed once.
    fn facts(&self, schedule: &Schedule) -> ScheduleFacts {
        let step_of = schedule.step_of(self.dag);
        ScheduleFacts {
            num_cores: schedule.num_cores,
            admissible: admissible_in(self.dag, &step_of),
            prompt: schedule.is_prompt(self.dag),
            step_of,
        }
    }

    /// Builds the report for one thread from the schedule's shared facts.
    fn report_with(&self, facts: &ScheduleFacts, a: ThreadId) -> BoundReport {
        let (w, s) = self.thread_metrics(a);
        let p = facts.num_cores;
        let bound = (w as f64 + (p as f64 - 1.0) * s as f64) / p as f64;
        let adjusted_bound = (w as f64 + 2.0 + (p as f64 - 1.0) * (s as f64 + 1.0)) / p as f64;
        BoundReport {
            thread: a,
            num_cores: p,
            competitor_work: w,
            a_span: s,
            bound,
            adjusted_bound,
            observed: response_time_in(self.dag, &facts.step_of, a),
            admissible: facts.admissible,
            prompt: facts.prompt,
            well_formed: self.well_formed,
        }
    }

    /// Checks Theorem 2.3 for one thread against a concrete schedule.
    pub fn check(&self, schedule: &Schedule, a: ThreadId) -> BoundReport {
        self.report_with(&self.facts(schedule), a)
    }

    /// Checks Theorem 2.3 for every thread against a concrete schedule,
    /// evaluating the admissibility and promptness of the schedule, and the
    /// step at which each vertex ran, once.
    ///
    /// The returned vector is indexed by thread id (`ThreadId::index`).
    pub fn check_all(&self, schedule: &Schedule) -> Vec<BoundReport> {
        let facts = self.facts(schedule);
        self.dag
            .threads()
            .map(|a| self.report_with(&facts, a))
            .collect()
    }
}

/// What [`BoundAnalysis::check_all`] learns about a schedule once and shares
/// across the per-thread reports.
struct ScheduleFacts {
    num_cores: usize,
    step_of: Vec<Option<usize>>,
    admissible: bool,
    prompt: bool,
}

/// Computes the right-hand side of Theorem 2.3 for thread `a` on `P` cores.
///
/// One-shot: builds a fresh [`BoundAnalysis`].  Prefer constructing the
/// analysis explicitly when asking about several threads or core counts.
///
/// # Panics
///
/// Panics if `num_cores == 0`.
pub fn response_time_bound(dag: &CostDag, a: ThreadId, num_cores: usize) -> f64 {
    assert!(num_cores > 0, "need at least one core");
    BoundAnalysis::new(dag).bound(a, num_cores)
}

/// Checks Theorem 2.3 for every thread of the graph against a concrete
/// schedule, sharing the reachability analysis, the admissibility /
/// promptness checks, and the well-formedness check across threads.
///
/// The returned vector is indexed by thread id (`ThreadId::index`).
pub fn check_bounds_batch(dag: &CostDag, schedule: &Schedule) -> Vec<BoundReport> {
    BoundAnalysis::new(dag).check_all(schedule)
}

/// Checks Theorem 2.3 for one thread against a concrete schedule.
///
/// The report records the bound's ingredients, the observed response time,
/// and whether the theorem's hypotheses (well-formed graph, admissible prompt
/// schedule) hold, so callers can distinguish "bound violated" from "bound
/// not applicable".
pub fn check_response_time_bound(dag: &CostDag, schedule: &Schedule, a: ThreadId) -> BoundReport {
    BoundAnalysis::new(dag).check(schedule, a)
}

/// The Theorem 2.3 verdict for one whole schedule: every thread's report
/// plus the aggregate facts callers gate on.
///
/// This is the per-schedule entry point the schedule explorer uses: it runs
/// the same batch check as [`check_bounds_batch`] and pre-computes the
/// summary counts so a caller sweeping thousands of schedules can accumulate
/// totals without re-walking the reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleBounds {
    /// One report per thread, indexed by thread id (`ThreadId::index`).
    pub reports: Vec<BoundReport>,
    /// Whether the theorem's hypotheses (well-formed graph, admissible
    /// prompt schedule) held — identical across threads, hoisted out.
    pub hypotheses_hold: bool,
    /// Threads whose report is a counterexample (hypotheses hold, bound
    /// violated).  Empty unless Theorem 2.3 is falsified.
    pub counterexamples: Vec<ThreadId>,
}

impl ScheduleBounds {
    /// Whether any thread's report falsifies Theorem 2.3.
    pub fn any_counterexample(&self) -> bool {
        !self.counterexamples.is_empty()
    }

    /// Whether the check was vacuous: the hypotheses did not hold (for
    /// example a serialized exploration schedule that is admissible but not
    /// prompt), so the theorem makes no claim about this schedule.
    pub fn vacuous(&self) -> bool {
        !self.hypotheses_hold
    }
}

/// Checks Theorem 2.3 for every thread of the graph against one schedule and
/// summarizes the verdict.  See [`ScheduleBounds`].
pub fn check_schedule(dag: &CostDag, schedule: &Schedule) -> ScheduleBounds {
    let reports = check_bounds_batch(dag, schedule);
    let hypotheses_hold = reports.first().is_none_or(BoundReport::hypotheses_hold);
    let counterexamples = reports
        .iter()
        .filter(|r| r.is_counterexample())
        .map(|r| r.thread)
        .collect();
    ScheduleBounds {
        reports,
        hypotheses_hold,
        counterexamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use crate::scheduler::{oblivious_schedule, prompt_schedule};
    use rp_priority::PriorityDomain;

    /// Root (hi) creates a hi thread H (3 vertices) and a lo thread L
    /// (6 vertices); only H is touched back by the root.
    fn contended() -> CostDag {
        let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
        let hi = dom.priority("hi").unwrap();
        let lo = dom.priority("lo").unwrap();
        let mut b = DagBuilder::new(dom);
        let root = b.thread("root", hi);
        let h = b.thread("h", hi);
        let l = b.thread("l", lo);
        let r0 = b.vertex(root);
        let r1 = b.vertex(root);
        b.vertices(h, 3);
        b.vertices(l, 6);
        b.fcreate(r0, h).unwrap();
        b.fcreate(r0, l).unwrap();
        b.ftouch(h, r1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bound_holds_for_prompt_schedules() {
        let g = contended();
        let h = g.thread_by_name("h").unwrap();
        for p in 1..=4 {
            let sched = prompt_schedule(&g, p);
            let report = check_response_time_bound(&g, &sched, h);
            assert!(report.well_formed);
            assert!(report.prompt);
            assert!(report.admissible, "no weak edges, so trivially admissible");
            assert!(report.bound_holds(), "P={p}: {report:?}");
            assert!(!report.is_counterexample());
        }
    }

    #[test]
    fn a_violating_report_is_a_counterexample() {
        // No real prompt schedule can produce this (that is the theorem);
        // build the report directly so the classifier itself is pinned:
        // hypotheses hold + bound exceeded must read as a counterexample.
        let mut report = BoundReport {
            thread: ThreadId(0),
            num_cores: 2,
            competitor_work: 1,
            a_span: 2,
            bound: 1.5,
            adjusted_bound: 3.0,
            observed: Some(10),
            admissible: true,
            prompt: true,
            well_formed: true,
        };
        assert!(report.hypotheses_hold());
        assert!(!report.bound_holds());
        assert!(!report.paper_bound_holds());
        assert!(report.is_counterexample());
        // Each hypothesis failing makes the same violation vacuous…
        for broken in 0..3 {
            let mut vacuous = report.clone();
            match broken {
                0 => vacuous.admissible = false,
                1 => vacuous.prompt = false,
                _ => vacuous.well_formed = false,
            }
            assert!(!vacuous.is_counterexample(), "hypothesis {broken}");
        }
        // …and so does a respected bound.
        report.observed = Some(3);
        assert!(report.bound_holds());
        assert!(!report.is_counterexample());
    }

    #[test]
    fn bound_ingredients_are_sensible() {
        let g = contended();
        let h = g.thread_by_name("h").unwrap();
        // Competitor work for H: only H's own middle vertex counts — r0 is an
        // ancestor of H's start, r1 is a descendant of H's end (via the touch
        // edge), H's first/last vertices are their own ancestors/descendants,
        // and L's vertices are strictly lower priority.  So W = 1.
        // a-span: H's vertices other than its first = 2.
        let report = check_response_time_bound(&g, &prompt_schedule(&g, 2), h);
        assert_eq!(report.competitor_work, 1);
        assert_eq!(report.a_span, 2);
        assert_eq!(report.bound, (1.0 + 1.0 * 2.0) / 2.0);
        assert_eq!(report.adjusted_bound, (1.0 + 2.0 + 1.0 * 3.0) / 2.0);
    }

    #[test]
    fn oblivious_schedule_can_violate_the_bound() {
        // Arrange the low-priority thread before the high-priority one so the
        // oblivious scheduler serves it first; the bound (which assumes
        // promptness) is then exceeded, demonstrating why promptness matters.
        let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
        let hi = dom.priority("hi").unwrap();
        let lo = dom.priority("lo").unwrap();
        let mut b = DagBuilder::new(dom);
        let root = b.thread("root", lo);
        let l = b.thread("l", lo);
        let h = b.thread("h", hi);
        let r0 = b.vertex(root);
        b.vertices(l, 20);
        b.vertices(h, 2);
        b.fcreate(r0, l).unwrap();
        b.fcreate(r0, h).unwrap();
        let g = b.build().unwrap();
        let h = g.thread_by_name("h").unwrap();
        let sched = oblivious_schedule(&g, 1);
        let report = check_response_time_bound(&g, &sched, h);
        assert!(report.well_formed && report.admissible);
        assert!(!report.prompt);
        assert!(!report.bound_holds());
        // Not a counterexample to the theorem because promptness fails.
        assert!(!report.is_counterexample());
    }

    #[test]
    fn bound_value_matches_formula() {
        let g = contended();
        let h = g.thread_by_name("h").unwrap();
        let b4 = response_time_bound(&g, h, 4);
        let b1 = response_time_bound(&g, h, 1);
        assert!(b1 >= 0.0 && b4 >= 0.0);
        // With P = 1 the bound is exactly the competitor work + 0·span.
        assert_eq!(b1, 1.0);
    }

    /// Figure 3 with two more low-priority vertices ahead of `u0`, so the
    /// strengthening shortens the a-span of `a` (5 on the base graph:
    /// `b0 b1 u0 u t`; 3 on `ĝₐ`: `u' u t`) instead of trading one
    /// three-vertex path for another.
    fn figure3_with_low_prefix() -> CostDag {
        let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
        let hi = dom.priority("hi").unwrap();
        let lo = dom.priority("lo").unwrap();
        let mut b = DagBuilder::new(dom);
        let a = b.thread("a", hi);
        let low = b.thread("b", lo);
        let c = b.thread("c", hi);
        let s = b.vertex(a);
        let u_prime = b.vertex(a);
        let t = b.vertex(a);
        b.vertices(low, 2);
        let u0 = b.vertex(low);
        let w = b.vertex(low);
        b.vertex(c);
        b.fcreate(s, low).unwrap();
        b.fcreate(u0, c).unwrap();
        b.ftouch(c, t).unwrap();
        b.weak(w, u_prime).unwrap();
        b.build().unwrap()
    }

    /// `thread_metrics` skips the strengthened copy when Definition 2
    /// rewrites nothing; it must still equal the full path through the
    /// strengthening for every thread, including those of the Figure 3
    /// graphs, where the strengthening fires.
    #[test]
    fn thread_metrics_match_the_strengthening_path() {
        use crate::random::{sized_dag, RandomDagConfig, RandomDagGenerator};

        let g = figure3_with_low_prefix();
        let analysis = BoundAnalysis::new(&g);
        assert!(analysis.is_well_formed());
        let a = g.thread_by_name("a").unwrap();
        let base = a_span_over(&g, a, analysis.reachability(), &|v| g.strong_parents(v));
        assert_eq!((base, analysis.thread_metrics(a).1), (5, 3));

        let mut corpus = vec![g, crate::examples::figure3().0, contended()];
        for seed in 0..16u64 {
            let config = RandomDagConfig {
                priority_levels: 1 + (seed as usize % 4),
                ..RandomDagConfig::default()
            };
            corpus.push(RandomDagGenerator::new(config, seed).generate());
        }
        corpus.push(sized_dag(0x5EED, 20, 5, 4));
        let mut rewritten = 0;
        for (g, dag) in corpus.iter().enumerate() {
            let analysis = BoundAnalysis::new(dag);
            let reach = analysis.reachability();
            for a in dag.threads() {
                let st = strengthening_with(dag, a, reach);
                assert_eq!(
                    strengthening_is_identity(dag, a, reach, &analysis.facts),
                    st.removed.is_empty(),
                    "graph {g} {a:?}"
                );
                if !st.removed.is_empty() {
                    rewritten += 1;
                }
                let expected = (
                    crate::metrics::competitor_work_with(dag, a, reach),
                    a_span_with(dag, a, reach, &st),
                );
                assert_eq!(analysis.thread_metrics(a), expected, "graph {g} {a:?}");
            }
        }
        assert!(
            rewritten > 0,
            "no thread exercised a rewriting strengthening"
        );
    }

    /// The analysis against the vertex-by-vertex references on every
    /// thread of the well-formedness corpus (lawless graphs with inverting
    /// edges, word tails, single-vertex threads): the well-formedness
    /// verdict, and `thread_metrics` as competitor work counted per vertex
    /// and the a-span with a pair lookup per vertex over the same graph the
    /// analysis walks.
    #[test]
    fn thread_metrics_match_the_vertex_by_vertex_references() {
        use crate::metrics::tests::{a_span_by_lookup, competitor_work_by_vertex};
        use crate::wellformed::tests::{corpus, well_formed_errors_by_vertex};
        let mut ill_formed = 0;
        for (i, g) in corpus().iter().enumerate() {
            let analysis = BoundAnalysis::new(g);
            let reach = analysis.reachability();
            let verdict = well_formed_errors_by_vertex(g, reach).is_empty();
            assert_eq!(analysis.is_well_formed(), verdict, "graph {i}");
            ill_formed += usize::from(!verdict);
            for a in g.threads() {
                let st = strengthening_with(g, a, reach);
                let expected = (
                    competitor_work_by_vertex(g, a, reach),
                    a_span_by_lookup(g, a, reach, &|v| st.strong_parents(v)),
                );
                assert_eq!(analysis.thread_metrics(a), expected, "graph {i} {a:?}");
            }
        }
        assert!(ill_formed >= 10, "only {ill_formed} ill-formed graphs");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let g = contended();
        let h = g.thread_by_name("h").unwrap();
        let _ = response_time_bound(&g, h, 0);
    }
}
