//! Well-formedness (Definition 1) and strong well-formedness (Definition 4).
//!
//! A well-formed graph is free of the priority inversions that would make the
//! Theorem 2.3 response-time bound unattainable.  Strong well-formedness is
//! the slightly stronger property the type-system soundness proof
//! establishes; Lemma 3.4 shows it implies well-formedness, and
//! [`check_strongly_well_formed`] together with [`check_well_formed`] lets us
//! test that implication on arbitrary graphs.

use crate::analysis::{has, ones, PriorityFacts, Reachability};
use crate::graph::{CostDag, EdgeKind, ThreadId, VertexId};
use std::fmt;

/// A violation of (strong) well-formedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// Definition 1, first bullet: a strong ancestor of `thread`'s last
    /// vertex that is not an ancestor of its first vertex has strictly lower
    /// priority than the thread.
    LowPriorityStrongAncestor {
        /// The thread whose response time would be unbounded.
        thread: ThreadId,
        /// The offending low-priority vertex.
        vertex: VertexId,
    },
    /// Definition 1, second bullet: a strong edge from a lower-priority
    /// vertex is not mitigated by a weak path.
    UnmitigatedCreateEdge {
        /// The thread whose critical path is affected.
        thread: ThreadId,
        /// The source of the offending strong edge.
        from: VertexId,
        /// The target of the offending strong edge.
        to: VertexId,
    },
    /// Definition 4, condition (2): an ftouch edge goes from a
    /// lower-priority thread to a higher-priority (or incomparable) toucher.
    TouchPriorityInversion {
        /// The touched (lower-priority) thread.
        touched: ThreadId,
        /// The touching vertex.
        toucher: VertexId,
    },
    /// Definition 4, condition (3): the toucher/reader does not "know about"
    /// the thread it synchronises with — there is no path from the thread's
    /// creation point whose first and last edges are continuation edges.
    UnknownThreadTouched {
        /// The touched thread.
        touched: ThreadId,
        /// The touching or reading vertex.
        toucher: VertexId,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::LowPriorityStrongAncestor { thread, vertex } => write!(
                f,
                "thread {thread} has lower-priority strong ancestor {vertex} on its critical path"
            ),
            WellFormedError::UnmitigatedCreateEdge { thread, from, to } => write!(
                f,
                "strong edge ({from}, {to}) on thread {thread}'s critical path lacks a weak-path witness"
            ),
            WellFormedError::TouchPriorityInversion { touched, toucher } => write!(
                f,
                "vertex {toucher} ftouches lower-priority thread {touched} (priority inversion)"
            ),
            WellFormedError::UnknownThreadTouched { touched, toucher } => write!(
                f,
                "vertex {toucher} synchronises with thread {touched} without a handle-propagation path"
            ),
        }
    }
}

impl std::error::Error for WellFormedError {}

/// Checks Definition 1 (well-formedness) and returns every violation.
///
/// # Errors
///
/// Returns the list of violations when the graph is not well-formed.
pub fn check_well_formed(dag: &CostDag) -> Result<(), Vec<WellFormedError>> {
    let reach = Reachability::new(dag);
    check_well_formed_with(dag, &reach)
}

/// Like [`check_well_formed`] but reuses an existing reachability analysis.
///
/// # Complexity
///
/// Given the analysis, `O(L·V)` to derive the priority rows (`L` levels),
/// then per thread `O(V/64)` word operations plus one bit lookup per
/// strong ancestor of its last vertex that Definition 1's first bullet
/// flags, and `O(V/64)` per priority-inverting strong edge for the second
/// bullet.  A [`BoundAnalysis`](crate::bound::BoundAnalysis) derives the
/// priority rows once for all its queries.
///
/// # Errors
///
/// Returns the list of violations when the graph is not well-formed.
pub fn check_well_formed_with(
    dag: &CostDag,
    reach: &Reachability,
) -> Result<(), Vec<WellFormedError>> {
    let errors = well_formed_errors(dag, reach, &PriorityFacts::new(dag));
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Every Definition 1 violation, thread by thread: first-bullet vertices
/// in ascending order, then second-bullet edges in edge-list order.
pub(crate) fn well_formed_errors(
    dag: &CostDag,
    reach: &Reachability,
    facts: &PriorityFacts,
) -> Vec<WellFormedError> {
    let mut errors = Vec::new();
    for a in dag.threads() {
        let rho = dag.thread_priority(a);
        let s = dag.first_vertex(a);
        let t = dag.last_vertex(a);
        let (anc_s, anc_t, below) = (reach.ancestors(s), reach.ancestors(t), facts.below(rho));
        // First bullet: every strong ancestor of t that is not an ancestor of
        // s has priority ⪰ ρ.  Ancestors of t outside anc(s) whose priority
        // is not ⪰ ρ violate it unless some path to t is weak.
        let flagged = (0..anc_t.len()).map(|w| anc_t[w] & !anc_s[w] & below[w]);
        for u in ones(flagged) {
            if !reach.is_weak_ancestor(u, t) {
                errors.push(WellFormedError::LowPriorityStrongAncestor {
                    thread: a,
                    vertex: u,
                });
            }
        }
        // Second bullet: strong edges (u0, u) with u ⊒ˢ t, u0 ⋣ s and
        // Prio(u) ⪯̸ Prio(u0) must have a weak-path witness u′ with
        // u0 ⊒ʷ u′ ⊒ˢ t and u ⋣ u′.  Only the inverting edges can qualify.
        //
        // We additionally require that u0 is strictly lower priority than the
        // thread itself (¬(ρ ⪯ Prio(u0))).  Without this guard the literal
        // text of Definition 1 rejects graphs of well-typed programs in which
        // a mid-priority thread forks and joins an even-higher-priority
        // thread (there is no weak path, but also no priority inversion:
        // a never waits on anything below its own priority), contradicting
        // Lemma 3.4.  The guard restricts the bullet to the genuine inversion
        // risk the paper motivates it with.
        for &(u0, u) in facts.inverting() {
            if reach.is_strong_ancestor(u, t) && !has(anc_s, u0) && has(below, u0) {
                let (weak_u0, desc_u) = (reach.weak_descendants(u0), reach.descendants(u));
                let candidates = (0..anc_t.len()).map(|w| weak_u0[w] & anc_t[w] & !desc_u[w]);
                let witnessed = ones(candidates).any(|u_prime| !reach.is_weak_ancestor(u_prime, t));
                if !witnessed {
                    errors.push(WellFormedError::UnmitigatedCreateEdge {
                        thread: a,
                        from: u0,
                        to: u,
                    });
                }
            }
        }
    }
    errors
}

/// Checks Definition 4 (strong well-formedness) and returns every violation.
///
/// A graph is strongly well-formed when, for every ftouch edge `(a, u)` and
/// every weak edge `(w, u)` with `w` in thread `a`:
///
/// 1. the touched/read thread exists (trivially true here);
/// 2. for ftouch edges, the toucher's priority is `⪯` the touched thread's
///    priority;
/// 3. if thread `a` was created by some vertex `u'`, there is a path from
///    `u'` to `u` whose first and last edges are continuation edges
///    (intuitively: the handle propagated to `u` by some chain not passing
///    through `a` itself).
///
/// # Complexity
///
/// One [`Reachability`] analysis, `O(V·E/64)` time and `O(V²/64)` words,
/// dominates.  Each ftouch or weak edge then costs `O(c·t)` bit lookups,
/// with `c` the creator's continuation out-degree and `t` the target's
/// continuation in-degree — at most one each, since continuation edges
/// join consecutive vertices of one thread.  A caller that already holds
/// the analysis (a [`BoundAnalysis`](crate::bound::BoundAnalysis), say)
/// should call [`check_strongly_well_formed_with`] and skip the first term.
///
/// # Errors
///
/// Returns the list of violations when the graph is not strongly well-formed.
pub fn check_strongly_well_formed(dag: &CostDag) -> Result<(), Vec<WellFormedError>> {
    let reach = Reachability::new(dag);
    check_strongly_well_formed_with(dag, &reach)
}

/// Like [`check_strongly_well_formed`] but reuses an existing reachability
/// analysis.
///
/// # Errors
///
/// Returns the list of violations when the graph is not strongly well-formed.
pub fn check_strongly_well_formed_with(
    dag: &CostDag,
    reach: &Reachability,
) -> Result<(), Vec<WellFormedError>> {
    let mut errors = Vec::new();
    let dom = dag.domain();

    // Collect the synchronisation edges to check: (source thread, target vertex, is_touch).
    let mut sync_edges: Vec<(ThreadId, VertexId, bool)> = Vec::new();
    for &(touched, toucher) in dag.touch_edges() {
        sync_edges.push((touched, toucher, true));
    }
    for &(w, u) in dag.weak_edges() {
        sync_edges.push((dag.thread_of(w), u, false));
    }

    for (src_thread, target, is_touch) in sync_edges {
        let target_thread = dag.thread_of(target);
        if is_touch
            && !dom.leq(
                dag.thread_priority(target_thread),
                dag.thread_priority(src_thread),
            )
        {
            errors.push(WellFormedError::TouchPriorityInversion {
                touched: src_thread,
                toucher: target,
            });
        }
        if let Some(creator) = dag.creator_of(src_thread) {
            if !continuation_bracketed_path_exists(dag, reach, creator, target) {
                errors.push(WellFormedError::UnknownThreadTouched {
                    touched: src_thread,
                    toucher: target,
                });
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Whether there is a path from `from` to `to` whose first and last edges are
/// continuation edges (Definition 4, condition 3).  A path of length one must
/// be a single continuation edge.
fn continuation_bracketed_path_exists(
    dag: &CostDag,
    reach: &Reachability,
    from: VertexId,
    to: VertexId,
) -> bool {
    // A single continuation edge (from, to) is itself such a path.
    if dag
        .out_edges(from)
        .any(|e| e.kind == EdgeKind::Continuation && e.to == to)
    {
        return true;
    }
    // Otherwise: step over a first continuation edge out of `from`, step back
    // over a last continuation edge into `to`, and ask for ordinary
    // reachability between the two frontiers.
    let starts: Vec<VertexId> = dag
        .out_edges(from)
        .filter(|e| e.kind == EdgeKind::Continuation)
        .map(|e| e.to)
        .collect();
    let ends: Vec<VertexId> = dag
        .in_edges(to)
        .filter(|e| e.kind == EdgeKind::Continuation)
        .map(|e| e.from)
        .collect();
    starts
        .iter()
        .any(|&s| ends.iter().any(|&e| reach.is_ancestor(s, e)))
}

/// Convenience: Lemma 3.4 states strong well-formedness implies
/// well-formedness; this helper checks both and reports whether each holds,
/// for use in property tests.
pub fn lemma_3_4_holds(dag: &CostDag) -> bool {
    let reach = Reachability::new(dag);
    check_strongly_well_formed_with(dag, &reach).is_err()
        || check_well_formed_with(dag, &reach).is_ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rp_priority::PriorityDomain;

    /// Definition 1 checked vertex by vertex and edge by edge through pair
    /// lookups, as before the row operations: the reference
    /// [`well_formed_errors`] must agree with, error for error and in the
    /// same order.
    pub(crate) fn well_formed_errors_by_vertex(
        dag: &CostDag,
        reach: &Reachability,
    ) -> Vec<WellFormedError> {
        let dom = dag.domain();
        let mut errors = Vec::new();
        for a in dag.threads() {
            let rho = dag.thread_priority(a);
            let s = dag.first_vertex(a);
            let t = dag.last_vertex(a);
            for u in dag.vertices() {
                if reach.is_strong_ancestor(u, t)
                    && !reach.is_ancestor(u, s)
                    && !dom.leq(rho, dag.priority_of(u))
                {
                    errors.push(WellFormedError::LowPriorityStrongAncestor {
                        thread: a,
                        vertex: u,
                    });
                }
            }
            for e in dag.strong_edges() {
                let (u0, u) = (e.from, e.to);
                if reach.is_strong_ancestor(u, t)
                    && !reach.is_ancestor(u0, s)
                    && !dom.leq(dag.priority_of(u), dag.priority_of(u0))
                    && !dom.leq(rho, dag.priority_of(u0))
                {
                    let witnessed = dag.vertices().any(|u_prime| {
                        reach.is_weak_ancestor(u0, u_prime)
                            && reach.is_strong_ancestor(u_prime, t)
                            && !reach.is_ancestor(u, u_prime)
                    });
                    if !witnessed {
                        errors.push(WellFormedError::UnmitigatedCreateEdge {
                            thread: a,
                            from: u0,
                            to: u,
                        });
                    }
                }
            }
        }
        errors
    }

    fn dom() -> PriorityDomain {
        PriorityDomain::total_order(["lo", "hi"]).unwrap()
    }

    /// Figure 2(a): not well-formed.
    fn fig2a() -> CostDag {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let lo = d.priority("lo").unwrap();
        let mut b = DagBuilder::new(d);
        let a = b.thread("a", hi);
        let bt = b.thread("b", lo);
        let c = b.thread("c", hi);
        let s = b.vertex(a);
        let _u_prime = b.vertex(a);
        let t = b.vertex(a);
        let u0 = b.vertex(bt);
        let _u = b.vertex(c);
        b.fcreate(s, bt).unwrap();
        b.fcreate(u0, c).unwrap();
        b.ftouch(c, t).unwrap();
        b.build().unwrap()
    }

    /// Figure 2(b): the weak path from the write `w` to the read `u'` makes
    /// the graph well-formed.
    fn fig2b() -> CostDag {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let lo = d.priority("lo").unwrap();
        let mut b = DagBuilder::new(d);
        let a = b.thread("a", hi);
        let bt = b.thread("b", lo);
        let c = b.thread("c", hi);
        let s = b.vertex(a);
        let u_prime = b.vertex(a);
        let t = b.vertex(a);
        let u0 = b.vertex(bt);
        let w = b.vertex(bt);
        let _u = b.vertex(c);
        b.fcreate(s, bt).unwrap();
        b.fcreate(u0, c).unwrap();
        b.ftouch(c, t).unwrap();
        b.weak(w, u_prime).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig2a_is_ill_formed() {
        let g = fig2a();
        let errs = check_well_formed(&g).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::LowPriorityStrongAncestor { .. })));
    }

    #[test]
    fn fig2b_is_well_formed() {
        let g = fig2b();
        assert!(check_well_formed(&g).is_ok());
    }

    /// `main` (hi) creates `bg` (lo) and touches it.
    fn inverted_touch() -> CostDag {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let lo = d.priority("lo").unwrap();
        let mut b = DagBuilder::new(d);
        let main = b.thread("main", hi);
        let bg = b.thread("bg", lo);
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let _bg0 = b.vertex(bg);
        b.fcreate(m0, bg).unwrap();
        b.ftouch(bg, m1).unwrap();
        b.build().unwrap()
    }

    /// Thread `c` is created by thread `b`, and thread `a` touches `c`.
    /// With `handle`, `b` writes and `a` reads `c`'s handle first (a weak
    /// edge), which is the propagation path Definition 4 asks for.
    fn third_party_touch(handle: bool) -> CostDag {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let mut b = DagBuilder::new(d);
        let a = b.thread("a", hi);
        let bt = b.thread("b", hi);
        let c = b.thread("c", hi);
        let a0 = b.vertex(a);
        let a_read = b.vertex(a);
        let a1 = b.vertex(a);
        let b0 = b.vertex(bt);
        let b_write = b.vertex(bt);
        let _c0 = b.vertex(c);
        b.fcreate(a0, bt).unwrap();
        b.fcreate(b0, c).unwrap();
        if handle {
            b.weak(b_write, a_read).unwrap();
        }
        b.ftouch(c, a1).unwrap();
        b.build().unwrap()
    }

    /// One vertex creates `c` and `d`, and `d`'s first vertex touches `c`:
    /// the only path from the creator is `d`'s create edge, which is not a
    /// continuation edge, so `d` does not know about `c`.
    fn sibling_touch() -> CostDag {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let mut b = DagBuilder::new(d);
        let main = b.thread("main", hi);
        let c = b.thread("c", hi);
        let dt = b.thread("d", hi);
        let m0 = b.vertex(main);
        let _m1 = b.vertex(main);
        let _c0 = b.vertex(c);
        let d0 = b.vertex(dt);
        b.fcreate(m0, c).unwrap();
        b.fcreate(m0, dt).unwrap();
        b.ftouch(c, d0).unwrap();
        b.build().unwrap()
    }

    /// A random graph whose touches and weak edges ignore the rules the
    /// generators in [`crate::random`] follow, so every kind of violation
    /// turns up somewhere in a few dozen seeds.  Every edge goes from a
    /// lower to a higher vertex id, so the graph is acyclic.
    fn lawless_dag(seed: u64) -> CostDag {
        lawless(seed, None)
    }

    /// Like [`lawless_dag`], with `vertices` split over threads of one to
    /// four vertices (so single-vertex threads, where `s = t`, are common)
    /// and touches and weak edges in proportion, or the random small shape
    /// when `None`.
    fn lawless(seed: u64, vertices: Option<usize>) -> CostDag {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let d = PriorityDomain::numeric(3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DagBuilder::new(d.clone());
        let mut threads = Vec::new();
        let mut all = Vec::new();
        let (thread_count, extra) = match vertices {
            None => (rng.gen_range(2..7), 0),
            Some(n) => (usize::MAX, n / 8),
        };
        for i in 0..thread_count {
            if vertices == Some(all.len()) {
                break;
            }
            let t = b.thread(format!("t{i}"), d.by_index(rng.gen_range(0..3)));
            let len: usize = rng.gen_range(1..5);
            let vs = b.vertices(t, vertices.map_or(len, |n| len.min(n - all.len())));
            if i > 0 {
                let creator = all[rng.gen_range(0..all.len())];
                b.fcreate(creator, t).unwrap();
            }
            threads.push((t, vs[vs.len() - 1]));
            all.extend(vs);
        }
        let vertices = all;
        if vertices.is_empty() {
            return b.build().unwrap();
        }
        for _ in 0..rng.gen_range(0..5 + extra) {
            let (t, last) = threads[rng.gen_range(0..threads.len())];
            let later: Vec<VertexId> = vertices
                .iter()
                .copied()
                .filter(|v| v.index() > last.index())
                .collect();
            if !later.is_empty() {
                // A thread's vertices are contiguous, so a later vertex lies
                // in another thread.
                let toucher = later[rng.gen_range(0..later.len())];
                b.ftouch(t, toucher).unwrap();
            }
        }
        for _ in 0..rng.gen_range(0..4 + extra) {
            let (i, j) = (
                rng.gen_range(0..vertices.len()),
                rng.gen_range(0..vertices.len()),
            );
            if i < j {
                b.weak(vertices[i], vertices[j]).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The graphs the equivalence tests run over: this module's and
    /// [`crate::examples`]'s hand-built graphs, seeded well-formed
    /// [`crate::random::sized_dag`] graphs, seeded lawless ones, and lawless
    /// ones of 0, 1, 63, 64, 65 and 130 vertices, where a bit row's last
    /// word is empty, partial or full.
    pub(crate) fn corpus() -> Vec<CostDag> {
        use crate::examples::{figure1a, figure1b, figure1c, figure2a, figure2b, figure3};
        let mut graphs = vec![
            fig2a(),
            fig2b(),
            inverted_touch(),
            third_party_touch(false),
            third_party_touch(true),
            sibling_touch(),
        ];
        graphs.extend([figure1a, figure1b, figure1c].map(|f| f().0));
        graphs.extend([figure2a, figure2b, figure3].map(|f| f().0));
        graphs.extend((0..12).map(|seed| crate::random::sized_dag(seed, 10, 4, 3)));
        graphs.extend((0..60).map(lawless_dag));
        for n in [0, 1, 63, 64, 65, 130] {
            graphs.extend((0..4).map(|seed| lawless(seed, Some(n))));
        }
        graphs
    }

    #[test]
    fn row_operations_give_the_vertex_by_vertex_verdicts() {
        let mut kinds = [0usize; 2];
        for (i, g) in corpus().iter().enumerate() {
            let reach = Reachability::new(g);
            let rows = errors(check_well_formed_with(g, &reach));
            assert_eq!(rows, well_formed_errors_by_vertex(g, &reach), "graph {i}");
            for e in &rows {
                match e {
                    WellFormedError::LowPriorityStrongAncestor { .. } => kinds[0] += 1,
                    WellFormedError::UnmitigatedCreateEdge { .. } => kinds[1] += 1,
                    other => panic!("graph {i}: Definition 1 reported {other}"),
                }
            }
        }
        assert!(
            kinds.iter().all(|&n| n >= 10),
            "the corpus must exercise both bullets: {kinds:?}"
        );
    }

    #[test]
    fn the_corpus_has_word_tails_and_single_vertex_threads() {
        let graphs = corpus();
        for n in [0, 1, 63, 64, 65] {
            assert!(
                graphs.iter().any(|g| g.vertex_count() == n),
                "no graph of {n} vertices"
            );
        }
        assert!(graphs
            .iter()
            .any(|g| g.threads().any(|a| g.first_vertex(a) == g.last_vertex(a))));
    }

    /// Definition 4 with reachability answered by a depth-first search per
    /// query instead of a shared bit matrix: the reference the one-analysis
    /// check must agree with, error for error and in the same order.
    fn strong_errors_by_search(dag: &CostDag) -> Vec<WellFormedError> {
        let reaches = |from: VertexId, to: VertexId| {
            let mut seen = vec![false; dag.vertex_count()];
            let mut stack = vec![from];
            while let Some(v) = stack.pop() {
                if v == to {
                    return true;
                }
                if !std::mem::replace(&mut seen[v.index()], true) {
                    stack.extend(dag.out_edges(v).map(|e| e.to));
                }
            }
            false
        };
        let continuation = |e: &crate::graph::Edge| e.kind == EdgeKind::Continuation;
        let knows = |creator: VertexId, target: VertexId| {
            dag.out_edges(creator).filter(continuation).any(|first| {
                first.to == target
                    || dag
                        .in_edges(target)
                        .filter(continuation)
                        .any(|last| reaches(first.to, last.from))
            })
        };
        let dom = dag.domain();
        let touches = dag.touch_edges().iter().map(|&(a, u)| (a, u, true));
        let weaks = dag
            .weak_edges()
            .iter()
            .map(|&(w, u)| (dag.thread_of(w), u, false));
        let mut errors = Vec::new();
        for (a, u, is_touch) in touches.chain(weaks) {
            let toucher_prio = dag.thread_priority(dag.thread_of(u));
            if is_touch && !dom.leq(toucher_prio, dag.thread_priority(a)) {
                errors.push(WellFormedError::TouchPriorityInversion {
                    touched: a,
                    toucher: u,
                });
            }
            if dag.creator_of(a).is_some_and(|c| !knows(c, u)) {
                errors.push(WellFormedError::UnknownThreadTouched {
                    touched: a,
                    toucher: u,
                });
            }
        }
        errors
    }

    fn errors(verdict: Result<(), Vec<WellFormedError>>) -> Vec<WellFormedError> {
        verdict.err().unwrap_or_default()
    }

    #[test]
    fn one_reachability_gives_the_same_strong_verdicts_as_a_search_per_edge() {
        let mut kinds = [0usize; 2];
        for (i, g) in corpus().iter().enumerate() {
            let reach = Reachability::new(g);
            let shared = errors(check_strongly_well_formed_with(g, &reach));
            assert_eq!(shared, errors(check_strongly_well_formed(g)), "graph {i}");
            assert_eq!(shared, strong_errors_by_search(g), "graph {i}");
            for e in &shared {
                match e {
                    WellFormedError::TouchPriorityInversion { .. } => kinds[0] += 1,
                    WellFormedError::UnknownThreadTouched { .. } => kinds[1] += 1,
                    other => panic!("graph {i}: Definition 4 reported {other}"),
                }
            }
            // The same analysis serves Definition 1.
            assert_eq!(
                errors(check_well_formed_with(g, &reach)),
                errors(check_well_formed(g)),
                "graph {i}"
            );
        }
        assert!(
            kinds.iter().all(|&n| n >= 3),
            "the corpus must exercise both violations: {kinds:?}"
        );
    }

    /// Figure 2(a)'s exact verdicts: `u0` (lo) lies on thread `a`'s
    /// critical path through an unwitnessed create edge, and `a` touches
    /// `c` without a handle-propagation path from `c`'s creator `u0`.
    #[test]
    fn fig2a_verdicts_are_exact() {
        let g = fig2a();
        let [a, b, c] = ["a", "b", "c"].map(|n| g.thread_by_name(n).unwrap());
        let (u0, u, t) = (g.first_vertex(b), g.first_vertex(c), g.last_vertex(a));
        assert_eq!(
            errors(check_well_formed(&g)),
            vec![
                WellFormedError::LowPriorityStrongAncestor {
                    thread: a,
                    vertex: u0
                },
                WellFormedError::UnmitigatedCreateEdge {
                    thread: a,
                    from: u0,
                    to: u
                },
            ]
        );
        assert_eq!(
            errors(check_strongly_well_formed(&g)),
            vec![WellFormedError::UnknownThreadTouched {
                touched: c,
                toucher: t
            }]
        );
        assert!(check_well_formed(&fig2b()).is_ok());
    }

    #[test]
    fn a_sibling_created_at_the_same_vertex_is_unknown() {
        let g = sibling_touch();
        let [c, d] = ["c", "d"].map(|n| g.thread_by_name(n).unwrap());
        assert_eq!(
            errors(check_strongly_well_formed(&g)),
            vec![WellFormedError::UnknownThreadTouched {
                touched: c,
                toucher: g.first_vertex(d)
            }]
        );
    }

    #[test]
    fn touch_priority_inversion_detected() {
        let g = inverted_touch();
        // Strong well-formedness: the touch inverts priority.
        let errs = check_strongly_well_formed(&g).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::TouchPriorityInversion { .. })));
        // Plain well-formedness is also violated (bullet 1: the low-priority
        // bg vertex is a strong ancestor of m1).
        assert!(check_well_formed(&g).is_err());
    }

    #[test]
    fn touch_of_higher_priority_is_fine() {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let lo = d.priority("lo").unwrap();
        let mut b = DagBuilder::new(d);
        let main = b.thread("main", lo);
        let worker = b.thread("worker", hi);
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let _w0 = b.vertex(worker);
        b.fcreate(m0, worker).unwrap();
        b.ftouch(worker, m1).unwrap();
        let g = b.build().unwrap();
        assert!(check_well_formed(&g).is_ok());
        assert!(check_strongly_well_formed(&g).is_ok());
    }

    #[test]
    fn unknown_thread_touch_detected() {
        // Thread c is created by thread b, but thread a touches c without any
        // handle-propagation path from b's create point to the toucher.
        let errs = check_strongly_well_formed(&third_party_touch(false)).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, WellFormedError::UnknownThreadTouched { .. })));
        // Adding the handle-propagation weak edge (write in b, read in a)
        // fixes it.
        assert!(check_strongly_well_formed(&third_party_touch(true)).is_ok());
    }

    #[test]
    fn lemma_3_4_on_examples() {
        assert!(lemma_3_4_holds(&fig2a()));
        assert!(lemma_3_4_holds(&fig2b()));
    }

    #[test]
    fn error_display() {
        let errs = [
            WellFormedError::LowPriorityStrongAncestor {
                thread: ThreadId(0),
                vertex: VertexId(1),
            },
            WellFormedError::UnmitigatedCreateEdge {
                thread: ThreadId(0),
                from: VertexId(1),
                to: VertexId(2),
            },
            WellFormedError::TouchPriorityInversion {
                touched: ThreadId(0),
                toucher: VertexId(1),
            },
            WellFormedError::UnknownThreadTouched {
                touched: ThreadId(0),
                toucher: VertexId(1),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
