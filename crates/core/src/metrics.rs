//! Work, span, competitor work, and the a-span.

use crate::analysis::{has, vertex_row, Reachability};
use crate::graph::{CostDag, ThreadId, VertexId};
use crate::strengthen::{strengthening_with, StrengthenedDag};

/// Total work of the graph: the number of vertices.
pub fn work(dag: &CostDag) -> usize {
    dag.vertex_count()
}

/// Traditional span of the graph: the number of vertices on the longest
/// strong path.
///
/// Weak edges are not dependences in the scheduling sense (a read never
/// blocks on a write), so they do not contribute to the span.
pub fn span(dag: &CostDag) -> usize {
    let n = dag.vertex_count();
    if n == 0 {
        return 0;
    }
    let order = crate::analysis::topological_order(dag);
    // longest[v]: number of vertices on the longest strong path ending at v.
    let mut longest = vec![1usize; n];
    for &v in &order {
        for e in dag.in_edges(v) {
            if e.kind.is_strong() {
                longest[v.index()] = longest[v.index()].max(longest[e.from.index()] + 1);
            }
        }
    }
    longest.into_iter().max().unwrap_or(0)
}

/// The competitor work `W_{⊀ρ}(↛↓a)` of thread `a` (Section 2.3):
/// the number of vertices that may run in parallel with `a` (neither
/// ancestors of its first vertex `s` nor descendants of its last vertex `t`)
/// and whose priority is *not* strictly below `a`'s priority `ρ`.
pub fn competitor_work(dag: &CostDag, a: ThreadId) -> usize {
    let reach = Reachability::new(dag);
    competitor_work_with(dag, a, &reach)
}

/// Like [`competitor_work`] but reuses an existing reachability analysis.
///
/// # Complexity
///
/// `O(V)` to mark the vertices of priority `⊀ ρ`, then `O(V/64)` word
/// operations; a [`BoundAnalysis`](crate::bound::BoundAnalysis) keeps the
/// marks of every level and pays only the second term per thread.
pub fn competitor_work_with(dag: &CostDag, a: ThreadId, reach: &Reachability) -> usize {
    let (dom, rho) = (dag.domain(), dag.thread_priority(a));
    let competes = vertex_row(dag, |u| dom.not_lt(dag.priority_of(u), rho));
    competitor_work_in(dag, a, reach, &competes)
}

/// Competitor work given `competes = {u | Prio(u) ⊀ ρ}` as a row of words:
/// `popcount(¬anc(s) ∧ ¬desc(t) ∧ competes)`.
pub(crate) fn competitor_work_in(
    dag: &CostDag,
    a: ThreadId,
    reach: &Reachability,
    competes: &[u64],
) -> usize {
    let anc_s = reach.ancestors(dag.first_vertex(a));
    let desc_t = reach.descendants(dag.last_vertex(a));
    (0..competes.len()).fold(0, |count, w| {
        count + (!anc_s[w] & !desc_t[w] & competes[w]).count_ones() as usize
    })
}

/// The a-span `S_a(↛↓a)` of thread `a` (Section 2.3): the number of vertices
/// on the longest strong path in the a-strengthening `ĝₐ` that ends at `a`'s
/// last vertex `t` and consists only of vertices that are not ancestors of
/// `a`'s first vertex `s`.
pub fn a_span(dag: &CostDag, a: ThreadId) -> usize {
    let reach = Reachability::new(dag);
    let st = strengthening_with(dag, a, &reach);
    a_span_with(dag, a, &reach, &st)
}

/// Like [`a_span`] but reuses precomputed reachability and strengthening.
pub fn a_span_with(
    dag: &CostDag,
    a: ThreadId,
    reach: &Reachability,
    strengthened: &StrengthenedDag,
) -> usize {
    a_span_over(dag, a, reach, &|v| strengthened.strong_parents(v))
}

/// The a-span over a graph with the base graph's vertices whose strong
/// in-edges are given by `parents`: the strengthened graph's, or, when
/// Definition 2 rewrites nothing for `a`, the base graph's own.
pub(crate) fn a_span_over<'p>(
    dag: &CostDag,
    a: ThreadId,
    reach: &Reachability,
    parents: &dyn Fn(VertexId) -> &'p [VertexId],
) -> usize {
    let anc_s = reach.ancestors(dag.first_vertex(a));
    let allowed = |v: VertexId| !has(anc_s, v);
    longest_strong_path_to(dag.vertex_count(), parents, dag.last_vertex(a), &allowed)
}

/// `S_a(V)`: the number of vertices on the longest strong path ending at `t`
/// and consisting only of vertices satisfying `allowed`, over the `n`
/// vertices whose strong in-edges `parents` gives.
fn longest_strong_path_to<'p>(
    n: usize,
    parents: &dyn Fn(VertexId) -> &'p [VertexId],
    t: VertexId,
    allowed: &dyn Fn(VertexId) -> bool,
) -> usize {
    // Memoized longest path over the strong edges, walking backwards from t.
    // Both graphs walked here are acyclic: the base graph by construction,
    // and the strengthened graph because it is derived from an acyclic graph
    // by replacing edges with edges from vertices that are not descendants
    // of the target.
    fn go<'p>(
        parents: &dyn Fn(VertexId) -> &'p [VertexId],
        v: VertexId,
        allowed: &dyn Fn(VertexId) -> bool,
        memo: &mut Vec<Option<usize>>,
    ) -> usize {
        if !allowed(v) {
            return 0;
        }
        if let Some(cached) = memo[v.index()] {
            return cached;
        }
        // Mark as in-progress with 1 (itself) to guard against accidental
        // cycles; acyclicity makes this a plain memo in practice.
        memo[v.index()] = Some(1);
        let mut best = 1;
        for &p in parents(v) {
            if allowed(p) {
                best = best.max(1 + go(parents, p, allowed, memo));
            }
        }
        memo[v.index()] = Some(best);
        best
    }
    if !allowed(t) {
        return 0;
    }
    let mut memo = vec![None; n];
    go(parents, t, allowed, &mut memo)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rp_priority::PriorityDomain;

    /// Competitor work counted vertex by vertex through pair lookups, as
    /// before the row operations: the reference for
    /// [`competitor_work_with`].
    pub(crate) fn competitor_work_by_vertex(
        dag: &CostDag,
        a: ThreadId,
        reach: &Reachability,
    ) -> usize {
        let s = dag.first_vertex(a);
        let t = dag.last_vertex(a);
        let rho = dag.thread_priority(a);
        let dom = dag.domain();
        dag.vertices()
            .filter(|&u| {
                !reach.is_ancestor(u, s)
                    && !reach.is_ancestor(t, u)
                    && !dom.lt(dag.priority_of(u), rho)
            })
            .count()
    }

    /// The a-span with `allowed` answered by a pair lookup per vertex, as
    /// before the ancestor rows: the reference for [`a_span_over`].
    pub(crate) fn a_span_by_lookup<'p>(
        dag: &CostDag,
        a: ThreadId,
        reach: &Reachability,
        parents: &dyn Fn(VertexId) -> &'p [VertexId],
    ) -> usize {
        let s = dag.first_vertex(a);
        let allowed = |v: VertexId| !reach.is_ancestor(v, s);
        longest_strong_path_to(dag.vertex_count(), parents, dag.last_vertex(a), &allowed)
    }

    #[test]
    fn row_operations_give_the_vertex_by_vertex_metrics() {
        let mut counted = 0;
        for (i, g) in crate::wellformed::tests::corpus().iter().enumerate() {
            let reach = Reachability::new(g);
            for a in g.threads() {
                let w = competitor_work_with(g, a, &reach);
                assert_eq!(
                    w,
                    competitor_work_by_vertex(g, a, &reach),
                    "graph {i} {a:?}"
                );
                counted += w;
                let base = |v| g.strong_parents(v);
                assert_eq!(
                    a_span_over(g, a, &reach, &base),
                    a_span_by_lookup(g, a, &reach, &base),
                    "graph {i} {a:?}"
                );
            }
        }
        assert!(counted > 0, "no thread had competitor work");
    }

    /// A simple fork-join: main = [m0, m1, m2], child = [c0, c1],
    /// create(m0, child), touch(child, m2); both priorities equal.
    fn fork_join() -> CostDag {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let main = b.thread("main", p);
        let child = b.thread("child", p);
        let m0 = b.vertex(main);
        let _m1 = b.vertex(main);
        let m2 = b.vertex(main);
        let _c = b.vertices(child, 2);
        b.fcreate(m0, child).unwrap();
        b.ftouch(child, m2).unwrap();
        let _ = m2;
        b.build().unwrap()
    }

    #[test]
    fn work_and_span_fork_join() {
        let g = fork_join();
        assert_eq!(work(&g), 5);
        // Longest strong path: m0 -> c0 -> c1 -> m2 = 4 vertices.
        assert_eq!(span(&g), 4);
    }

    #[test]
    fn competitor_work_same_priority() {
        let g = fork_join();
        let child = g.thread_by_name("child").unwrap();
        // For the child: s = c0, t = c1.  Ancestors of c0: m0, c0.
        // Descendants of c1: c1, m2.  Remaining: m1 — at equal priority,
        // which is ⊀, so it counts.
        assert_eq!(competitor_work(&g, child), 1);
        let main = g.thread_by_name("main").unwrap();
        // For main: s = m0 has no non-ancestor work before it; descendants of
        // m2: m2 itself; everything else (m0,m1,c0,c1) is an ancestor of s or
        // parallel work.  Ancestors of m0: just m0.  t=m2's descendants: m2.
        // So c0, c1, m1 count (3).
        assert_eq!(competitor_work(&g, main), 3);
    }

    #[test]
    fn competitor_work_excludes_lower_priority() {
        let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
        let hi = dom.priority("hi").unwrap();
        let lo = dom.priority("lo").unwrap();
        let mut b = DagBuilder::new(dom);
        let main = b.thread("main", hi);
        let bg = b.thread("bg", lo);
        let m0 = b.vertex(main);
        let _m1 = b.vertex(main);
        let _bgv = b.vertices(bg, 10);
        b.fcreate(m0, bg).unwrap();
        let g = b.build().unwrap();
        let main = g.thread_by_name("main").unwrap();
        // The 10 background vertices are strictly lower priority, so they do
        // not count as competitor work for main.
        assert_eq!(competitor_work(&g, main), 0);
    }

    #[test]
    fn a_span_fork_join() {
        let g = fork_join();
        let main = g.thread_by_name("main").unwrap();
        // Non-ancestors of m0 that can delay m2: m1, m2, c0, c1.  Longest
        // strong path ending at m2 avoiding ancestors of m0 (i.e. avoiding
        // m0): c0 -> c1 -> m2 = 3... but c0's only parent is m0 which is
        // excluded, so the path is c0, c1, m2 = 3 vertices; via m1 it is
        // m1, m2 = 2.  So a-span = 3.
        assert_eq!(a_span(&g, main), 3);
        let child = g.thread_by_name("child").unwrap();
        // For the child thread: longest path ending at c1 avoiding ancestors
        // of c0 (m0 and c0 are ancestors of c0; c0 itself excluded? c0 is an
        // ancestor of itself, so excluded): just c1 = 1.
        assert_eq!(a_span(&g, child), 1);
    }

    #[test]
    fn a_span_sees_through_strengthening() {
        // Figure 3 shape: without strengthening the low-priority u0 would be
        // on the critical path of a; with it, the path goes through u'.
        let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
        let hi = dom.priority("hi").unwrap();
        let lo = dom.priority("lo").unwrap();
        let mut b = DagBuilder::new(dom);
        let a = b.thread("a", hi);
        let bb = b.thread("b", lo);
        let c = b.thread("c", hi);
        let s = b.vertex(a);
        let u_prime = b.vertex(a);
        let t = b.vertex(a);
        let u0 = b.vertex(bb);
        let w = b.vertex(bb);
        let u = b.vertex(c);
        b.fcreate(s, bb).unwrap();
        b.fcreate(u0, c).unwrap();
        b.ftouch(c, t).unwrap();
        b.weak(w, u_prime).unwrap();
        let g = b.build().unwrap();
        let a = g.thread_by_name("a").unwrap();
        // In ĝa the edge (u0, u) is replaced by (u', u); the longest strong
        // path ending at t avoiding ancestors of s is u' -> u -> t = 3
        // (u0 and w are no longer on any strong path to t).
        assert_eq!(a_span(&g, a), 3);
        let _ = (u_prime, u0, w, u, s, t);
    }

    #[test]
    fn span_of_single_thread_is_its_length() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let a = b.thread("a", p);
        b.vertices(a, 7);
        let g = b.build().unwrap();
        assert_eq!(span(&g), 7);
        assert_eq!(work(&g), 7);
    }
}
