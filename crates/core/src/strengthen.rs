//! The *a-strengthening* transformation (Definition 2).
//!
//! For a thread `a = s · … · t` of a well-formed graph, the strengthening
//! `ĝₐ` replaces every strong edge `(u₀, u)` that would put lower-priority
//! work on `a`'s critical path with the edge `(u′, u)`, where `u′` is a
//! vertex witnessing the weak path mandated by well-formedness: in any
//! admissible schedule `u′` runs after `u₀`, so the implicit dependence is
//! preserved while the low-priority vertex `u₀` disappears from the a-span.

use crate::analysis::{ones, PriorityFacts, Reachability};
use crate::csr::VertexCsr;
use crate::graph::{CostDag, Edge, ThreadId, VertexId};

/// The result of a-strengthening: the same vertices as the base graph with a
/// rewritten edge relation.
#[derive(Debug, Clone)]
pub struct StrengthenedDag {
    /// The thread the strengthening was taken with respect to.
    pub thread: ThreadId,
    /// Number of vertices (same as the base graph).
    pub vertex_count: usize,
    /// The rewritten edge set.
    pub edges: Vec<Edge>,
    /// Strong edges that Definition 2 removed, as `(u0, u)` pairs.
    pub removed: Vec<(VertexId, VertexId)>,
    /// Replacement edges added, as `(u', u)` pairs.
    pub added: Vec<(VertexId, VertexId)>,
    /// CSR over the rewritten strong in-edges, so the a-span's longest-path
    /// walk is `O(deg)` per vertex instead of a full edge-list filter.
    pub(crate) strong_in: VertexCsr,
}

impl StrengthenedDag {
    /// Outgoing edges of a vertex in the strengthened graph.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied().filter(move |e| e.from == v)
    }

    /// Incoming edges of a vertex in the strengthened graph.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied().filter(move |e| e.to == v)
    }

    /// Incoming strong parents in the strengthened graph (`O(deg)` via the
    /// cached CSR).
    pub fn strong_parents(&self, v: VertexId) -> &[VertexId] {
        self.strong_in.slice(v)
    }

    /// Whether the strengthened graph still contains the strong edge
    /// `(from, to)`.
    pub fn has_strong_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.edges
            .iter()
            .any(|e| e.from == from && e.to == to && e.kind.is_strong())
    }
}

/// Computes the a-strengthening `ĝₐ` of `dag` with respect to thread `a`
/// (Definition 2).
///
/// For every strong edge `(u₀, u)` such that `u ⊒ˢ t`, `Prio(u) ⪯̸ Prio(u₀)`,
/// and `u ⋣ s` (where `s` and `t` are the first and last vertices of `a`):
///
/// 1. the edge `(u₀, u)` is removed;
/// 2. if some `u′` exists with `u′ ⊒ˢ t`, `u₀ ⊒ʷ u′`, and `u′ ⋣ s`, the edge
///    `(u′, u)` is added in its place (preferring witnesses that are not
///    descendants of `u`, which well-formedness guarantees exist).
///
/// The transformation never looks at weak edges other than through the
/// `⊒ʷ` relation; weak edges of the base graph are carried over unchanged.
pub fn strengthening(dag: &CostDag, a: ThreadId) -> StrengthenedDag {
    let reach = Reachability::new(dag);
    strengthening_with(dag, a, &reach)
}

/// Definition 2's trigger for thread `a`: whether the a-strengthening
/// rewrites the strong edge `(u₀, u)`.  The single definition that both
/// [`strengthening_with`] and [`strengthening_is_identity`] apply.
///
/// As in the well-formedness check, the transformation is restricted to
/// edges whose source is strictly lower priority than `a` itself — those
/// are the vertices that cannot be charged to competitor work and must
/// therefore leave the critical path.
fn trigger<'a>(
    dag: &'a CostDag,
    a: ThreadId,
    reach: &'a Reachability,
) -> impl Fn(VertexId, VertexId) -> bool + 'a {
    let s = dag.first_vertex(a);
    let t = dag.last_vertex(a);
    let dom = dag.domain();
    let rho_a = dag.thread_priority(a);
    move |u0, u| {
        reach.is_strong_ancestor(u, t)
            && !dom.leq(dag.priority_of(u), dag.priority_of(u0))
            && !dom.leq(rho_a, dag.priority_of(u0))
            && !reach.is_ancestor(u, s)
    }
}

/// Whether the a-strengthening of `dag` is the identity: no strong edge
/// meets Definition 2's trigger, so `ĝₐ` has exactly the base graph's edges
/// and the a-span may walk the base graph instead of a rewritten copy.
/// Only the priority-inverting edges of `facts` can meet the trigger.
pub(crate) fn strengthening_is_identity(
    dag: &CostDag,
    a: ThreadId,
    reach: &Reachability,
    facts: &PriorityFacts,
) -> bool {
    let triggers = trigger(dag, a, reach);
    !facts.inverting().iter().any(|&(u0, u)| triggers(u0, u))
}

/// Like [`strengthening`] but reuses an existing [`Reachability`] analysis.
pub fn strengthening_with(dag: &CostDag, a: ThreadId, reach: &Reachability) -> StrengthenedDag {
    let s = dag.first_vertex(a);
    let t = dag.last_vertex(a);
    let triggers = trigger(dag, a, reach);
    let (anc_s, anc_t) = (reach.ancestors(s), reach.ancestors(t));

    let mut edges: Vec<Edge> = Vec::with_capacity(dag.edges().len());
    let mut removed = Vec::new();
    let mut added = Vec::new();

    for e in dag.edges() {
        let (u0, u) = (e.from, e.to);
        if !e.kind.is_strong() || !triggers(u0, u) {
            edges.push(*e);
            continue;
        }
        removed.push((u0, u));
        // Find the witness u' of Definition 2: u' ⊒ˢ t, u0 ⊒ʷ u' and
        // u' ⋣ s, lowest id first.  Prefer a witness that is not a
        // descendant of u (well-formedness guarantees one exists) so the
        // strengthened graph stays acyclic.
        let weak_u0 = reach.weak_descendants(u0);
        let mut witnesses = ones((0..anc_t.len()).map(|w| anc_t[w] & weak_u0[w] & !anc_s[w]))
            .filter(|&cand| !reach.is_weak_ancestor(cand, t))
            .peekable();
        let first = witnesses.peek().copied();
        let witness = witnesses
            .find(|&cand| !reach.is_ancestor(u, cand))
            .or(first);
        if let Some(u_prime) = witness {
            added.push((u_prime, u));
            edges.push(Edge {
                from: u_prime,
                to: u,
                kind: e.kind,
            });
        }
    }

    let strong_in = VertexCsr::build(dag.vertex_count(), &edges, |e| {
        e.kind.is_strong().then_some((e.to.index(), e.from))
    });
    StrengthenedDag {
        thread: a,
        vertex_count: dag.vertex_count(),
        edges,
        removed,
        added,
        strong_in,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rp_priority::PriorityDomain;

    /// The Figure 3 situation: high-priority thread A = [s, u', t],
    /// low-priority B = [u0, w], high-priority C = [u]; create(s,B),
    /// create(u0,C), touch(C,t), weak(w, u').
    fn fig3() -> (CostDag, [VertexId; 6]) {
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
        (b.build().unwrap(), [s, u_prime, t, u0, w, u])
    }

    /// Definition 2's witness for the rewritten edge `(u0, u)`, searched
    /// vertex by vertex through pair lookups as before the row operations:
    /// the first non-descendant of `u`, else the first candidate.
    fn witness_by_vertex(
        dag: &CostDag,
        a: ThreadId,
        reach: &Reachability,
        u0: VertexId,
        u: VertexId,
    ) -> Option<VertexId> {
        let (s, t) = (dag.first_vertex(a), dag.last_vertex(a));
        let mut witness: Option<VertexId> = None;
        for cand in dag.vertices() {
            if reach.is_strong_ancestor(cand, t)
                && reach.is_weak_ancestor(u0, cand)
                && !reach.is_ancestor(cand, s)
            {
                let non_descendant = !reach.is_ancestor(u, cand);
                match witness {
                    None => witness = Some(cand),
                    Some(w) => {
                        if non_descendant && reach.is_ancestor(u, w) {
                            witness = Some(cand);
                        }
                    }
                }
                if non_descendant {
                    witness = Some(cand);
                    break;
                }
            }
        }
        witness
    }

    /// The row-operation strengthening against the per-vertex witness
    /// search, and the inverting-edge identity test against a scan of
    /// every strong edge, on every thread of the shared corpus.
    #[test]
    fn row_operations_give_the_vertex_by_vertex_strengthening() {
        let mut rewritten = 0;
        for (i, g) in crate::wellformed::tests::corpus().iter().enumerate() {
            let reach = Reachability::new(g);
            let facts = PriorityFacts::new(g);
            for a in g.threads() {
                let st = strengthening_with(g, a, &reach);
                let triggers = trigger(g, a, &reach);
                let removed: Vec<_> = g
                    .strong_edges()
                    .filter(|e| triggers(e.from, e.to))
                    .map(|e| (e.from, e.to))
                    .collect();
                assert_eq!(st.removed, removed, "graph {i} {a:?}");
                let added: Vec<_> = removed
                    .iter()
                    .filter_map(|&(u0, u)| witness_by_vertex(g, a, &reach, u0, u).map(|w| (w, u)))
                    .collect();
                assert_eq!(st.added, added, "graph {i} {a:?}");
                assert_eq!(
                    strengthening_is_identity(g, a, &reach, &facts),
                    removed.is_empty(),
                    "graph {i} {a:?}"
                );
                rewritten += usize::from(!removed.is_empty());
            }
        }
        assert!(rewritten >= 10, "only {rewritten} threads were rewritten");
    }

    #[test]
    fn strengthening_replaces_low_priority_create_edge() {
        let (g, [_s, u_prime, _t, u0, _w, u]) = fig3();
        let a = g.thread_by_name("a").unwrap();
        let st = strengthening(&g, a);
        assert_eq!(st.removed, vec![(u0, u)]);
        assert_eq!(st.added, vec![(u_prime, u)]);
        assert!(!st.has_strong_edge(u0, u));
        assert!(st.has_strong_edge(u_prime, u));
        // Edge count is preserved: one removed, one added.
        assert_eq!(st.edges.len(), g.edges().len());
    }

    #[test]
    fn strengthening_of_priority_free_graph_is_identity() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let a = b.thread("a", p);
        let c = b.thread("c", p);
        let a0 = b.vertex(a);
        let a1 = b.vertex(a);
        let _c0 = b.vertex(c);
        b.fcreate(a0, c).unwrap();
        b.ftouch(c, a1).unwrap();
        let g = b.build().unwrap();
        let st = strengthening(&g, a);
        assert!(st.removed.is_empty() && st.added.is_empty());
        assert_eq!(st.edges.len(), g.edges().len());
    }

    #[test]
    fn strengthened_accessors() {
        let (g, [_s, u_prime, t, _u0, _w, u]) = fig3();
        let a = g.thread_by_name("a").unwrap();
        let st = strengthening(&g, a);
        assert_eq!(st.vertex_count, g.vertex_count());
        assert!(st.strong_parents(u).contains(&u_prime));
        assert!(st.out_edges(u).any(|e| e.to == t));
        assert!(st.in_edges(t).any(|e| e.from == u));
    }
}
