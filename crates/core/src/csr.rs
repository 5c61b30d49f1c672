//! Compressed-sparse-row (CSR) adjacency index for
//! [`CostDag`](crate::graph::CostDag)s.
//!
//! The seed implementation answered every neighbourhood query
//! (`out_edges`, `in_edges`, `strong_parents`, …) by filtering the full edge
//! list — `O(E)` per call and an allocation per parent query — which made
//! the schedulers and analyses quadratic on large graphs.  [`CsrIndex`] is
//! built once by [`DagBuilder::build`](crate::build::DagBuilder::build) and
//! cached on the graph: flat `offsets`/`targets` arrays per relation and an
//! `O(1)` creator table.  Queries become slice reads.
//!
//! Buckets preserve the original edge-list order (the construction is a
//! stable counting sort), so iteration order is byte-identical to the old
//! filter-based queries — schedules and analyses that depended on that order
//! are unchanged.

use crate::graph::{Edge, ThreadId, VertexId};

/// One direction of a CSR over the full edge list: `edges[offsets[v] ..
/// offsets[v + 1]]` are the edges incident to `v` on that side.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct EdgeCsr {
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

impl EdgeCsr {
    /// Builds the CSR keyed by `key(edge)` with a stable counting sort.
    fn build(n: usize, all: &[Edge], key: impl Fn(&Edge) -> usize) -> Self {
        let mut counts = vec![0u32; n + 1];
        for e in all {
            counts[key(e) + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut edges = vec![
            Edge {
                from: VertexId(0),
                to: VertexId(0),
                kind: crate::graph::EdgeKind::Continuation,
            };
            all.len()
        ];
        for e in all {
            let k = key(e);
            edges[cursor[k] as usize] = *e;
            cursor[k] += 1;
        }
        EdgeCsr { offsets, edges }
    }

    #[inline]
    fn slice(&self, v: VertexId) -> &[Edge] {
        let i = v.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One direction of a CSR restricted to an edge subset, storing only the
/// opposite endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct VertexCsr {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl VertexCsr {
    /// Builds the CSR over the `(key, target)` pairs yielded by `select`.
    pub(crate) fn build(
        n: usize,
        all: &[Edge],
        select: impl Fn(&Edge) -> Option<(usize, VertexId)> + Copy,
    ) -> Self {
        let mut counts = vec![0u32; n + 1];
        for e in all {
            if let Some((k, _)) = select(e) {
                counts[k + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![VertexId(0); offsets[n] as usize];
        for e in all {
            if let Some((k, t)) = select(e) {
                targets[cursor[k] as usize] = t;
                cursor[k] += 1;
            }
        }
        VertexCsr { offsets, targets }
    }

    #[inline]
    pub(crate) fn slice(&self, v: VertexId) -> &[VertexId] {
        let i = v.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }
}

/// The cached adjacency index of a [`CostDag`](crate::graph::CostDag).
///
/// Built exactly once per graph (all construction paths go through
/// [`DagBuilder::build`](crate::build::DagBuilder::build)); immutable
/// afterwards, like the graph itself.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsrIndex {
    out: EdgeCsr,
    inc: EdgeCsr,
    strong_out: VertexCsr,
    strong_in: VertexCsr,
    weak_out: VertexCsr,
    weak_in: VertexCsr,
    /// Per-thread creating vertex (`None` for root threads).
    creator: Vec<Option<VertexId>>,
}

impl CsrIndex {
    /// Builds the index from the graph's edges and per-thread creator
    /// table.
    pub(crate) fn build(
        vertex_count: usize,
        edges: &[Edge],
        creator: Vec<Option<VertexId>>,
    ) -> Self {
        let n = vertex_count;
        let strong = |e: &Edge| e.kind.is_strong();
        CsrIndex {
            out: EdgeCsr::build(n, edges, |e| e.from.index()),
            inc: EdgeCsr::build(n, edges, |e| e.to.index()),
            strong_out: VertexCsr::build(n, edges, |e| strong(e).then_some((e.from.index(), e.to))),
            strong_in: VertexCsr::build(n, edges, |e| strong(e).then_some((e.to.index(), e.from))),
            weak_out: VertexCsr::build(n, edges, |e| {
                (!strong(e)).then_some((e.from.index(), e.to))
            }),
            weak_in: VertexCsr::build(n, edges, |e| (!strong(e)).then_some((e.to.index(), e.from))),
            creator,
        }
    }

    /// Outgoing edges of `v`, in original edge-list order.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[Edge] {
        self.out.slice(v)
    }

    /// Incoming edges of `v`, in original edge-list order.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[Edge] {
        self.inc.slice(v)
    }

    /// Strong successors of `v` (targets of strong out-edges).
    #[inline]
    pub fn strong_successors(&self, v: VertexId) -> &[VertexId] {
        self.strong_out.slice(v)
    }

    /// Strong parents of `v` (sources of strong in-edges).
    #[inline]
    pub fn strong_parents(&self, v: VertexId) -> &[VertexId] {
        self.strong_in.slice(v)
    }

    /// Weak successors of `v`.
    #[inline]
    pub fn weak_successors(&self, v: VertexId) -> &[VertexId] {
        self.weak_out.slice(v)
    }

    /// Weak parents of `v`.
    #[inline]
    pub fn weak_parents(&self, v: VertexId) -> &[VertexId] {
        self.weak_in.slice(v)
    }

    /// Strong in-degree of `v`.
    #[inline]
    pub fn strong_indegree(&self, v: VertexId) -> usize {
        self.strong_in.degree(v)
    }

    /// The vertex that created thread `t`, if any.
    #[inline]
    pub fn creator_of(&self, t: ThreadId) -> Option<VertexId> {
        self.creator[t.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use crate::graph::{CostDag, EdgeKind};
    use rp_priority::PriorityDomain;

    fn sample() -> CostDag {
        let dom = PriorityDomain::numeric(2);
        let hi = dom.by_index(1);
        let lo = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let main = b.thread("main", hi);
        let child = b.thread("child", lo);
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let c0 = b.vertex(child);
        let c1 = b.vertex(child);
        b.fcreate(m0, child).unwrap();
        b.ftouch(child, m1).unwrap();
        b.weak(c0, m1).unwrap();
        let _ = (c1,);
        b.build().unwrap()
    }

    /// CSR buckets must reproduce the edge-list filters exactly, including
    /// order.
    #[test]
    fn csr_matches_edge_list_filters() {
        let g = sample();
        for v in g.vertices() {
            let naive_out: Vec<Edge> = g.edges().iter().copied().filter(|e| e.from == v).collect();
            let naive_in: Vec<Edge> = g.edges().iter().copied().filter(|e| e.to == v).collect();
            assert_eq!(g.out_edges(v).collect::<Vec<_>>(), naive_out);
            assert_eq!(g.in_edges(v).collect::<Vec<_>>(), naive_in);
            let naive_sp: Vec<VertexId> = naive_in
                .iter()
                .filter(|e| e.kind.is_strong())
                .map(|e| e.from)
                .collect();
            let naive_wp: Vec<VertexId> = naive_in
                .iter()
                .filter(|e| e.kind == EdgeKind::Weak)
                .map(|e| e.from)
                .collect();
            assert_eq!(g.strong_parents(v), naive_sp);
            assert_eq!(g.weak_parents(v), naive_wp);
            let naive_ss: Vec<VertexId> = naive_out
                .iter()
                .filter(|e| e.kind.is_strong())
                .map(|e| e.to)
                .collect();
            assert_eq!(g.strong_successors(v), naive_ss);
        }
    }

    #[test]
    fn creator_table() {
        let g = sample();
        let [main, child] = [ThreadId(0), ThreadId(1)];
        assert_eq!(g.creator_of(main), None);
        assert_eq!(g.creator_of(child), Some(g.first_vertex(main)));
        assert_eq!(g.create_edges(), [(g.first_vertex(main), child)]);
    }
}
