//! Ancestor and reachability analyses over cost graphs.
//!
//! The paper distinguishes three ancestor relations (Section 2.2):
//!
//! * `u ⊒ u'` — *ancestor*: there is a (possibly empty) directed path from
//!   `u` to `u'` using any kind of edge;
//! * `u ⊒ˢ u'` — *strong ancestor*: `u ⊒ u'` and **every** path from `u` to
//!   `u'` is strong (contains no weak edge);
//! * `u ⊒ʷ u'` — *weak ancestor*: there exists a path from `u` to `u'`
//!   containing at least one weak edge.
//!
//! [`Reachability`] answers all three from two bit matrices (`⊒ˢ` is `⊒`
//! without `⊒ʷ`), so the well-formedness checks, strengthening, and span
//! computations are cheap.

use crate::graph::{CostDag, VertexId};

/// A simple dense bit matrix over vertex pairs.
#[derive(Debug, Clone)]
pub(crate) struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    pub(crate) fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize) {
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// `row(i) |= row(j)`, returning whether `row(i)` changed.
    pub(crate) fn or_row(&mut self, i: usize, j: usize) -> bool {
        let mut changed = false;
        let (ri, rj) = (i * self.words_per_row, j * self.words_per_row);
        for w in 0..self.words_per_row {
            // Split borrows by copying the source word first.
            let src = self.bits[rj + w];
            let dst = &mut self.bits[ri + w];
            let new = *dst | src;
            if new != *dst {
                *dst = new;
                changed = true;
            }
        }
        changed
    }

    /// `self.row(i) |= other.row(j)` across two matrices, word at a time.
    pub(crate) fn or_row_from(&mut self, i: usize, other: &BitMatrix, j: usize) {
        debug_assert_eq!(self.words_per_row, other.words_per_row);
        let (ri, rj) = (i * self.words_per_row, j * other.words_per_row);
        for w in 0..self.words_per_row {
            self.bits[ri + w] |= other.bits[rj + w];
        }
    }
}

/// Precomputed reachability relations for a [`CostDag`].
///
/// # Example
///
/// ```
/// use rp_core::prelude::*;
/// use rp_priority::PriorityDomain;
///
/// let dom = PriorityDomain::numeric(1);
/// let mut b = DagBuilder::new(dom.clone());
/// let a = b.thread("a", dom.by_index(0));
/// let v0 = b.vertex(a);
/// let v1 = b.vertex(a);
/// let dag = b.build().unwrap();
/// let r = Reachability::new(&dag);
/// assert!(r.is_ancestor(v0, v1));
/// assert!(r.is_strong_ancestor(v0, v1));
/// assert!(!r.is_weak_ancestor(v0, v1));
/// ```
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    /// `any[u][v]`: some path (reflexive) from u to v.
    any: BitMatrix,
    /// `weak[u][v]`: some path from u to v containing ≥1 weak edge.
    weak: BitMatrix,
}

impl Reachability {
    /// Computes the relations for a graph: two `V×V` bit matrices, filled
    /// in `O(V·E/64)` word operations.
    ///
    /// The graph must be acyclic (builders guarantee this); otherwise the
    /// computation still terminates but relations over vertices on cycles
    /// are not meaningful.
    pub fn new(dag: &CostDag) -> Self {
        let n = dag.vertex_count();
        let order = topological_order(dag);
        let mut any = BitMatrix::new(n);
        let mut weak = BitMatrix::new(n);
        for v in 0..n {
            any.set(v, v);
        }
        // Process in reverse topological order so successors are done first.
        // The graph's CSR index provides the out-edge slices; the matrices
        // are separate objects, so no successor list needs to be cloned per
        // vertex.
        for &u_id in order.iter().rev() {
            let u = u_id.index();
            for e in dag.out_edges(u_id) {
                let v = e.to.index();
                any.or_row(u, v);
                if e.kind.is_strong() {
                    weak.or_row(u, v);
                } else {
                    // A weak edge makes every vertex reachable from v a weak
                    // descendant of u: fold v's `any` row into u's `weak` row
                    // a word at a time.  It still contributes to `any`,
                    // handled above.
                    weak.or_row_from(u, &any, v);
                }
            }
        }
        Reachability { n, any, weak }
    }

    /// Number of vertices the relations were computed over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the underlying graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `u ⊒ v`: `u` is an ancestor of `v` (reflexive).
    pub fn is_ancestor(&self, u: VertexId, v: VertexId) -> bool {
        self.any.get(u.index(), v.index())
    }

    /// `u ⊒ˢ v`: `u` is a *strong* ancestor of `v` — `u ⊒ v` and every path
    /// from `u` to `v` is strong.
    pub fn is_strong_ancestor(&self, u: VertexId, v: VertexId) -> bool {
        self.is_ancestor(u, v) && !self.is_weak_ancestor(u, v)
    }

    /// `u ⊒ʷ v`: there exists a path from `u` to `v` containing a weak edge.
    pub fn is_weak_ancestor(&self, u: VertexId, v: VertexId) -> bool {
        self.weak.get(u.index(), v.index())
    }

    /// `u ∥ v`: the vertices may run in parallel (neither is an ancestor of
    /// the other).
    pub fn parallel(&self, u: VertexId, v: VertexId) -> bool {
        !self.is_ancestor(u, v) && !self.is_ancestor(v, u)
    }
}

/// A topological order of the graph's vertices considering all edges.
///
/// # Panics
///
/// Panics if the graph has a cycle (builders reject cyclic graphs).
pub fn topological_order(dag: &CostDag) -> Vec<VertexId> {
    let n = dag.vertex_count();
    let mut indegree = vec![0usize; n];
    for e in dag.edges() {
        indegree[e.to.index()] += 1;
    }
    let mut stack: Vec<VertexId> = dag
        .vertices()
        .filter(|v| indegree[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = stack.pop() {
        order.push(v);
        for e in dag.out_edges(v) {
            let w = e.to;
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                stack.push(w);
            }
        }
    }
    assert_eq!(order.len(), n, "cost graph contains a cycle");
    order
}

/// The set of vertices that are ready given a set of already-executed
/// vertices: every *strong* parent executed and the vertex itself not
/// executed.
pub fn ready_vertices(dag: &CostDag, executed: &[bool]) -> Vec<VertexId> {
    dag.vertices()
        .filter(|&v| {
            !executed[v.index()] && dag.strong_parents(v).iter().all(|p| executed[p.index()])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rp_priority::PriorityDomain;

    /// main(hi): m0 m1 m2; child(lo): c0 c1; create(m0, child);
    /// weak(c1, m1); touch is absent.
    fn graph_with_weak() -> (CostDag, [VertexId; 5]) {
        let dom = PriorityDomain::numeric(2);
        let mut b = DagBuilder::new(dom.clone());
        let main = b.thread("main", dom.by_index(1));
        let child = b.thread("child", dom.by_index(0));
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let m2 = b.vertex(main);
        let c0 = b.vertex(child);
        let c1 = b.vertex(child);
        b.fcreate(m0, child).unwrap();
        b.weak(c1, m1).unwrap();
        (b.build().unwrap(), [m0, m1, m2, c0, c1])
    }

    #[test]
    fn ancestors_reflexive_and_transitive() {
        let (g, [m0, m1, m2, c0, c1]) = graph_with_weak();
        let r = Reachability::new(&g);
        assert!(r.is_ancestor(m0, m0));
        assert!(r.is_ancestor(m0, m2));
        assert!(r.is_ancestor(m0, c1));
        assert!(r.is_ancestor(c0, c1));
        assert!(!r.is_ancestor(m2, m0));
        assert!(!r.is_ancestor(c1, c0));
        assert!(r.is_ancestor(c1, m1), "weak edges still give ancestry");
        let _ = (m1, c0);
    }

    #[test]
    fn strong_vs_weak_ancestors() {
        let (g, [m0, m1, m2, _c0, c1]) = graph_with_weak();
        let r = Reachability::new(&g);
        // m0 reaches m1 via continuation (strong) and via create+...+weak
        // (weak path through c1), so it is a weak ancestor, not a strong one.
        assert!(r.is_weak_ancestor(m0, m1));
        assert!(!r.is_strong_ancestor(m0, m1));
        // c1 reaches m1 only through the weak edge.
        assert!(r.is_weak_ancestor(c1, m1));
        assert!(!r.is_strong_ancestor(c1, m1));
        // m1 -> m2 is purely strong.
        assert!(r.is_strong_ancestor(m1, m2));
        assert!(!r.is_weak_ancestor(m1, m2));
    }

    #[test]
    fn parallel_vertices() {
        let (g, [_m0, m1, m2, c0, c1]) = graph_with_weak();
        let r = Reachability::new(&g);
        // The weak path c0 -> c1 ⇢ m1 makes c0 an ancestor of m1 (and m2),
        // so none of the child vertices are parallel with main's tail.
        assert!(!r.parallel(c0, m1));
        assert!(!r.parallel(c0, m2));
        assert!(!r.parallel(m1, m2));
        assert!(!r.parallel(c1, m2));
        // Symmetry of the parallel relation on an unrelated pair of the same
        // thread's vertices.
        assert_eq!(r.parallel(m1, c0), r.parallel(c0, m1));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, _) = graph_with_weak();
        let order = topological_order(&g);
        let pos: Vec<usize> = {
            let mut p = vec![0; g.vertex_count()];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for e in g.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn ready_set_evolves() {
        let (g, [m0, m1, _m2, c0, c1]) = graph_with_weak();
        let mut executed = vec![false; g.vertex_count()];
        let ready0 = ready_vertices(&g, &executed);
        assert_eq!(ready0, vec![m0]);
        executed[m0.index()] = true;
        let ready1 = ready_vertices(&g, &executed);
        // m1 (strong parent m0 done) and c0 (strong parent m0 via create).
        assert!(ready1.contains(&m1) && ready1.contains(&c0));
        assert!(!ready1.contains(&c1));
    }

    #[test]
    fn bitmatrix_basics() {
        let mut m = BitMatrix::new(130);
        assert!(!m.get(0, 129));
        m.set(0, 129);
        assert!(m.get(0, 129));
        m.set(1, 3);
        assert!(m.or_row(0, 1));
        assert!(m.get(0, 3));
        assert!(!m.or_row(0, 1), "no change the second time");
    }
}
