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
//! [`Reachability`] answers all three from bit matrices (`⊒ˢ` is `⊒`
//! without `⊒ʷ`), and hands whole rows to the crate's per-thread queries,
//! so the well-formedness checks, strengthening, competitor work and span
//! computations are word operations.  [`PriorityFacts`] holds the
//! priority side of those queries, computed once per graph.

use crate::graph::{CostDag, VertexId};
use rp_priority::Priority;

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
        let w = self.words_per_row;
        if i == j {
            return false;
        }
        let (lo, hi) = self.bits.split_at_mut(i.max(j) * w);
        let (dst, src) = if i < j {
            (&mut lo[i * w..(i + 1) * w], &hi[..w])
        } else {
            (&mut hi[..w], &lo[j * w..(j + 1) * w])
        };
        let mut changed = 0;
        for (d, s) in dst.iter_mut().zip(src) {
            changed |= *s & !*d;
            *d |= *s;
        }
        changed != 0
    }

    /// `self.row(i) |= other.row(j)` across two matrices, word at a time.
    pub(crate) fn or_row_from(&mut self, i: usize, other: &BitMatrix, j: usize) {
        debug_assert_eq!(self.words_per_row, other.words_per_row);
        let (ri, rj) = (i * self.words_per_row, j * other.words_per_row);
        for w in 0..self.words_per_row {
            self.bits[ri + w] |= other.bits[rj + w];
        }
    }

    /// Row `i` as words; bit `j % 64` of word `j / 64` is entry `(i, j)`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }
}

/// Whether `v`'s bit is set in a row of words.
#[inline]
pub(crate) fn has(row: &[u64], v: VertexId) -> bool {
    row[v.index() / 64] & (1u64 << (v.index() % 64)) != 0
}

/// The set bits of a row given word by word, as ascending vertex ids.
pub(crate) fn ones(words: impl Iterator<Item = u64>) -> impl Iterator<Item = VertexId> {
    words.enumerate().flat_map(|(w, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                VertexId((w * 64) as u32 + bit)
            })
        })
    })
}

/// The row of vertices satisfying `keep`, one bit per vertex.
pub(crate) fn vertex_row(dag: &CostDag, keep: impl Fn(VertexId) -> bool) -> Vec<u64> {
    let mut row = vec![0; dag.vertex_count().div_ceil(64)];
    for v in dag.vertices().filter(|&v| keep(v)) {
        row[v.index() / 64] |= 1 << (v.index() % 64);
    }
    row
}

/// Precomputed reachability relations for a [`CostDag`].
///
/// Three `V×V` bit matrices, each row a vertex's bit set packed 64 to a
/// word: the *descendant* matrix (row `u` holds every `v` with `u ⊒ v`),
/// its transpose, the *ancestor* matrix (row `v` holds every `u` with
/// `u ⊒ v`), and the *weak-descendant* matrix (row `u` holds every `v`
/// with `u ⊒ʷ v`).  Pair queries read one bit; the crate's per-thread
/// queries combine whole rows a word at a time.
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
    /// `anc[v][u]`: some path (reflexive) from u to v — `any` transposed.
    anc: BitMatrix,
    /// `weak[u][v]`: some path from u to v containing ≥1 weak edge.
    weak: BitMatrix,
}

impl Reachability {
    /// Computes the relations for a graph: three `V×V` bit matrices, each
    /// filled in `O(V·E/64)` word operations.
    ///
    /// The graph must be acyclic (builders guarantee this); otherwise the
    /// computation still terminates but relations over vertices on cycles
    /// are not meaningful.
    pub fn new(dag: &CostDag) -> Self {
        let n = dag.vertex_count();
        let order = topological_order(dag);
        let (any, weak) = descendant_rows(dag, &order);
        let anc = ancestor_rows(dag, &order);
        Reachability { n, any, anc, weak }
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

    /// `{v | u ⊒ v}` as a row of words (bits past `len()` are clear).
    pub(crate) fn descendants(&self, u: VertexId) -> &[u64] {
        self.any.row(u.index())
    }

    /// `{u | u ⊒ v}` as a row of words (bits past `len()` are clear).
    pub(crate) fn ancestors(&self, v: VertexId) -> &[u64] {
        self.anc.row(v.index())
    }

    /// `{v | u ⊒ʷ v}` as a row of words (bits past `len()` are clear).
    pub(crate) fn weak_descendants(&self, u: VertexId) -> &[u64] {
        self.weak.row(u.index())
    }
}

/// The descendant and weak-descendant matrices, filled in reverse
/// topological order so every successor's rows are complete first.
fn descendant_rows(dag: &CostDag, order: &[VertexId]) -> (BitMatrix, BitMatrix) {
    let n = dag.vertex_count();
    let mut any = BitMatrix::new(n);
    let mut weak = BitMatrix::new(n);
    for v in 0..n {
        any.set(v, v);
    }
    // The graph's CSR index provides the out-edge slices; the matrices are
    // separate objects, so no successor list needs to be cloned per vertex.
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
    (any, weak)
}

/// The ancestor matrix (the descendant matrix's transpose), filled in
/// topological order so every predecessor's row is complete first.
fn ancestor_rows(dag: &CostDag, order: &[VertexId]) -> BitMatrix {
    let mut anc = BitMatrix::new(dag.vertex_count());
    for &v_id in order {
        let v = v_id.index();
        anc.set(v, v);
        for e in dag.in_edges(v_id) {
            anc.or_row(v, e.from.index());
        }
    }
    anc
}

/// The priority side of Definitions 1 and 2 and of competitor work,
/// computed once per graph.
///
/// For each level `ρ` of the graph's domain it keeps two vertex rows, and
/// for the graph the strong edges that invert priority.  A thread's
/// queries then combine these rows with [`Reachability`]'s rows a word at
/// a time instead of asking the domain about every vertex.
#[derive(Debug)]
pub(crate) struct PriorityFacts {
    words: usize,
    /// Level-major rows: `{u | Prio(u) ⊀ ρ}`, the vertices that compete
    /// with a thread at `ρ` (Section 2.3).
    competes: Vec<u64>,
    /// Level-major rows: `{u | ρ ⋠ Prio(u)}`, the vertices whose place on a
    /// `ρ` thread's critical path Definition 1 forbids.
    below: Vec<u64>,
    /// Strong edges `(u₀, u)` with `Prio(u) ⋠ Prio(u₀)`, in edge-list order:
    /// the only edges Definition 1's second bullet and Definition 2 can
    /// touch.
    inverting: Vec<(VertexId, VertexId)>,
}

impl PriorityFacts {
    pub(crate) fn new(dag: &CostDag) -> Self {
        let dom = dag.domain();
        let mut competes = Vec::new();
        let mut below = Vec::new();
        for rho in dom.iter() {
            competes.extend(vertex_row(dag, |u| dom.not_lt(dag.priority_of(u), rho)));
            below.extend(vertex_row(dag, |u| !dom.leq(rho, dag.priority_of(u))));
        }
        PriorityFacts {
            words: dag.vertex_count().div_ceil(64),
            competes,
            below,
            inverting: inverting_edges(dag),
        }
    }

    /// `{u | Prio(u) ⊀ ρ}` as a row of words.
    pub(crate) fn competes(&self, rho: Priority) -> &[u64] {
        let at = rho.index() * self.words;
        &self.competes[at..at + self.words]
    }

    /// `{u | ρ ⋠ Prio(u)}` as a row of words.
    pub(crate) fn below(&self, rho: Priority) -> &[u64] {
        let at = rho.index() * self.words;
        &self.below[at..at + self.words]
    }

    /// The strong edges `(u₀, u)` with `Prio(u) ⋠ Prio(u₀)`.
    pub(crate) fn inverting(&self) -> &[(VertexId, VertexId)] {
        &self.inverting
    }
}

/// The strong edges `(u₀, u)` with `Prio(u) ⋠ Prio(u₀)`, in edge-list order.
fn inverting_edges(dag: &CostDag) -> Vec<(VertexId, VertexId)> {
    let dom = dag.domain();
    dag.strong_edges()
        .filter(|e| !dom.leq(dag.priority_of(e.to), dag.priority_of(e.from)))
        .map(|e| (e.from, e.to))
        .collect()
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

    /// Every row accessor against the pair queries on the shared
    /// well-formedness corpus (word tails included): the ancestor rows are
    /// the descendant rows transposed, and no row sets a bit past `len()`.
    #[test]
    fn rows_agree_with_the_pair_queries() {
        for (i, g) in crate::wellformed::tests::corpus().iter().enumerate() {
            let r = Reachability::new(g);
            for u in g.vertices() {
                for v in g.vertices() {
                    assert_eq!(has(r.ancestors(v), u), r.is_ancestor(u, v), "graph {i}");
                    assert_eq!(has(r.descendants(u), v), r.is_ancestor(u, v), "graph {i}");
                    assert_eq!(
                        has(r.weak_descendants(u), v),
                        r.is_weak_ancestor(u, v),
                        "graph {i}"
                    );
                }
                for row in [r.ancestors(u), r.descendants(u), r.weak_descendants(u)] {
                    assert!(ones(row.iter().copied()).all(|v| v.index() < r.len()));
                }
            }
        }
    }

    #[test]
    fn priority_facts_agree_with_the_domain() {
        for (i, g) in crate::wellformed::tests::corpus().iter().enumerate() {
            let (dom, facts) = (g.domain(), PriorityFacts::new(g));
            for rho in dom.iter() {
                for u in g.vertices() {
                    let p = g.priority_of(u);
                    assert_eq!(has(facts.competes(rho), u), dom.not_lt(p, rho), "graph {i}");
                    assert_eq!(has(facts.below(rho), u), !dom.leq(rho, p), "graph {i}");
                }
                for row in [facts.competes(rho), facts.below(rho)] {
                    assert!(ones(row.iter().copied()).all(|v| v.index() < g.vertex_count()));
                }
            }
            let inverting: Vec<_> = g
                .strong_edges()
                .filter(|e| !dom.leq(g.priority_of(e.to), g.priority_of(e.from)))
                .map(|e| (e.from, e.to))
                .collect();
            assert_eq!(facts.inverting(), inverting, "graph {i}");
        }
    }

    #[test]
    fn ones_lists_set_bits_in_ascending_order() {
        let row = [0b101, 0, 1 << 63];
        let bits: Vec<usize> = ones(row.into_iter()).map(VertexId::index).collect();
        assert_eq!(bits, vec![0, 2, 191]);
        assert_eq!(ones(std::iter::empty()).count(), 0);
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
        // A lower row into a higher one, and a row into itself.
        assert!(m.or_row(1, 0));
        assert!(m.get(1, 129) && m.get(1, 3));
        assert!(!m.or_row(1, 1));
    }
}
