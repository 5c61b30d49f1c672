//! The cost-graph representation `g = (T, Ec, Et, Ew)`.

use crate::csr::CsrIndex;
use rp_priority::{Priority, PriorityDomain};
use std::fmt;

/// Identifier of a vertex (a unit-cost operation) in a [`CostDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// The raw index of this vertex.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifier of a thread symbol `a` in a [`CostDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub(crate) u32);

impl ThreadId {
    /// The raw index of this thread.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The kind of an edge in a cost graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// A continuation edge between consecutive vertices of one thread.
    Continuation,
    /// An `fcreate` edge from the creating vertex to the created thread's
    /// first vertex.
    Create,
    /// An `ftouch` edge from the touched thread's last vertex to the touching
    /// vertex.
    Touch,
    /// A weak (happens-before through state) edge.
    Weak,
}

impl EdgeKind {
    /// Whether the edge counts as *strong* (everything except weak edges).
    pub fn is_strong(self) -> bool {
        !matches!(self, EdgeKind::Weak)
    }
}

/// A directed edge of the cost graph together with its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex.
    pub from: VertexId,
    /// Target vertex.
    pub to: VertexId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Per-thread data: priority, name, and vertex sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Human-readable name of the thread symbol (e.g. `"main"`).
    pub name: String,
    /// Priority `ρ` of the thread.
    pub priority: Priority,
    /// The vertices `u₁ · … · uₙ` making up the thread, in order.
    pub vertices: Vec<VertexId>,
}

/// Per-vertex data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexInfo {
    /// The thread containing this vertex.
    pub thread: ThreadId,
    /// The position of this vertex within its thread's sequence.
    pub position: usize,
    /// Optional label for rendering/debugging (e.g. a source line).  Labels
    /// are static strings, so a labelled vertex costs no allocation.
    pub label: Option<&'static str>,
}

/// A cost graph `g = (T, Ec, Et, Ew)` over a fixed priority domain.
///
/// The graph is immutable once built by a [`DagBuilder`](crate::build::DagBuilder)
/// (or unfolded by the λ⁴ᵢ abstract machine).  All edge sets are materialised
/// as explicit vertex-to-vertex edges: fcreate edges `(u, a)` are stored as
/// `(u, first(a))` and ftouch edges `(a, u)` as `(last(a), u)`, exactly as the
/// paper's shorthand prescribes.
// The cached CSR index is derived data: a field-wise deserializer could not
// rebuild it, leaving a graph whose adjacency queries panic.  If
// (de)serialization is ever needed, round-trip through the builder so the
// index is reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct CostDag {
    pub(crate) domain: PriorityDomain,
    pub(crate) threads: Vec<ThreadInfo>,
    pub(crate) vertices: Vec<VertexInfo>,
    /// All edges, including continuation edges.
    pub(crate) edges: Vec<Edge>,
    /// For fcreate/ftouch edges, the thread symbol involved (same index as
    /// the corresponding entry in `create_edges` / `touch_edges`).
    pub(crate) create_edges: Vec<(VertexId, ThreadId)>,
    pub(crate) touch_edges: Vec<(ThreadId, VertexId)>,
    pub(crate) weak_edges: Vec<(VertexId, VertexId)>,
    /// CSR adjacency index, built once by the builder alongside the edge
    /// list it is derived from.
    pub(crate) index: CsrIndex,
}

impl CostDag {
    /// The priority domain the graph's threads draw from.
    pub fn domain(&self) -> &PriorityDomain {
        &self.domain
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterates over all thread ids.
    pub fn threads(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32).map(ThreadId)
    }

    /// Information about a thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&self, t: ThreadId) -> &ThreadInfo {
        &self.threads[t.index()]
    }

    /// Information about a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn vertex(&self, v: VertexId) -> &VertexInfo {
        &self.vertices[v.index()]
    }

    /// The thread containing vertex `v`.
    pub fn thread_of(&self, v: VertexId) -> ThreadId {
        self.vertices[v.index()].thread
    }

    /// `Prio_g(u)`: the priority of the thread containing `u`.
    pub fn priority_of(&self, v: VertexId) -> Priority {
        self.threads[self.thread_of(v).index()].priority
    }

    /// The priority of thread `t`.
    pub fn thread_priority(&self, t: ThreadId) -> Priority {
        self.threads[t.index()].priority
    }

    /// The first vertex `s` of thread `t`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no vertices (builders reject this).
    pub fn first_vertex(&self, t: ThreadId) -> VertexId {
        *self.threads[t.index()]
            .vertices
            .first()
            .expect("threads have at least one vertex")
    }

    /// The last vertex `t` of thread `a`.
    ///
    /// # Panics
    ///
    /// Panics if the thread has no vertices (builders reject this).
    pub fn last_vertex(&self, t: ThreadId) -> VertexId {
        *self.threads[t.index()]
            .vertices
            .last()
            .expect("threads have at least one vertex")
    }

    /// Looks up a thread by name: a scan of the threads, so `O(T)`.  When
    /// several threads share the name, the one declared last wins.
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .rposition(|t| t.name == name)
            .map(|i| ThreadId(i as u32))
    }

    /// All edges (continuation, fcreate, ftouch, weak).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Strong edges only.
    pub fn strong_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied().filter(|e| e.kind.is_strong())
    }

    /// The `Ec` component: fcreate edges as `(creating vertex, created thread)`.
    pub fn create_edges(&self) -> &[(VertexId, ThreadId)] {
        &self.create_edges
    }

    /// The `Et` component: ftouch edges as `(touched thread, touching vertex)`.
    pub fn touch_edges(&self) -> &[(ThreadId, VertexId)] {
        &self.touch_edges
    }

    /// The `Ew` component: weak edges as vertex pairs.
    pub fn weak_edges(&self) -> &[(VertexId, VertexId)] {
        &self.weak_edges
    }

    /// The vertex that created thread `t`, if any (the source of its fcreate
    /// edge).  The initial/root thread has no creator.  `O(1)` via the
    /// cached creator table.
    pub fn creator_of(&self, t: ThreadId) -> Option<VertexId> {
        self.index.creator_of(t)
    }

    /// Outgoing edges of a vertex, in edge-list order (`O(deg)` via the CSR
    /// index).
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = Edge> + '_ {
        self.index.out_edges(v).iter().copied()
    }

    /// Incoming edges of a vertex, in edge-list order (`O(deg)` via the CSR
    /// index).
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = Edge> + '_ {
        self.index.in_edges(v).iter().copied()
    }

    /// Incoming *strong* parent vertices of `v` (the vertices that must have
    /// executed before `v` is ready).  A borrowed slice of the CSR index —
    /// no allocation.
    pub fn strong_parents(&self, v: VertexId) -> &[VertexId] {
        self.index.strong_parents(v)
    }

    /// Incoming weak parent vertices of `v`.  A borrowed slice of the CSR
    /// index — no allocation.
    pub fn weak_parents(&self, v: VertexId) -> &[VertexId] {
        self.index.weak_parents(v)
    }

    /// Strong successor vertices of `v` (targets of its strong out-edges).
    pub fn strong_successors(&self, v: VertexId) -> &[VertexId] {
        self.index.strong_successors(v)
    }

    /// Weak successor vertices of `v`.
    pub fn weak_successors(&self, v: VertexId) -> &[VertexId] {
        self.index.weak_successors(v)
    }

    /// Number of strong parents of `v`.
    pub fn strong_indegree(&self, v: VertexId) -> usize {
        self.index.strong_indegree(v)
    }

    /// Total work: the number of vertices.
    pub fn total_work(&self) -> usize {
        self.vertices.len()
    }

    /// The label attached to a vertex, if any.
    pub fn label(&self, v: VertexId) -> Option<&'static str> {
        self.vertices[v.index()].label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;

    fn tiny() -> CostDag {
        let dom = PriorityDomain::numeric(2);
        let hi = dom.by_index(1);
        let lo = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let main = b.thread("main", hi);
        let child = b.thread("child", lo);
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let c0 = b.vertex(child);
        b.fcreate(m0, child).unwrap();
        b.weak(c0, m1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.vertex_count(), 3);
        assert_eq!(d.thread_count(), 2);
        let main = d.thread_by_name("main").unwrap();
        let child = d.thread_by_name("child").unwrap();
        assert_eq!(d.thread(main).vertices.len(), 2);
        assert_eq!(d.first_vertex(main), d.thread(main).vertices[0]);
        assert_eq!(d.last_vertex(main), d.thread(main).vertices[1]);
        assert_eq!(d.creator_of(child), Some(d.first_vertex(main)));
        assert_eq!(d.creator_of(main), None);
        assert_eq!(d.create_edges().len(), 1);
        assert_eq!(d.touch_edges().len(), 0);
        assert_eq!(d.weak_edges().len(), 1);
        assert_eq!(d.total_work(), 3);
    }

    #[test]
    fn edge_kinds_and_parents() {
        let d = tiny();
        let main = d.thread_by_name("main").unwrap();
        let child = d.thread_by_name("child").unwrap();
        let m1 = d.last_vertex(main);
        let c0 = d.first_vertex(child);
        // m1's strong parent is m0 (continuation); weak parent is c0.
        assert_eq!(d.strong_parents(m1), vec![d.first_vertex(main)]);
        assert_eq!(d.weak_parents(m1), vec![c0]);
        // c0's strong parent is m0 via the create edge.
        assert_eq!(d.strong_parents(c0), vec![d.first_vertex(main)]);
        assert_eq!(d.strong_edges().count(), 2);
        assert_eq!(d.edges().len(), 3);
    }

    #[test]
    fn priority_lookup() {
        let d = tiny();
        let main = d.thread_by_name("main").unwrap();
        let child = d.thread_by_name("child").unwrap();
        let dom = d.domain().clone();
        assert!(dom.lt(d.thread_priority(child), d.thread_priority(main)));
        assert_eq!(d.priority_of(d.first_vertex(main)), d.thread_priority(main));
    }

    #[test]
    fn thread_by_name_finds_each_thread() {
        let d = tiny();
        for t in d.threads() {
            assert_eq!(d.thread_by_name(&d.thread(t).name), Some(t));
        }
        assert_eq!(d.thread_by_name("nope"), None);
        assert_eq!(d.thread_by_name(""), None);
    }

    /// Names need not be unique; a lookup answers with the thread declared
    /// last, as a name → thread map filled in declaration order would.
    #[test]
    fn duplicated_thread_name_resolves_to_the_last_declared() {
        let dom = PriorityDomain::numeric(2);
        let mut b = DagBuilder::new(dom.clone());
        let first = b.thread("dup", dom.by_index(0));
        let other = b.thread("other", dom.by_index(1));
        let last = b.thread("dup", dom.by_index(1));
        for t in [first, other, last] {
            b.vertex(t);
        }
        let d = b.build().unwrap();
        assert_eq!(d.thread_by_name("dup"), Some(last));
        assert_ne!(d.thread_by_name("dup"), Some(first));
        assert_eq!(d.thread_by_name("other"), Some(other));
    }

    #[test]
    fn labels_are_kept_per_vertex() {
        let dom = PriorityDomain::single();
        let mut b = DagBuilder::new(dom.clone());
        let t = b.thread("main", dom.by_index(0));
        let plain = b.vertex(t);
        let labelled = b.vertex_labeled(t, Some("ret"));
        let d = b.build().unwrap();
        assert_eq!(d.label(plain), None);
        assert_eq!(d.label(labelled), Some("ret"));
        assert_eq!(d.vertex(labelled).label, Some("ret"));
    }

    #[test]
    fn display_ids() {
        assert_eq!(format!("{}", VertexId(3)), "u3");
        assert_eq!(format!("{}", ThreadId(1)), "t1");
        assert_eq!(VertexId(3).index(), 3);
        assert_eq!(ThreadId(1).index(), 1);
    }

    #[test]
    fn edge_kind_strength() {
        assert!(EdgeKind::Continuation.is_strong());
        assert!(EdgeKind::Create.is_strong());
        assert!(EdgeKind::Touch.is_strong());
        assert!(!EdgeKind::Weak.is_strong());
    }
}
