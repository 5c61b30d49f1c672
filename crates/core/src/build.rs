//! Construction of [`CostDag`] values.

use crate::graph::{CostDag, Edge, EdgeKind, ThreadId, ThreadInfo, VertexId, VertexInfo};
use rp_priority::{Priority, PriorityDomain};
use std::fmt;

/// Errors produced while building a cost graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagBuildError {
    /// A thread was declared without any vertices.
    EmptyThread(String),
    /// An fcreate edge targets a thread that already has a creator.
    DuplicateCreate(String),
    /// An fcreate edge would make a thread create itself (directly).
    SelfCreate(String),
    /// An ftouch edge originates in the touched thread itself.
    SelfTouch(String),
    /// A weak edge connects a vertex to itself.
    SelfWeakEdge(VertexId),
    /// The finished graph contains a cycle through the given vertex.
    Cyclic(VertexId),
    /// A vertex or thread id did not belong to this builder.
    UnknownId(String),
}

impl fmt::Display for DagBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagBuildError::EmptyThread(n) => write!(f, "thread `{n}` has no vertices"),
            DagBuildError::DuplicateCreate(n) => {
                write!(f, "thread `{n}` has more than one fcreate edge")
            }
            DagBuildError::SelfCreate(n) => write!(f, "thread `{n}` cannot create itself"),
            DagBuildError::SelfTouch(n) => write!(f, "thread `{n}` cannot ftouch itself"),
            DagBuildError::SelfWeakEdge(v) => write!(f, "weak self-edge on {v}"),
            DagBuildError::Cyclic(v) => write!(f, "cost graph has a cycle through {v}"),
            DagBuildError::UnknownId(what) => write!(f, "unknown id: {what}"),
        }
    }
}

impl std::error::Error for DagBuildError {}

/// Incremental builder for [`CostDag`] values.
///
/// The builder mirrors how the λ⁴ᵢ cost semantics grows a graph: declare
/// threads with a priority, append vertices to threads (continuation edges
/// are implied), and add fcreate / ftouch / weak edges between them.
/// [`build`](Self::build) checks acyclicity.
///
/// # Example
///
/// ```
/// use rp_core::build::DagBuilder;
/// use rp_priority::PriorityDomain;
///
/// let dom = PriorityDomain::numeric(2);
/// let mut b = DagBuilder::new(dom.clone());
/// let parent = b.thread("parent", dom.by_index(0));
/// let child = b.thread("child", dom.by_index(1));
/// let p0 = b.vertex(parent);
/// let p1 = b.vertex(parent);
/// let c0 = b.vertex(child);
/// b.fcreate(p0, child).unwrap();
/// b.ftouch(child, p1).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.vertex_count(), 3);
/// let _ = c0;
/// ```
#[derive(Debug, Clone)]
pub struct DagBuilder {
    domain: PriorityDomain,
    threads: Vec<ThreadInfo>,
    vertices: Vec<VertexInfo>,
    create_edges: Vec<(VertexId, ThreadId)>,
    /// Per-thread creating vertex, so a second fcreate of a thread is
    /// caught without scanning `create_edges`.
    creator: Vec<Option<VertexId>>,
    touch_edges: Vec<(ThreadId, VertexId)>,
    weak_edges: Vec<(VertexId, VertexId)>,
    errors: Vec<DagBuildError>,
}

impl DagBuilder {
    /// Creates a builder over the given priority domain.
    pub fn new(domain: PriorityDomain) -> Self {
        DagBuilder {
            domain,
            threads: Vec::new(),
            vertices: Vec::new(),
            create_edges: Vec::new(),
            creator: Vec::new(),
            touch_edges: Vec::new(),
            weak_edges: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Declares a new thread with the given name and priority.
    pub fn thread(&mut self, name: impl Into<String>, priority: Priority) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadInfo {
            name: name.into(),
            priority,
            vertices: Vec::new(),
        });
        self.creator.push(None);
        id
    }

    /// Appends a new vertex to a thread's sequence and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this builder.
    pub fn vertex(&mut self, t: ThreadId) -> VertexId {
        self.vertex_labeled(t, None)
    }

    /// Appends a labeled vertex to a thread's sequence.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not belong to this builder.
    pub fn vertex_labeled(&mut self, t: ThreadId, label: Option<&'static str>) -> VertexId {
        assert!(t.index() < self.threads.len(), "unknown thread {t}");
        let id = VertexId(self.vertices.len() as u32);
        let position = self.threads[t.index()].vertices.len();
        self.vertices.push(VertexInfo {
            thread: t,
            position,
            label,
        });
        self.threads[t.index()].vertices.push(id);
        id
    }

    /// Appends `n` vertices to a thread and returns their ids.
    pub fn vertices(&mut self, t: ThreadId, n: usize) -> Vec<VertexId> {
        (0..n).map(|_| self.vertex(t)).collect()
    }

    /// Adds an fcreate edge `(creator, created)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the created thread already has a creator or the
    /// creating vertex lies in the created thread.
    pub fn fcreate(&mut self, creator: VertexId, created: ThreadId) -> Result<(), DagBuildError> {
        self.check_vertex(creator)?;
        self.check_thread(created)?;
        if self.vertices[creator.index()].thread == created {
            return Err(DagBuildError::SelfCreate(
                self.threads[created.index()].name.clone(),
            ));
        }
        if self.creator[created.index()].is_some() {
            return Err(DagBuildError::DuplicateCreate(
                self.threads[created.index()].name.clone(),
            ));
        }
        self.creator[created.index()] = Some(creator);
        self.create_edges.push((creator, created));
        Ok(())
    }

    /// Adds an ftouch edge `(touched thread, touching vertex)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the touching vertex lies in the touched thread.
    pub fn ftouch(&mut self, touched: ThreadId, toucher: VertexId) -> Result<(), DagBuildError> {
        self.check_vertex(toucher)?;
        self.check_thread(touched)?;
        if self.vertices[toucher.index()].thread == touched {
            return Err(DagBuildError::SelfTouch(
                self.threads[touched.index()].name.clone(),
            ));
        }
        self.touch_edges.push((touched, toucher));
        Ok(())
    }

    /// Adds a weak edge `(from, to)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `from == to`.
    pub fn weak(&mut self, from: VertexId, to: VertexId) -> Result<(), DagBuildError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        if from == to {
            return Err(DagBuildError::SelfWeakEdge(from));
        }
        self.weak_edges.push((from, to));
        Ok(())
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), DagBuildError> {
        if v.index() < self.vertices.len() {
            Ok(())
        } else {
            Err(DagBuildError::UnknownId(format!("{v}")))
        }
    }

    fn check_thread(&self, t: ThreadId) -> Result<(), DagBuildError> {
        if t.index() < self.threads.len() {
            Ok(())
        } else {
            Err(DagBuildError::UnknownId(format!("{t}")))
        }
    }

    /// Finishes the graph: materialises every edge, checks that each thread
    /// has at least one vertex and that the whole graph (including weak
    /// edges) is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first [`DagBuildError`] encountered.
    pub fn build(self) -> Result<CostDag, DagBuildError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        for t in &self.threads {
            if t.vertices.is_empty() {
                return Err(DagBuildError::EmptyThread(t.name.clone()));
            }
        }
        let mut edges = Vec::with_capacity(
            self.vertices.len() - self.threads.len()
                + self.create_edges.len()
                + self.touch_edges.len()
                + self.weak_edges.len(),
        );
        // Continuation edges.
        for t in &self.threads {
            for w in t.vertices.windows(2) {
                edges.push(Edge {
                    from: w[0],
                    to: w[1],
                    kind: EdgeKind::Continuation,
                });
            }
        }
        // fcreate edges target the created thread's first vertex.
        for &(v, t) in &self.create_edges {
            edges.push(Edge {
                from: v,
                to: self.threads[t.index()].vertices[0],
                kind: EdgeKind::Create,
            });
        }
        // ftouch edges originate at the touched thread's last vertex.
        for &(t, v) in &self.touch_edges {
            edges.push(Edge {
                from: *self.threads[t.index()].vertices.last().expect("non-empty"),
                to: v,
                kind: EdgeKind::Touch,
            });
        }
        for &(a, b) in &self.weak_edges {
            edges.push(Edge {
                from: a,
                to: b,
                kind: EdgeKind::Weak,
            });
        }
        let index = crate::csr::CsrIndex::build(self.vertices.len(), &edges, self.creator);
        let dag = CostDag {
            domain: self.domain,
            threads: self.threads,
            vertices: self.vertices,
            edges,
            create_edges: self.create_edges,
            touch_edges: self.touch_edges,
            weak_edges: self.weak_edges,
            index,
        };
        if let Some(v) = find_cycle(&dag) {
            return Err(DagBuildError::Cyclic(v));
        }
        Ok(dag)
    }
}

/// Returns a vertex lying on a cycle of the graph (considering all edges,
/// weak included), or `None` if the graph is acyclic.
fn find_cycle(dag: &CostDag) -> Option<VertexId> {
    let n = dag.vertex_count();
    let mut indegree = vec![0usize; n];
    for e in dag.edges() {
        indegree[e.to.index()] += 1;
    }
    let mut stack: Vec<VertexId> = dag
        .vertices()
        .filter(|v| indegree[v.index()] == 0)
        .collect();
    let mut removed = 0usize;
    while let Some(v) = stack.pop() {
        removed += 1;
        for e in dag.out_edges(v) {
            let w = e.to;
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                stack.push(w);
            }
        }
    }
    if removed == n {
        None
    } else {
        dag.vertices().find(|v| indegree[v.index()] > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> PriorityDomain {
        PriorityDomain::numeric(3)
    }

    #[test]
    fn build_simple_fork_join() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let main = b.thread("main", d.by_index(2));
        let child = b.thread("child", d.by_index(2));
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let _c = b.vertices(child, 3);
        b.fcreate(m0, child).unwrap();
        b.ftouch(child, m1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.vertex_count(), 5);
        // continuation (1 + 2) + create (1) + touch (1) = 5 edges
        assert_eq!(g.edges().len(), 5);
    }

    #[test]
    fn empty_thread_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let _t = b.thread("empty", d.by_index(0));
        assert!(matches!(b.build(), Err(DagBuildError::EmptyThread(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let a = b.thread("a", d.by_index(0));
        let c = b.thread("c", d.by_index(0));
        let a0 = b.vertex(a);
        let a1 = b.vertex(a);
        let _c0 = b.vertex(c);
        b.fcreate(a0, c).unwrap();
        assert!(matches!(
            b.fcreate(a1, c),
            Err(DagBuildError::DuplicateCreate(_))
        ));
    }

    #[test]
    fn self_create_and_self_touch_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let a = b.thread("a", d.by_index(0));
        let a0 = b.vertex(a);
        assert!(matches!(
            b.fcreate(a0, a),
            Err(DagBuildError::SelfCreate(_))
        ));
        assert!(matches!(b.ftouch(a, a0), Err(DagBuildError::SelfTouch(_))));
    }

    #[test]
    fn weak_self_edge_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let a = b.thread("a", d.by_index(0));
        let a0 = b.vertex(a);
        assert!(matches!(
            b.weak(a0, a0),
            Err(DagBuildError::SelfWeakEdge(_))
        ));
    }

    #[test]
    fn cycle_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let a = b.thread("a", d.by_index(0));
        let c = b.thread("c", d.by_index(0));
        let a0 = b.vertex(a);
        let a1 = b.vertex(a);
        let c0 = b.vertex(c);
        // a0 -> c0 (create), c0 -> a1 is fine; but add weak a1 -> c0 to close
        // a cycle c0 -> a1 -> c0.
        b.fcreate(a0, c).unwrap();
        b.ftouch(c, a1).unwrap();
        b.weak(a1, c0).unwrap();
        assert!(matches!(b.build(), Err(DagBuildError::Cyclic(_))));
    }

    #[test]
    fn unknown_ids_rejected() {
        let d = dom();
        let mut b = DagBuilder::new(d.clone());
        let a = b.thread("a", d.by_index(0));
        let a0 = b.vertex(a);
        let bogus_vertex = VertexId(99);
        let bogus_thread = ThreadId(99);
        assert!(matches!(
            b.fcreate(bogus_vertex, a),
            Err(DagBuildError::UnknownId(_))
        ));
        assert!(matches!(
            b.fcreate(a0, bogus_thread),
            Err(DagBuildError::UnknownId(_))
        ));
        assert!(matches!(
            b.weak(a0, bogus_vertex),
            Err(DagBuildError::UnknownId(_))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let msgs = [
            DagBuildError::EmptyThread("x".into()).to_string(),
            DagBuildError::DuplicateCreate("x".into()).to_string(),
            DagBuildError::SelfCreate("x".into()).to_string(),
            DagBuildError::SelfTouch("x".into()).to_string(),
            DagBuildError::SelfWeakEdge(VertexId(1)).to_string(),
            DagBuildError::Cyclic(VertexId(1)).to_string(),
            DagBuildError::UnknownId("u9".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
