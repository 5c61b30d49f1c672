//! Incremental ready-set tracking for schedulers and schedule checks.
//!
//! Several operations (promptness checking, the offline schedulers, the run
//! driver of the λ⁴ᵢ machine) need, for every step of a schedule, the set of
//! vertices whose strong parents have all executed.  The graph's cached
//! [`CsrIndex`](crate::csr::CsrIndex) provides per-vertex strong in-degrees
//! and successor slices; [`ReadyTracker`] maintains the ready set
//! incrementally on top of it in `O(E)` total across a whole schedule.
//!
//! [`Adjacency`] remains as a thin read-only view over the cached index for
//! callers that want the adjacency data without a tracker.

use crate::graph::{CostDag, VertexId};

/// A read-only view of the graph's strong/weak adjacency, backed by the CSR
/// index cached on the graph (no per-vertex allocation).
#[derive(Debug, Clone, Copy)]
pub struct Adjacency<'g> {
    dag: &'g CostDag,
}

impl<'g> Adjacency<'g> {
    /// Creates the view.  `O(1)`: the underlying index was built with the
    /// graph.
    pub fn new(dag: &'g CostDag) -> Self {
        Adjacency { dag }
    }

    /// Number of strong parents of `v`.
    pub fn strong_indegree(&self, v: VertexId) -> usize {
        self.dag.strong_indegree(v)
    }

    /// Strong successors (targets of strong out-edges) of `v`.
    pub fn strong_successors(&self, v: VertexId) -> &'g [VertexId] {
        self.dag.strong_successors(v)
    }

    /// Weak successors of `v`.
    pub fn weak_successors(&self, v: VertexId) -> &'g [VertexId] {
        self.dag.weak_successors(v)
    }

    /// The initially ready vertices (no strong parents).
    pub fn initial_ready(&self) -> Vec<VertexId> {
        self.dag
            .vertices()
            .filter(|&v| self.dag.strong_indegree(v) == 0)
            .collect()
    }
}

/// An incrementally maintained ready set: vertices whose strong parents have
/// all been marked executed and that have not themselves been executed.
#[derive(Debug, Clone)]
pub struct ReadyTracker {
    remaining_parents: Vec<u32>,
    ready: Vec<bool>,
    executed: Vec<bool>,
    executed_count: usize,
}

impl ReadyTracker {
    /// Starts tracking from the unexecuted state.
    pub fn new(dag: &CostDag) -> Self {
        let n = dag.vertex_count();
        let mut remaining_parents = vec![0u32; n];
        let mut ready = vec![false; n];
        for v in dag.vertices() {
            let d = dag.strong_indegree(v);
            remaining_parents[v.index()] = d as u32;
            ready[v.index()] = d == 0;
        }
        ReadyTracker {
            remaining_parents,
            ready,
            executed: vec![false; n],
            executed_count: 0,
        }
    }

    /// Whether a vertex is currently ready.
    pub fn is_ready(&self, v: VertexId) -> bool {
        self.ready[v.index()] && !self.executed[v.index()]
    }

    /// Whether a vertex has been executed.
    pub fn is_executed(&self, v: VertexId) -> bool {
        self.executed[v.index()]
    }

    /// The current ready set (allocates; prefer [`is_ready`](Self::is_ready)
    /// in hot loops).
    pub fn ready_set(&self) -> Vec<VertexId> {
        self.ready
            .iter()
            .enumerate()
            .filter(|(i, &r)| r && !self.executed[*i])
            .map(|(i, _)| VertexId(i as u32))
            .collect()
    }

    /// Marks a vertex executed, updating its strong successors' readiness.
    ///
    /// Newly ready successors are reported through `on_ready`, so callers
    /// maintaining their own ready structures (e.g. the bucketed scheduler)
    /// need not rescan.
    pub fn execute_with(&mut self, dag: &CostDag, v: VertexId, mut on_ready: impl FnMut(VertexId)) {
        debug_assert!(!self.executed[v.index()], "vertex executed twice");
        self.executed[v.index()] = true;
        self.ready[v.index()] = false;
        self.executed_count += 1;
        for &succ in dag.strong_successors(v) {
            let r = &mut self.remaining_parents[succ.index()];
            *r -= 1;
            if *r == 0 {
                self.ready[succ.index()] = true;
                on_ready(succ);
            }
        }
    }

    /// Marks a vertex executed, updating its strong successors' readiness.
    pub fn execute(&mut self, dag: &CostDag, v: VertexId) {
        self.execute_with(dag, v, |_| {});
    }

    /// Number of executed vertices.
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::DagBuilder;
    use rp_priority::PriorityDomain;

    fn diamond() -> (CostDag, [VertexId; 4]) {
        // main: m0 m1; child: c0; create(m0, child); touch(child, m1);
        // plus an extra main vertex between to form a diamond-ish shape.
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let mut b = DagBuilder::new(dom);
        let main = b.thread("main", p);
        let child = b.thread("child", p);
        let m0 = b.vertex(main);
        let m1 = b.vertex(main);
        let m2 = b.vertex(main);
        let c0 = b.vertex(child);
        b.fcreate(m0, child).unwrap();
        b.ftouch(child, m2).unwrap();
        let _ = m1;
        (b.build().unwrap(), [m0, m1, m2, c0])
    }

    #[test]
    fn tracker_follows_execution() {
        let (g, [m0, m1, m2, c0]) = diamond();
        let adj = Adjacency::new(&g);
        let mut t = ReadyTracker::new(&g);
        assert_eq!(adj.initial_ready(), vec![m0]);
        assert!(t.is_ready(m0) && !t.is_ready(m1) && !t.is_ready(c0));
        t.execute(&g, m0);
        assert!(t.is_ready(m1) && t.is_ready(c0));
        assert!(!t.is_ready(m2), "m2 waits for both m1 and c0");
        t.execute(&g, m1);
        assert!(!t.is_ready(m2));
        t.execute(&g, c0);
        assert!(t.is_ready(m2));
        t.execute(&g, m2);
        assert_eq!(t.executed_count(), 4);
        assert!(t.ready_set().is_empty());
        assert!(t.is_executed(m0));
    }

    #[test]
    fn execute_with_reports_newly_ready() {
        let (g, [m0, m1, _m2, c0]) = diamond();
        let mut t = ReadyTracker::new(&g);
        let mut woken = Vec::new();
        t.execute_with(&g, m0, |v| woken.push(v));
        woken.sort();
        assert_eq!(woken, vec![m1, c0]);
    }

    #[test]
    fn ready_set_matches_naive_computation() {
        let (g, _) = diamond();
        let mut t = ReadyTracker::new(&g);
        let mut executed = vec![false; g.vertex_count()];
        // Execute in topological order, comparing against the naive helper.
        for v in crate::analysis::topological_order(&g) {
            let naive = crate::analysis::ready_vertices(&g, &executed);
            let mut incremental = t.ready_set();
            incremental.sort();
            let mut naive_sorted = naive.clone();
            naive_sorted.sort();
            assert_eq!(incremental, naive_sorted);
            t.execute(&g, v);
            executed[v.index()] = true;
        }
    }

    /// `scheduler::reference` breaks priority ties by the order of
    /// `ready_set()`, so that order is part of the contract: ascending vertex
    /// index, whatever order the vertices were executed and became ready in.
    #[test]
    fn ready_set_is_in_ascending_index_order() {
        let g = crate::random::sized_dag(7, 6, 4, 2);
        let mut t = ReadyTracker::new(&g);
        let mut woken_out_of_order = false;
        // Execute, at every round, the ready vertices from the highest index
        // down, so successors become ready out of index order.
        loop {
            let ready = t.ready_set();
            if ready.is_empty() {
                break;
            }
            assert!(
                ready.windows(2).all(|w| w[0] < w[1]),
                "ready set not ascending: {ready:?}"
            );
            let mut woken = Vec::new();
            for &v in ready.iter().rev() {
                t.execute_with(&g, v, |w| woken.push(w));
            }
            woken_out_of_order |= woken.windows(2).any(|w| w[0] > w[1]);
        }
        assert_eq!(t.executed_count(), g.vertex_count());
        assert!(
            woken_out_of_order,
            "the test never woke vertices out of order"
        );
    }

    #[test]
    fn adjacency_view_matches_graph() {
        let (g, [m0, _m1, m2, c0]) = diamond();
        let adj = Adjacency::new(&g);
        assert_eq!(adj.strong_indegree(m0), 0);
        assert_eq!(adj.strong_indegree(m2), 2);
        assert!(adj.strong_successors(m0).contains(&c0));
        assert!(adj.weak_successors(m0).is_empty());
    }
}
