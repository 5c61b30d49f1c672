//! Random generation of well-formed cost graphs.
//!
//! Property tests and benchmarks need many graphs that satisfy the paper's
//! well-formedness conditions.  [`RandomDagGenerator`] builds them the same
//! way a well-typed λ⁴ᵢ program would: threads only ftouch threads of equal
//! or higher priority, fire-and-forget children may have any priority, and
//! weak edges are either *shadowed* by existing strong paths (so every valid
//! schedule is admissible) or represent a low-to-high write/read pair that is
//! also reflected by the handle-propagation structure.

use crate::build::DagBuilder;
use crate::graph::{CostDag, ThreadId, VertexId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rp_priority::{Priority, PriorityDomain};

/// Configuration for [`RandomDagGenerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomDagConfig {
    /// Number of priority levels (a total order is used).
    pub priority_levels: usize,
    /// Maximum recursion depth of thread creation.
    pub max_depth: usize,
    /// Maximum number of children any thread creates.
    pub max_children: usize,
    /// Maximum number of vertices per thread (minimum is 2).
    pub max_thread_len: usize,
    /// Probability that a created child is touched back (joined).
    pub touch_probability: f64,
    /// Probability of adding a shadowed weak edge along an existing strong
    /// path (models a read of state previously written by an ancestor).
    pub weak_edge_probability: f64,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            priority_levels: 3,
            max_depth: 4,
            max_children: 3,
            max_thread_len: 5,
            touch_probability: 0.6,
            weak_edge_probability: 0.3,
        }
    }
}

/// Generates random well-formed cost graphs.
///
/// # Example
///
/// ```
/// use rp_core::random::{RandomDagConfig, RandomDagGenerator};
/// use rp_core::wellformed::check_well_formed;
///
/// let mut gen = RandomDagGenerator::new(RandomDagConfig::default(), 42);
/// let dag = gen.generate();
/// assert!(check_well_formed(&dag).is_ok());
/// ```
#[derive(Debug)]
pub struct RandomDagGenerator {
    config: RandomDagConfig,
    rng: StdRng,
    domain: PriorityDomain,
}

impl RandomDagGenerator {
    /// Creates a generator with the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for zero priority levels.
    pub fn new(config: RandomDagConfig, seed: u64) -> Self {
        assert!(
            config.priority_levels > 0,
            "need at least one priority level"
        );
        let domain = PriorityDomain::numeric(config.priority_levels);
        RandomDagGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            domain,
        }
    }

    /// The priority domain used by generated graphs.
    pub fn domain(&self) -> &PriorityDomain {
        &self.domain
    }

    /// Generates one well-formed graph.
    pub fn generate(&mut self) -> CostDag {
        let mut builder = DagBuilder::new(self.domain.clone());
        // Root priority: anywhere in the order.
        let root_prio = self.random_priority();
        let root = builder.thread("root", root_prio);
        self.grow_thread(&mut builder, root, root_prio, 0);
        builder
            .build()
            .expect("generator only produces acyclic graphs")
    }

    fn random_priority(&mut self) -> Priority {
        let i = self.rng.gen_range(0..self.domain.len());
        self.domain.by_index(i)
    }

    /// Priority greater than or equal to `lo` (for touched children).
    fn random_priority_at_least(&mut self, lo: Priority) -> Priority {
        let candidates: Vec<Priority> = self
            .domain
            .iter()
            .filter(|&p| self.domain.leq(lo, p))
            .collect();
        candidates[self.rng.gen_range(0..candidates.len())]
    }

    /// Grows a thread: a prefix of vertices, a batch of children created at
    /// random points, touches of the joinable children near the end, and an
    /// optional shadowed weak edge.
    fn grow_thread(
        &mut self,
        builder: &mut DagBuilder,
        thread: ThreadId,
        prio: Priority,
        depth: usize,
    ) -> (VertexId, VertexId) {
        let len = self.rng.gen_range(2..=self.config.max_thread_len.max(2));
        let vertices = builder.vertices(thread, len);
        let first = vertices[0];
        let last = *vertices.last().expect("len >= 2");

        if depth < self.config.max_depth {
            let n_children = self.rng.gen_range(0..=self.config.max_children);
            for c in 0..n_children {
                // Create from some vertex strictly before the last one so a
                // touch from the last vertex cannot form a cycle.
                let create_at = vertices[self.rng.gen_range(0..len - 1)];
                let touch_back = self.rng.gen_bool(self.config.touch_probability);
                let child_prio = if touch_back {
                    // The touch rule: toucher priority ⪯ touched priority.
                    self.random_priority_at_least(prio)
                } else {
                    self.random_priority()
                };
                let name = format!("{}-{}-{}", builder_thread_name(builder, thread), depth, c);
                let child = builder.thread(name, child_prio);
                let (_, child_last) = self.grow_thread(builder, child, child_prio, depth + 1);
                builder
                    .fcreate(create_at, child)
                    .expect("fresh child cannot already have a creator");
                if touch_back {
                    builder
                        .ftouch(child, last)
                        .expect("touching a different thread");
                }
                // Optionally add a shadowed weak edge child_last ⇢ last (a
                // read of state the child wrote).  It parallels the touch
                // edge, so admissibility of valid schedules is preserved only
                // when the touch exists; otherwise the weak edge represents
                // genuine state communication and admissible schedules must
                // order it.
                if touch_back && self.rng.gen_bool(self.config.weak_edge_probability) {
                    builder.weak(child_last, last).expect("distinct vertices");
                }
            }
        }
        (first, last)
    }

    /// Generates a batch of graphs.
    pub fn generate_many(&mut self, n: usize) -> Vec<CostDag> {
        (0..n).map(|_| self.generate()).collect()
    }
}

fn builder_thread_name(_builder: &DagBuilder, thread: ThreadId) -> String {
    format!("t{}", thread.index())
}

/// Generates a seeded well-formed DAG of an exact size: `num_threads`
/// threads of `verts_per_thread` vertices each over a totally ordered domain
/// of `levels` priorities.
///
/// Unlike [`RandomDagGenerator`], whose recursive growth makes the final
/// size a random variable, this builds the thread forest iteratively —
/// every new thread picks a uniformly random existing parent — so benchmark
/// kernels get exactly `num_threads · verts_per_thread` vertices (e.g. the
/// 50k-vertex / 1k-thread / 8-level scheduler kernel).  The same local rules
/// as the recursive generator keep the graph well-formed: children touched
/// back by their parent have priority at least the parent's, creates happen
/// strictly before the parent's last vertex, and weak edges only shadow
/// touch edges.
///
/// # Panics
///
/// Panics if `num_threads == 0`, `verts_per_thread < 2`, or `levels == 0`.
pub fn sized_dag(seed: u64, num_threads: usize, verts_per_thread: usize, levels: usize) -> CostDag {
    assert!(num_threads > 0, "need at least one thread");
    assert!(verts_per_thread >= 2, "threads need at least two vertices");
    assert!(levels > 0, "need at least one priority level");
    let domain = PriorityDomain::numeric(levels);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DagBuilder::new(domain.clone());

    let root_prio = domain.by_index(rng.gen_range(0..levels));
    let root = b.thread("t0", root_prio);
    let root_verts = b.vertices(root, verts_per_thread);
    // (priority index, first..last vertex ids) per thread; vertex ids within
    // a thread are contiguous, so the range stands in for the vertex list.
    let mut threads: Vec<(usize, VertexId, VertexId)> = vec![(
        root_prio.index(),
        root_verts[0],
        *root_verts.last().expect("verts_per_thread >= 2"),
    )];

    for i in 1..num_threads {
        let (parent_prio_ix, parent_first, parent_last) = threads[rng.gen_range(0..threads.len())];
        // Create strictly before the parent's last vertex so a touch back
        // into that last vertex cannot form a cycle.
        let span = parent_last.index() - parent_first.index();
        let create_at = VertexId((parent_first.index() + rng.gen_range(0..span)) as u32);
        let touch_back = rng.gen_bool(0.6);
        let prio_ix = if touch_back {
            // Touch rule: toucher priority ⪯ touched priority.
            rng.gen_range(parent_prio_ix..levels)
        } else {
            rng.gen_range(0..levels)
        };
        let child = b.thread(format!("t{i}"), domain.by_index(prio_ix));
        let verts = b.vertices(child, verts_per_thread);
        let (first, last) = (verts[0], *verts.last().expect("non-empty"));
        b.fcreate(create_at, child)
            .expect("fresh child has no creator");
        if touch_back {
            b.ftouch(child, parent_last)
                .expect("touching a different thread");
            if rng.gen_bool(0.3) {
                // A shadowed weak edge: a read by the parent of state the
                // child wrote, ordered by the touch it parallels.
                b.weak(last, parent_last).expect("distinct vertices");
            }
        }
        threads.push((prio_ix, first, last));
    }

    b.build().expect("iterative growth is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{prompt_schedule, weak_respecting_prompt_schedule};
    use crate::wellformed::{check_strongly_well_formed, check_well_formed};

    #[test]
    fn generated_graphs_are_well_formed() {
        let mut gen = RandomDagGenerator::new(RandomDagConfig::default(), 1);
        for dag in gen.generate_many(25) {
            check_well_formed(&dag).unwrap();
        }
    }

    #[test]
    fn generated_graphs_are_strongly_well_formed() {
        let mut gen = RandomDagGenerator::new(RandomDagConfig::default(), 2);
        for dag in gen.generate_many(25) {
            check_strongly_well_formed(&dag).unwrap();
        }
    }

    #[test]
    fn generated_graphs_are_schedulable() {
        let mut gen = RandomDagGenerator::new(RandomDagConfig::default(), 3);
        for dag in gen.generate_many(10) {
            for p in [1, 2, 4] {
                let s = prompt_schedule(&dag, p);
                s.validate(&dag).unwrap();
                let ws = weak_respecting_prompt_schedule(&dag, p);
                ws.validate(&dag).unwrap();
                assert!(ws.is_admissible(&dag));
            }
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = RandomDagGenerator::new(RandomDagConfig::default(), 7).generate();
        let b = RandomDagGenerator::new(RandomDagConfig::default(), 7).generate();
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.thread_count(), b.thread_count());
    }

    #[test]
    fn config_is_respected() {
        let config = RandomDagConfig {
            priority_levels: 1,
            max_depth: 1,
            max_children: 1,
            max_thread_len: 2,
            touch_probability: 1.0,
            weak_edge_probability: 0.0,
        };
        let mut gen = RandomDagGenerator::new(config, 11);
        let dag = gen.generate();
        assert!(dag.thread_count() <= 2);
        assert!(dag.vertex_count() <= 4);
        assert!(dag.weak_edges().is_empty());
    }

    #[test]
    fn sized_dag_has_exact_size_and_is_well_formed() {
        let dag = sized_dag(42, 20, 5, 4);
        assert_eq!(dag.thread_count(), 20);
        assert_eq!(dag.vertex_count(), 100);
        check_well_formed(&dag).unwrap();
        check_strongly_well_formed(&dag).unwrap();
        for p in [1, 4] {
            let s = prompt_schedule(&dag, p);
            s.validate(&dag).unwrap();
            let ws = weak_respecting_prompt_schedule(&dag, p);
            ws.validate(&dag).unwrap();
            assert!(ws.is_admissible(&dag));
        }
    }

    #[test]
    fn sized_dag_is_reproducible() {
        let a = sized_dag(7, 10, 3, 2);
        let b = sized_dag(7, 10, 3, 2);
        assert_eq!(a, b);
        let c = sized_dag(8, 10, 3, 2);
        assert!(a != c || a.edges().len() == c.edges().len());
    }

    #[test]
    #[should_panic(expected = "at least one priority level")]
    fn zero_levels_rejected() {
        let config = RandomDagConfig {
            priority_levels: 0,
            ..RandomDagConfig::default()
        };
        let _ = RandomDagGenerator::new(config, 0);
    }
}
