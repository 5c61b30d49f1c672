//! The λ⁴ᵢ front-end pipeline: parse → infer → run (machine and runtime).
//!
//! This module glues the three front-end stages into one entry point used
//! by `bench_lambda`, the `lambda_server` example, and the integration
//! tests:
//!
//! 1. **parse** — [`crate::parse::parse_program`] turns `.l4i` source into
//!    a [`Program`];
//! 2. **infer** — [`crate::typecheck::infer_program`] collects the priority
//!    constraints, solves for any free priority variables, and re-checks
//!    the instantiated program;
//! 3. **run** — the instantiated program executes on *both* back ends: the
//!    abstract machine ([`crate::run::run_program`], which emits the cost
//!    DAG of the paper's cost semantics) and the traced rp-icilk runtime
//!    ([`crate::compile::compile_and_run`], whose trace reconstructs the
//!    *observed* cost DAG).  Theorem 2.3 is checked on both graphs; any
//!    [`BoundReport::is_counterexample`] is a bug in the scheduler, the
//!    tracer, or the bound analysis.
//!
//! [`BoundReport::is_counterexample`]: rp_core::bound::BoundReport::is_counterexample

// `TypeError` carries the full offending expression/command for error
// messages (see `typecheck`); a large `Err` variant on this cold path is
// deliberate, matching the checker itself.
#![allow(clippy::result_large_err)]

use crate::compile::{compile_and_run, CompileConfig, CompileError, RuntimeOutcome};
use crate::machine::MachineError;
use crate::parse::{parse_program, ParseError};
use crate::run::{run_program, RunConfig, RunResult};
use crate::syntax::{Expr, Program};
use crate::typecheck::{infer_program, Inference, TypeError};
use rp_core::trace::{ReconstructedRun, TraceBoundReport, TraceError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Abstract-machine configuration.
    pub machine: RunConfig,
    /// Runtime lowering configuration.
    pub runtime: CompileConfig,
}

/// Errors from any stage of the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Stage 1: the source did not parse.
    Parse(ParseError),
    /// Stage 2: type checking or priority inference failed.
    Type(TypeError),
    /// Stage 3a: the abstract machine got stuck or ran too long.
    Machine(MachineError),
    /// Stage 3b: runtime lowering failed.
    Compile(CompileError),
    /// Stage 3b: the runtime trace did not reconstruct.
    Trace(TraceError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::Type(e) => write!(f, "type error: {e}"),
            PipelineError::Machine(e) => write!(f, "abstract machine error: {e}"),
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Trace(e) => write!(f, "trace reconstruction error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Everything one pipeline run produced: both executions and both graphs'
/// bound verdicts, for cross-checking.
#[derive(Debug)]
pub struct PipelineReport {
    /// The inference outcome (assignment, instantiated program, stats).
    /// Shared, not owned, so [`CompileCache`] hits hand out the memoized
    /// result without deep-cloning the instantiated AST.
    pub inference: Arc<Inference>,
    /// The abstract-machine run (cost-semantics DAG, schedule, per-thread
    /// Theorem 2.3 reports).
    pub machine: RunResult,
    /// The runtime run (value, trace).
    pub runtime: RuntimeOutcome,
    /// The reconstruction of the runtime trace, when tracing was on.
    pub reconstruction: Option<ReconstructedRun>,
    /// Theorem 2.3 against the *observed* runtime schedule.
    pub observed: Vec<TraceBoundReport>,
    /// Theorem 2.3 against a replayed weak-respecting prompt schedule of
    /// the reconstructed graph (the configuration the theorem speaks
    /// about — the oracle even when the observed schedule is not prompt).
    pub replay: Vec<TraceBoundReport>,
}

impl PipelineReport {
    /// Whether both back ends computed the same final value.  Guaranteed
    /// for race-free programs; racy programs (Figure 1) may legitimately
    /// differ.
    pub fn values_agree(&self) -> bool {
        self.machine.value == self.runtime.value
    }

    /// The runtime value (convenience).
    pub fn value(&self) -> &Expr {
        &self.runtime.value
    }

    /// Total Theorem 2.3 counterexamples across the machine graph, the
    /// observed runtime schedule, and the replayed prompt schedule.  Zero
    /// for a healthy build.
    pub fn counterexamples(&self) -> usize {
        let machine = self
            .machine
            .threads
            .iter()
            .filter(|t| t.bound.is_counterexample())
            .count();
        let observed = self
            .observed
            .iter()
            .filter(|r| r.report.is_counterexample())
            .count();
        let replay = self
            .replay
            .iter()
            .filter(|r| r.report.is_counterexample())
            .count();
        machine + observed + replay
    }
}

/// Runs an already-parsed program through stages 2 and 3.
///
/// # Errors
///
/// Returns the first failing stage's error.
pub fn run_pipeline(
    prog: &Program,
    config: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    let inference = infer_program(prog).map_err(PipelineError::Type)?;
    run_inferred(Arc::new(inference), config)
}

/// Runs stage 3 (both back ends plus the Theorem 2.3 cross-check) on an
/// already-inferred program.  This is the shared tail of [`run_pipeline`]
/// and the memoized [`CompileCache::run_source`] path: the expensive
/// parse → infer front half is skippable, the execution half never is.
///
/// # Errors
///
/// Returns the first failing stage's error.
pub fn run_inferred(
    inference: Arc<Inference>,
    config: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    let machine =
        run_program(&inference.program, &config.machine).map_err(PipelineError::Machine)?;
    let runtime =
        compile_and_run(&inference.program, &config.runtime).map_err(PipelineError::Compile)?;
    let reconstruction = match &runtime.trace {
        Some(trace) => Some(trace.reconstruct().map_err(PipelineError::Trace)?),
        None => None,
    };
    let (observed, replay) = match &reconstruction {
        Some(run) => run.check_observed_and_replay(runtime.workers),
        None => (Vec::new(), Vec::new()),
    };
    Ok(PipelineReport {
        inference,
        machine,
        runtime,
        reconstruction,
        observed,
        replay,
    })
}

/// The whole front end: `.l4i` source in, cross-checked report out.
///
/// # Errors
///
/// Returns the first failing stage's error.
///
/// # Example
///
/// ```
/// use rp_lambda4i::pipeline::{run_source, PipelineConfig};
/// let src = "\
/// priorities: lo < hi
/// program doc-example : nat
/// main @ lo:
///   t <- cmd[lo]{fcreate[worker; nat]{ret 21}}; -- `worker` is inferred
///   v <- cmd[lo]{ftouch t};
///   ret (v + v)
/// ";
/// let report = run_source(src, &PipelineConfig::default()).unwrap();
/// assert_eq!(report.value(), &rp_lambda4i::syntax::Expr::Nat(42));
/// assert!(report.values_agree());
/// assert_eq!(report.counterexamples(), 0);
/// ```
pub fn run_source(src: &str, config: &PipelineConfig) -> Result<PipelineReport, PipelineError> {
    let prog = parse_program(src).map_err(PipelineError::Parse)?;
    run_pipeline(&prog, config)
}

/// The uncached parse → infer front half alone.  [`run_source`] is this
/// followed by [`run_inferred`]; callers that time the front half
/// separately (the `rp_net` request spans) run the two stages themselves.
///
/// # Errors
///
/// Parse or type errors of the source.
pub fn infer_source(src: &str) -> Result<Arc<Inference>, PipelineError> {
    let prog = parse_program(src).map_err(PipelineError::Parse)?;
    Ok(Arc::new(infer_program(&prog).map_err(PipelineError::Type)?))
}

/// Cumulative hit/miss counters of a [`CompileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Submissions answered from a memoized parse → infer result.
    pub hits: u64,
    /// Submissions that had to run the full front half.
    pub misses: u64,
    /// Distinct sources currently memoized.
    pub entries: usize,
}

/// A memoizing front half of the pipeline for services that run the same
/// λ⁴ᵢ source repeatedly (the `rp_net` cached-compilation request class).
///
/// The expensive parse → infer stages are keyed by the **source text
/// itself** (not a hash — the cache is fed network-supplied sources, and a
/// 64-bit non-cryptographic hash key would let a colliding submission be
/// answered with a *different* program's inference); on a hit,
/// [`CompileCache::run_source`] skips straight to the execution stage
/// ([`run_inferred`]), which always runs — memoizing an execution would
/// defeat the point of checking Theorem 2.3 against real runs.  Parse and
/// type errors are *not* cached: failing sources pay the front half again
/// on every submission (they are cheap — they never reach the execution
/// stage).
///
/// The cache holds at most [`CompileCache::capacity`] distinct sources;
/// inserting past the bound flushes the whole cache (a crude but
/// predictable policy: a service fed a stream of distinct sources degrades
/// to miss-always instead of growing without bound).
///
/// The cache is internally synchronized; share it across server shards with
/// an [`Arc`].
#[derive(Debug)]
pub struct CompileCache {
    entries: Mutex<HashMap<String, Arc<Inference>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::new()
    }
}

impl CompileCache {
    /// The default bound on distinct memoized sources.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        CompileCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` distinct sources (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CompileCache {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The bound on distinct memoized sources.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The FNV-1a hash of a source text.  *Not* the cache key (see the
    /// type docs) — exposed so protocol layers can log or route by it.
    pub fn source_hash(src: &str) -> u64 {
        src.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        })
    }

    /// Like the free function [`run_source`], but memoizing the
    /// parse → infer front half per source.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's error; front-half errors are
    /// recomputed (never cached).
    pub fn run_source(
        &self,
        src: &str,
        config: &PipelineConfig,
    ) -> Result<PipelineReport, PipelineError> {
        run_inferred(self.inference(src)?, config)
    }

    /// The memoized parse → infer front half alone: the source's inference,
    /// from the cache on a hit or freshly computed (and memoized) on a miss.
    /// [`CompileCache::run_source`] is this followed by [`run_inferred`];
    /// callers that time the front half separately (the `rp_net` request
    /// spans) run the two stages themselves.
    ///
    /// # Errors
    ///
    /// Returns parse/type errors; front-half errors are never cached.
    pub fn inference(&self, src: &str) -> Result<Arc<Inference>, PipelineError> {
        let cached = self.entries.lock().expect("cache lock").get(src).cloned();
        match cached {
            Some(inference) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(inference)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let prog = parse_program(src).map_err(PipelineError::Parse)?;
                let inference = Arc::new(infer_program(&prog).map_err(PipelineError::Type)?);
                let mut entries = self.entries.lock().expect("cache lock");
                if entries.len() >= self.capacity {
                    entries.clear();
                }
                entries.insert(src.to_string(), Arc::clone(&inference));
                Ok(inference)
            }
        }
    }

    /// Hit/miss counters and current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("cache lock").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;
    use crate::progs;

    fn config() -> PipelineConfig {
        PipelineConfig::default()
    }

    #[test]
    fn pretty_printed_programs_flow_through_the_whole_pipeline() {
        let prog = progs::parallel_fib(5);
        let src = pretty::program_to_string(&prog);
        let report = run_source(&src, &config()).unwrap();
        assert_eq!(report.value(), &crate::syntax::Expr::Nat(5));
        assert!(report.values_agree());
        assert_eq!(report.counterexamples(), 0);
        assert!(report.reconstruction.is_some());
    }

    #[test]
    fn inference_feeds_the_runtime_backend() {
        // A source program with a solver-chosen priority.
        let src = "\
priorities: bg < fg
program inferred : nat
main @ fg:
  t <- cmd[fg]{fcreate[p; nat]{ret 9}};
  v <- cmd[fg]{ftouch t};
  ret v
";
        let report = run_source(src, &config()).unwrap();
        // fg ⪯ p forces p = fg.
        let p = report
            .inference
            .assignment
            .get(&rp_priority::PrioVar::new("p"))
            .and_then(|t| t.as_const());
        assert_eq!(p, report.inference.program.domain.priority("fg"));
        assert_eq!(report.value(), &crate::syntax::Expr::Nat(9));
        assert_eq!(report.counterexamples(), 0);
    }

    /// The schedule explorer's verdict on a program: whether it races, and,
    /// when the exploration completes within its budget, every value the
    /// program can produce.
    struct Oracle {
        racy: bool,
        values: Option<Vec<Expr>>,
    }

    fn explore(prog: &Program) -> Oracle {
        use crate::explore::{explore_program, ExploreConfig};
        let config = ExploreConfig {
            max_schedules: 100,
            check_bounds: false,
            ..ExploreConfig::default()
        };
        let report = explore_program(prog, &config).expect("the explorer runs every program");
        Oracle {
            racy: report.racy(),
            values: report
                .complete
                .then(|| report.outcomes.iter().map(|o| o.value.clone()).collect()),
        }
    }

    /// What a runtime run must reproduce whether its runtime is new or
    /// reused.  The value is left out for programs the explorer finds racy.
    #[derive(Debug, PartialEq)]
    struct RuntimeSummary {
        value: Option<Expr>,
        threads_spawned: usize,
        level_names: Vec<String>,
        /// Reconstructed thread priorities (level indices), sorted.
        thread_levels: Vec<usize>,
    }

    /// Runs `prog` on the calling thread's runtime of its shape, checks
    /// the trace for Theorem 2.3 counterexamples on both schedules, and
    /// checks the value against the explorer's outcomes when it has them.
    fn summarize(label: &str, prog: &Program, oracle: &Oracle) -> RuntimeSummary {
        let out = compile_and_run(prog, &CompileConfig::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let run = out
            .trace
            .as_ref()
            .expect("tracing is on by default")
            .reconstruct()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(run.skipped, 0, "{label}");
        let (observed, replay) = run.check_observed_and_replay(out.workers);
        for r in observed.iter().chain(&replay) {
            assert!(!r.report.is_counterexample(), "{label}: {r:?}");
        }
        if let Some(values) = &oracle.values {
            assert!(
                values.contains(&out.value),
                "{label}: the runtime's value {:?} is not among the explorer's {values:?}",
                out.value
            );
        }
        let mut thread_levels: Vec<usize> = run
            .dag
            .threads()
            .map(|t| run.dag.thread_priority(t).index())
            .collect();
        thread_levels.sort_unstable();
        RuntimeSummary {
            value: (!oracle.racy).then_some(out.value),
            threads_spawned: out.threads_spawned,
            level_names: out.level_names,
            thread_levels,
        }
    }

    /// Differential test of runtime reuse: every fixture and 200 generated
    /// programs, each run once on a runtime of its own (a new thread) and
    /// once back to back with all the others on one thread, agree on
    /// threads, level names, reconstructed thread priorities and, for the
    /// programs the explorer finds race-free, value.
    #[test]
    fn pooled_runtimes_match_fresh_runtimes() {
        use crate::generate::{random_program, GenConfig};
        use crate::progs::sources;
        let gen = GenConfig {
            free_prio_probability: 0.4,
            ..GenConfig::default()
        };
        let mut programs: Vec<(String, Program)> = sources::all()
            .into_iter()
            .map(|(name, src, _)| {
                let prog = parse_program(src).unwrap();
                (name.to_string(), infer_program(&prog).unwrap().program)
            })
            .collect();
        programs.extend((0..200u64).map(|seed| {
            let prog = infer_program(&random_program(seed, &gen)).unwrap().program;
            (format!("seed {seed}"), prog)
        }));
        let oracles: Vec<Oracle> = programs.iter().map(|(_, prog)| explore(prog)).collect();
        let fresh: Vec<RuntimeSummary> = programs
            .iter()
            .zip(&oracles)
            .map(|((label, prog), oracle)| {
                std::thread::scope(|s| s.spawn(|| summarize(label, prog, oracle)).join())
                    .unwrap_or_else(|_| panic!("{label}: fresh run panicked"))
            })
            .collect();
        for (((label, prog), oracle), fresh) in programs.iter().zip(&oracles).zip(&fresh) {
            assert_eq!(&summarize(label, prog, oracle), fresh, "{label}");
        }
    }

    #[test]
    fn compile_cache_memoizes_the_front_half_only() {
        let cache = CompileCache::new();
        let prog = progs::parallel_fib(5);
        let src = pretty::program_to_string(&prog);
        let first = cache.run_source(&src, &config()).unwrap();
        let second = cache.run_source(&src, &config()).unwrap();
        // The front half was reused, the execution half was not: both runs
        // produced fresh machine/runtime executions with the same value.
        assert_eq!(first.value(), second.value());
        assert_eq!(first.counterexamples(), 0);
        assert_eq!(second.counterexamples(), 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // A different source is a separate entry.
        let other = pretty::program_to_string(&progs::parallel_fib(4));
        cache.run_source(&other, &config()).unwrap();
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn compile_cache_does_not_cache_errors() {
        let cache = CompileCache::new();
        let bad = "priorities: a\nprogram p : nat\nmain @ a:\n  ret (";
        for _ in 0..2 {
            let err = cache.run_source(bad, &config()).unwrap_err();
            assert!(matches!(err, PipelineError::Parse(_)));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
    }

    /// The cache never grows past its capacity: inserting beyond the bound
    /// flushes, so a stream of distinct sources cannot exhaust memory.
    #[test]
    fn compile_cache_is_bounded() {
        let cache = CompileCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        for n in 3..7 {
            let src = pretty::program_to_string(&progs::parallel_fib(n));
            cache.run_source(&src, &config()).unwrap();
            assert!(cache.stats().entries <= 2, "capacity must bound the map");
        }
        // Four distinct sources through a 2-entry cache: all misses, with
        // at least one flush along the way.
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert!(stats.entries <= 2);
    }

    #[test]
    fn source_hash_is_stable_and_content_sensitive() {
        assert_eq!(
            CompileCache::source_hash("abc"),
            CompileCache::source_hash("abc")
        );
        assert_ne!(
            CompileCache::source_hash("abc"),
            CompileCache::source_hash("abd")
        );
    }

    #[test]
    fn parse_errors_surface_with_positions() {
        let err = run_source(
            "priorities: a\nprogram p : nat\nmain @ a:\n  ret (",
            &config(),
        )
        .unwrap_err();
        match err {
            PipelineError::Parse(e) => assert_eq!(e.line, 4),
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn type_errors_surface() {
        let src = "\
priorities: lo < hi
program bad : nat
main @ hi:
  t <- cmd[hi]{fcreate[lo; nat]{ret 1}};
  v <- cmd[hi]{ftouch t};
  ret v
";
        let err = run_source(src, &config()).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Type(TypeError::PriorityInversion { .. })
        ));
    }
}
