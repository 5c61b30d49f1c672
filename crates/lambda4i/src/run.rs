//! Running λ⁴ᵢ programs: the D-Par driver, per-thread response times, and
//! cross-checks against the Section 2 cost model.

use crate::machine::{Machine, MachineError, StepOutcome};
use crate::policy::{ScriptedSelector, SelectionPolicy, Selector};
use crate::syntax::{Expr, Program, ThreadSym};
use rp_core::bound::{BoundAnalysis, BoundReport};
use rp_core::graph::{CostDag, ThreadId as DagThreadId, VertexId};
use rp_core::schedule::Schedule;
use rp_core::wellformed::check_strongly_well_formed_with;
use rp_priority::Priority;

/// Configuration of a program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Number of simulated cores `P` (threads stepped per parallel step).
    pub cores: usize,
    /// The thread-selection policy for the D-Par rule.
    pub policy: SelectionPolicy,
    /// Upper bound on parallel steps before the run is aborted.
    pub max_steps: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cores: 2,
            policy: SelectionPolicy::Prompt,
            max_steps: 1_000_000,
        }
    }
}

/// Per-thread outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadReport {
    /// The thread symbol.
    pub sym: ThreadSym,
    /// The corresponding thread of the produced cost graph.
    pub dag_thread: DagThreadId,
    /// The thread's priority.
    pub priority: Priority,
    /// Parallel step at which the thread was created (and became ready).
    pub created_at_step: usize,
    /// Parallel step at which it finished.
    pub finished_at_step: usize,
    /// Observed response time in parallel steps (finish − ready + 1).
    pub response_steps: usize,
    /// The Theorem 2.3 report for this thread against the executed schedule.
    pub bound: BoundReport,
}

/// Summary facts about the produced cost graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphReport {
    /// Whether the graph satisfies Definition 1.
    pub well_formed: bool,
    /// Whether the graph satisfies Definition 4.
    pub strongly_well_formed: bool,
    /// Number of vertices (total work).
    pub vertices: usize,
    /// Number of threads.
    pub threads: usize,
    /// Number of weak edges (state communication events observed).
    pub weak_edges: usize,
}

/// The full result of running a program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The program's name.
    pub name: String,
    /// Total number of parallel steps taken.
    pub steps: usize,
    /// The main thread's final value.
    pub value: Expr,
    /// The cost graph produced by the cost semantics.
    pub graph: CostDag,
    /// The schedule actually executed (vertex set per parallel step).
    pub schedule: Schedule,
    /// Whether the executed schedule is admissible for the graph (always
    /// true by construction — recorded for cross-checking).
    pub admissible: bool,
    /// Whether the executed schedule is prompt for the graph.
    pub prompt: bool,
    /// Per-thread reports.
    pub threads: Vec<ThreadReport>,
    /// Graph-level facts.
    pub graph_report: GraphReport,
}

impl RunResult {
    /// The report of the main thread.
    pub fn main_thread(&self) -> &ThreadReport {
        &self.threads[0]
    }

    /// Whether any thread's boundary-adjusted Theorem 2.3 bound is violated
    /// even though the theorem's hypotheses hold — i.e. whether this run is a
    /// counterexample to the theorem.
    pub fn any_bound_counterexample(&self) -> bool {
        self.threads.iter().any(|t| t.bound.is_counterexample())
    }

    /// Mean response time (in parallel steps) over threads at the given
    /// priority.
    pub fn mean_response_at(&self, priority: Priority) -> Option<f64> {
        let xs: Vec<usize> = self
            .threads
            .iter()
            .filter(|t| t.priority == priority)
            .map(|t| t.response_steps)
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<usize>() as f64 / xs.len() as f64)
        }
    }
}

/// Runs a program to completion under the given configuration.
///
/// Each parallel step selects up to `cores` runnable threads with the
/// configured policy and steps each of them once (the D-Par rule).  The
/// executed vertices per step are recorded as a [`Schedule`] of the final
/// graph, which is admissible by construction and is checked for promptness
/// and against the Theorem 2.3 bound for every thread.
///
/// # Errors
///
/// Returns a [`MachineError`] if the program gets stuck (ill-typed input) or
/// exceeds `max_steps`.
pub fn run_program(program: &Program, config: &RunConfig) -> Result<RunResult, MachineError> {
    assert!(config.cores > 0, "need at least one core");
    let mut selector = Selector::new(config.policy);
    let (machine, steps) = drive(program, config, |domain, runnable, cores| {
        selector.select(domain, runnable, cores)
    })?;
    finalize(program, config, machine, steps)
}

/// Runs a program replaying an explicit schedule script.
///
/// `script[i]` lists the thread symbols to step at parallel step `i` — the
/// explicit-schedule driver the DPOR explorer replays candidate
/// interleavings through.  Scripted entries naming threads that are not
/// runnable at that step are skipped (see [`ScriptedSelector`]); once the
/// script is exhausted the run continues under `config.policy` until every
/// thread finishes, so partial scripts (replayed prefixes) are legal.
///
/// # Errors
///
/// Returns a [`MachineError`] if the program gets stuck (ill-typed input) or
/// exceeds `config.max_steps`.
pub fn run_with_schedule(
    program: &Program,
    script: &[Vec<ThreadSym>],
    config: &RunConfig,
) -> Result<RunResult, MachineError> {
    assert!(config.cores > 0, "need at least one core");
    let mut selector = ScriptedSelector::new(script.iter().cloned(), config.policy);
    let (machine, steps) = drive(program, config, |domain, runnable, cores| {
        selector.select(domain, runnable, cores)
    })?;
    finalize(program, config, machine, steps)
}

/// The shared D-Par loop: steps the machine until all threads are done,
/// asking `choose` which runnable threads to step each round.
fn drive(
    program: &Program,
    config: &RunConfig,
    mut choose: impl FnMut(
        &rp_priority::PriorityDomain,
        &[(ThreadSym, Priority)],
        usize,
    ) -> Vec<ThreadSym>,
) -> Result<(Machine, Vec<Vec<VertexId>>), MachineError> {
    let mut machine = Machine::new(program);
    let mut steps: Vec<Vec<VertexId>> = Vec::new();

    while !machine.all_done() {
        if steps.len() >= config.max_steps {
            return Err(MachineError::StepLimitExceeded(config.max_steps));
        }
        let runnable: Vec<(ThreadSym, Priority)> = machine
            .runnable()
            .iter()
            .map(|&s| (s, machine.thread(s).priority))
            .collect();
        if runnable.is_empty() {
            // All unfinished threads are blocked: deadlock.  Well-typed
            // programs cannot deadlock through ftouch alone (the touch
            // relation follows thread creation), so report stuckness.
            let blocked = machine
                .thread_syms()
                .into_iter()
                .find(|s| !machine.thread(*s).is_done())
                .expect("not all done");
            return Err(MachineError::Stuck {
                thread: blocked,
                state: "deadlock: every unfinished thread is blocked".into(),
            });
        }
        let chosen = choose(machine.domain(), &runnable, config.cores);
        let step_index = steps.len();
        let mut executed = Vec::new();
        for sym in chosen {
            match machine.step_thread(sym, step_index)? {
                StepOutcome::Progress(v) => executed.push(v),
                StepOutcome::Blocked(_) | StepOutcome::Finished => {}
            }
        }
        steps.push(executed);
    }
    Ok((machine, steps))
}

/// Builds the [`RunResult`] from a finished machine and its recorded steps:
/// cost graph, schedule, well-formedness facts, and per-thread Theorem 2.3
/// reports.
fn finalize(
    program: &Program,
    config: &RunConfig,
    machine: Machine,
    steps: Vec<Vec<VertexId>>,
) -> Result<RunResult, MachineError> {
    let total_steps = steps.len();
    let value = machine
        .main_value()
        .cloned()
        .expect("all threads done implies main done");

    // Collect per-thread timing before consuming the machine.
    let timings: Vec<(ThreadSym, DagThreadId, Priority, usize, usize)> = machine
        .thread_entries()
        .iter()
        .map(|t| {
            (
                t.sym,
                t.dag_thread,
                t.priority,
                t.created_at_step,
                t.finished_at_step.expect("all done"),
            )
        })
        .collect();

    let graph = machine
        .into_graph()
        .expect("machine-produced graphs are acyclic");

    let schedule = Schedule {
        num_cores: config.cores,
        steps,
    };

    // One analysis serves Definitions 1 and 4 and every thread's bound; the
    // schedule's admissibility and promptness are evaluated once, inside
    // `check_all`, and stamped on every report.
    let analysis = BoundAnalysis::new(&graph);
    let graph_report = GraphReport {
        well_formed: analysis.is_well_formed(),
        strongly_well_formed: check_strongly_well_formed_with(&graph, analysis.reachability())
            .is_ok(),
        vertices: graph.vertex_count(),
        threads: graph.thread_count(),
        weak_edges: graph.weak_edges().len(),
    };
    let bounds = analysis.check_all(&schedule);
    let (admissible, prompt) = (bounds[0].admissible, bounds[0].prompt);
    let threads = timings
        .into_iter()
        .map(
            |(sym, dag_thread, priority, created, finished)| ThreadReport {
                sym,
                dag_thread,
                priority,
                created_at_step: created,
                finished_at_step: finished,
                response_steps: finished.saturating_sub(created) + 1,
                bound: bounds[dag_thread.index()].clone(),
            },
        )
        .collect();

    Ok(RunResult {
        name: program.name.clone(),
        steps: total_steps,
        value,
        admissible,
        prompt,
        schedule,
        threads,
        graph,
        graph_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progs;
    use crate::typecheck::typecheck_program;

    #[test]
    fn parallel_fib_runs_and_is_well_formed() {
        let prog = progs::parallel_fib(6);
        typecheck_program(&prog).unwrap();
        let result = run_program(&prog, &RunConfig::default()).unwrap();
        assert_eq!(result.value, Expr::Nat(8));
        assert!(result.graph_report.well_formed);
        assert!(result.graph_report.strongly_well_formed);
        assert!(
            result.admissible,
            "machine runs are admissible by construction"
        );
        assert!(result.graph_report.threads > 1, "fib(6) spawns futures");
    }

    #[test]
    fn executed_schedule_respects_bound_under_prompt_policy() {
        let prog = progs::server_with_background(4, 6);
        typecheck_program(&prog).unwrap();
        for cores in [1, 2, 4] {
            let config = RunConfig {
                cores,
                policy: SelectionPolicy::Prompt,
                max_steps: 200_000,
            };
            let result = run_program(&prog, &config).unwrap();
            assert!(result.admissible);
            assert!(
                !result.any_bound_counterexample(),
                "bound violated at P={cores}"
            );
        }
    }

    #[test]
    fn oblivious_policy_still_terminates_with_same_value() {
        let prog = progs::parallel_fib(5);
        let prompt = run_program(&prog, &RunConfig::default()).unwrap();
        let oblivious = run_program(
            &prog,
            &RunConfig {
                policy: SelectionPolicy::Oblivious,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(prompt.value, oblivious.value);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let prog = progs::figure1_program();
        let cfg = |seed| RunConfig {
            cores: 2,
            policy: SelectionPolicy::Random { seed },
            max_steps: 100_000,
        };
        let a = run_program(&prog, &cfg(1)).unwrap();
        let b = run_program(&prog, &cfg(1)).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
    }

    #[test]
    fn step_limit_is_enforced() {
        let prog = progs::parallel_fib(8);
        let result = run_program(
            &prog,
            &RunConfig {
                max_steps: 5,
                ..RunConfig::default()
            },
        );
        assert!(matches!(result, Err(MachineError::StepLimitExceeded(5))));
    }

    /// The verdicts `finalize` draws from one shared analysis equal what the
    /// one-shot checks return on the same graph and schedule.
    fn assert_matches_one_shot_checks(label: &str, r: &RunResult) {
        use rp_core::bound::check_bounds_batch;
        use rp_core::wellformed::{check_strongly_well_formed, check_well_formed};
        let (g, s) = (&r.graph, &r.schedule);
        let expected = GraphReport {
            well_formed: check_well_formed(g).is_ok(),
            strongly_well_formed: check_strongly_well_formed(g).is_ok(),
            vertices: g.vertex_count(),
            threads: g.thread_count(),
            weak_edges: g.weak_edges().len(),
        };
        assert_eq!(r.graph_report, expected, "{label}");
        assert_eq!(r.admissible, s.is_admissible(g), "{label}");
        assert_eq!(r.prompt, s.is_prompt(g), "{label}");
        let batch = check_bounds_batch(g, s);
        assert_eq!(r.threads.len(), batch.len(), "{label}");
        for t in &r.threads {
            let a = t.dag_thread;
            assert_eq!(t.bound, batch[a.index()], "{label}: thread {a}");
            assert_eq!(t.bound.observed, s.response_time(g, a), "{label}: {a}");
        }
    }

    #[test]
    fn run_results_match_the_one_shot_checks() {
        use crate::generate::{random_program, GenConfig};
        use crate::parse::parse_program;
        use crate::progs::sources;
        use crate::typecheck::infer_program;
        let policies = [
            SelectionPolicy::Prompt,
            SelectionPolicy::Oblivious,
            SelectionPolicy::Random { seed: 7 },
        ];
        let config = |i: usize| RunConfig {
            cores: 1 + i % 2,
            policy: policies[i % policies.len()],
            max_steps: 2_000_000,
        };
        let mut prompt_verdicts = [0usize; 2];
        let mut check = |label: &str, prog: &Program, i: usize| {
            let result = run_program(prog, &config(i)).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_matches_one_shot_checks(label, &result);
            prompt_verdicts[usize::from(result.prompt)] += 1;
        };
        for (i, (name, src, _)) in sources::all().into_iter().enumerate() {
            let inferred = infer_program(&parse_program(src).unwrap()).unwrap();
            check(name, &inferred.program, i);
        }
        let gen = GenConfig {
            free_prio_probability: 0.4,
            ..GenConfig::default()
        };
        for seed in 0..40u64 {
            let inferred = infer_program(&random_program(seed, &gen)).unwrap();
            check(&format!("seed {seed}"), &inferred.program, seed as usize);
        }
        assert!(
            prompt_verdicts.iter().all(|&n| n > 0),
            "both promptness verdicts must occur: {prompt_verdicts:?}"
        );
    }

    #[test]
    fn response_times_favor_high_priority_under_prompt() {
        // A high-priority "request" thread races a pile of low-priority
        // background threads for one core.  The prompt policy should answer
        // the request much sooner than the oblivious policy does.
        let prog = progs::server_with_background(6, 24);
        let one_core = |policy| RunConfig {
            cores: 1,
            policy,
            max_steps: 400_000,
        };
        let prompt = run_program(&prog, &one_core(SelectionPolicy::Prompt)).unwrap();
        let oblivious = run_program(&prog, &one_core(SelectionPolicy::Oblivious)).unwrap();
        let hi = prog.domain.priority("interactive").unwrap();
        let t_prompt = prompt.mean_response_at(hi).unwrap();
        let t_oblivious = oblivious.mean_response_at(hi).unwrap();
        assert!(
            t_prompt < t_oblivious,
            "prompt {t_prompt} should beat oblivious {t_oblivious}"
        );
    }
}
