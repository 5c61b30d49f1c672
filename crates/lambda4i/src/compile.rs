//! Compiling λ⁴ᵢ programs onto the real rp-icilk work-stealing runtime.
//!
//! The abstract machine ([`crate::machine`]) executes programs step by step
//! under a simulated D-Par scheduler.  This module is the other back end:
//! it lowers a typechecked, fully priority-instantiated [`Program`] onto a
//! [`rp_icilk::runtime::Runtime`] that the calling thread keeps running
//! between programs of the same shape (see [`compile_and_run`]) —
//!
//! * each `fcreate[ρ; τ]{m}` becomes a real [`Runtime::fcreate`] task at
//!   the runtime level corresponding to `ρ`;
//! * `ftouch` becomes [`Runtime::ftouch`] (the helping, non-blocking join);
//! * `dcl` / `!` / `:=` / `cas` operate on a shared heap of λ⁴ᵢ values
//!   (one mutex-protected store; `cas` is atomic under it);
//! * the expression layer is evaluated by a big-step interpreter with the
//!   same substitution semantics as the machine, so both back ends compute
//!   identical values for deterministic programs.
//!
//! The main command itself runs as a task (at the program's main priority),
//! so a runtime started with tracing produces an [`ExecutionTrace`] in
//! which *every* λ⁴ᵢ thread is a traced task — `rp_core::trace` can then
//! reconstruct the observed cost DAG and check the Theorem 2.3 bound
//! against what the production scheduler actually did, next to the DAG the
//! abstract machine emitted for the same program (see `bench_lambda`).
//!
//! Priority domains embed into the runtime via
//! [`RuntimeConfig::for_domain`]: one runtime level per domain level in
//! topological order.  A partial order is linearised, which refines (never
//! violates) the program's `⪯` facts.
//!
//! A reused runtime hands each program its own trace epoch: the program's
//! trace is the batch of events recorded since the previous program
//! ([`Runtime::drain_trace_events`]), labelled with the program's own
//! level names.

use crate::syntax::{subst_arc, Cmd, Expr, LocId, PrimOp, Program};
use rp_core::trace::ExecutionTrace;
use rp_icilk::future::IFuture;
use rp_icilk::runtime::{Runtime, RuntimeConfig};
use rp_priority::Priority;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a compiled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileConfig {
    /// Number of runtime worker threads.
    pub workers: usize,
    /// Whether to record an execution trace for cost-graph reconstruction.
    pub tracing: bool,
    /// Seconds to wait for the runtime to drain after the main value is
    /// available (fire-and-forget threads may still be running).
    pub drain_secs: u64,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            workers: 2,
            tracing: true,
            drain_secs: 30,
        }
    }
}

/// Errors from lowering or executing a program on the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program still mentions free priority variables; run
    /// [`crate::typecheck::infer_program`] first.
    UnresolvedPriorities(Vec<String>),
    /// A task's evaluation got stuck (ill-typed input) or referenced a
    /// dangling symbol.
    Eval(EvalError),
    /// The runtime failed to drain within the configured timeout.
    DrainTimeout,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnresolvedPriorities(vs) => write!(
                f,
                "cannot compile with unresolved priority variables: {} (run priority inference first)",
                vs.join(", ")
            ),
            CompileError::Eval(e) => write!(f, "runtime evaluation failed: {e}"),
            CompileError::DrainTimeout => write!(f, "runtime did not drain in time"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Evaluation errors inside a lowered task.  Well-typed programs never
/// produce these (Progress, Theorem 3.3); the interpreter is defensive so
/// ill-typed inputs fail with a description rather than a worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// No evaluation rule applies.
    Stuck(String),
    /// A read/write targeted an unallocated location.
    DanglingLocation(u32),
    /// An `ftouch` targeted an unknown thread id.
    DanglingThread(u32),
    /// A priority was still a variable at spawn time.
    UnresolvedPriority(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stuck(msg) => write!(f, "stuck: {msg}"),
            EvalError::DanglingLocation(s) => write!(f, "dangling location s{s}"),
            EvalError::DanglingThread(a) => write!(f, "dangling thread a{a}"),
            EvalError::UnresolvedPriority(p) => {
                write!(f, "priority variable `{p}` reached the runtime unresolved")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The outcome of running a program on the rp-icilk runtime.
#[derive(Debug)]
pub struct RuntimeOutcome {
    /// The main thread's final value.
    pub value: Expr,
    /// The execution trace, when the run was traced.
    pub trace: Option<ExecutionTrace>,
    /// Number of λ⁴ᵢ threads spawned (including the main thread).
    pub threads_spawned: usize,
    /// The runtime level names, lowest first (the linearised domain).
    pub level_names: Vec<String>,
    /// Number of runtime workers used.
    pub workers: usize,
}

/// Type of the value a lowered task produces.
type TaskResult = Result<Expr, EvalError>;

/// The lowering context shared by every task of one compiled run.
#[derive(Clone)]
struct Lowerer {
    rt: Arc<Runtime>,
    /// The shared heap: λ⁴ᵢ reference cells.  One lock for the whole store
    /// keeps `cas` trivially atomic; λ⁴ᵢ state cells are coordination
    /// variables, not data-plane buffers, so contention is negligible.
    heap: Arc<Mutex<HashMap<u32, Expr>>>,
    /// Thread id → future of the task lowered for it.
    futures: Arc<Mutex<HashMap<u32, IFuture<TaskResult>>>>,
    next_loc: Arc<AtomicU32>,
    next_tid: Arc<AtomicU32>,
    /// Runtime priority per *domain* level index (the topological
    /// embedding).
    level_map: Arc<Vec<Priority>>,
}

impl Lowerer {
    fn runtime_prio(&self, domain_prio: Priority) -> Priority {
        self.level_map[domain_prio.index()]
    }

    /// Executes a command, returning its value.  Sequencing (`bind`, `dcl`)
    /// is iterative so long chains do not grow the worker stack.  A command
    /// no one else holds is taken apart by value; a shared one (the cached
    /// program's main command) is copied.
    fn exec(&self, m: Arc<Cmd>) -> TaskResult {
        let mut cur = Arc::unwrap_or_clone(m);
        loop {
            match cur {
                Cmd::Bind {
                    var,
                    expr,
                    mut rest,
                } => {
                    let v = self.eval(*expr)?;
                    match v {
                        Expr::CmdVal(_, inner) => {
                            let r = self.exec(inner)?;
                            subst_arc(&mut rest, &var, &r);
                            cur = Arc::unwrap_or_clone(rest);
                        }
                        other => {
                            return Err(EvalError::Stuck(format!("bind of non-command {other:?}")))
                        }
                    }
                }
                Cmd::Dcl {
                    var,
                    init,
                    mut body,
                    ..
                } => {
                    let v = self.eval(*init)?;
                    let loc = self.next_loc.fetch_add(1, Ordering::Relaxed);
                    self.heap.lock().expect("heap lock").insert(loc, v);
                    subst_arc(&mut body, &var, &Expr::RefVal(LocId(loc)));
                    cur = Arc::unwrap_or_clone(body);
                }
                Cmd::Fcreate { prio, body, .. } => {
                    let domain_prio = prio
                        .as_const()
                        .ok_or_else(|| EvalError::UnresolvedPriority(prio.to_string()))?;
                    let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                    let child = self.clone();
                    let future = self
                        .rt
                        .fcreate(self.runtime_prio(domain_prio), move || child.exec(body));
                    self.futures
                        .lock()
                        .expect("futures lock")
                        .insert(tid, future);
                    return Ok(Expr::Tid(crate::syntax::ThreadSym(tid)));
                }
                Cmd::Ftouch(e) => {
                    let v = self.eval(*e)?;
                    let tid = match v {
                        Expr::Tid(a) => a.0,
                        other => {
                            return Err(EvalError::Stuck(format!("ftouch of non-handle {other:?}")))
                        }
                    };
                    let future = self
                        .futures
                        .lock()
                        .expect("futures lock")
                        .get(&tid)
                        .cloned()
                        .ok_or(EvalError::DanglingThread(tid))?;
                    // The helping join: the worker runs other ready tasks
                    // while the touched value is unavailable.
                    return self.rt.ftouch(&future);
                }
                Cmd::Get(e) => {
                    let s = self.loc_of(&self.eval(*e)?, "read")?;
                    return self
                        .heap
                        .lock()
                        .expect("heap lock")
                        .get(&s)
                        .cloned()
                        .ok_or(EvalError::DanglingLocation(s));
                }
                Cmd::Set(target, value) => {
                    let s = self.loc_of(&self.eval(*target)?, "assignment")?;
                    let v = self.eval(*value)?;
                    let mut heap = self.heap.lock().expect("heap lock");
                    if !heap.contains_key(&s) {
                        return Err(EvalError::DanglingLocation(s));
                    }
                    heap.insert(s, v.clone());
                    return Ok(v);
                }
                Cmd::Cas {
                    target,
                    expected,
                    new,
                } => {
                    let s = self.loc_of(&self.eval(*target)?, "cas")?;
                    let expected = self.eval(*expected)?;
                    let new = self.eval(*new)?;
                    // Compare-and-swap is atomic under the store lock.
                    let mut heap = self.heap.lock().expect("heap lock");
                    let cell = heap.get_mut(&s).ok_or(EvalError::DanglingLocation(s))?;
                    return Ok(if *cell == expected {
                        *cell = new;
                        Expr::Nat(1)
                    } else {
                        Expr::Nat(0)
                    });
                }
                Cmd::Ret(e) => return self.eval(*e),
            }
        }
    }

    fn loc_of(&self, v: &Expr, what: &str) -> Result<u32, EvalError> {
        match v {
            Expr::RefVal(s) => Ok(s.0),
            other => Err(EvalError::Stuck(format!(
                "{what} of non-reference {other:?}"
            ))),
        }
    }

    /// Big-step evaluation of the pure expression layer, mirroring the
    /// machine's Figure 11 rules value for value.  The expression is
    /// consumed: every substitution rewrites a subterm it already owns.
    fn eval(&self, e: Expr) -> TaskResult {
        match e {
            Expr::Unit
            | Expr::Nat(_)
            | Expr::Lam(..)
            | Expr::RefVal(_)
            | Expr::Tid(_)
            | Expr::CmdVal(..)
            | Expr::PLam(..) => Ok(e),
            Expr::Var(x) => Err(EvalError::Stuck(format!("unbound variable `{x}`"))),
            Expr::Pair(a, b) => Ok(Expr::Pair(
                Box::new(self.eval(*a)?),
                Box::new(self.eval(*b)?),
            )),
            Expr::Inl(a) => Ok(Expr::Inl(Box::new(self.eval(*a)?))),
            Expr::Inr(a) => Ok(Expr::Inr(Box::new(self.eval(*a)?))),
            Expr::Let(x, e1, mut e2) => {
                let v1 = self.eval(*e1)?;
                e2.subst_in_place(&x, &v1);
                self.eval(*e2)
            }
            Expr::App(f, a) => {
                let vf = self.eval(*f)?;
                let va = self.eval(*a)?;
                match vf {
                    Expr::Lam(x, _, mut body) => {
                        body.subst_in_place(&x, &va);
                        self.eval(*body)
                    }
                    other => Err(EvalError::Stuck(format!("applied non-function {other:?}"))),
                }
            }
            Expr::Fst(v) => match self.eval(*v)? {
                Expr::Pair(a, _) => Ok(*a),
                other => Err(EvalError::Stuck(format!("fst of non-pair {other:?}"))),
            },
            Expr::Snd(v) => match self.eval(*v)? {
                Expr::Pair(_, b) => Ok(*b),
                other => Err(EvalError::Stuck(format!("snd of non-pair {other:?}"))),
            },
            Expr::Case(scrut, x, mut e1, y, mut e2) => match self.eval(*scrut)? {
                Expr::Inl(a) => {
                    e1.subst_in_place(&x, &a);
                    self.eval(*e1)
                }
                Expr::Inr(b) => {
                    e2.subst_in_place(&y, &b);
                    self.eval(*e2)
                }
                other => Err(EvalError::Stuck(format!("case of non-sum {other:?}"))),
            },
            Expr::Ifz(cond, zero, x, mut succ) => match self.eval(*cond)? {
                Expr::Nat(0) => self.eval(*zero),
                Expr::Nat(n) => {
                    succ.subst_in_place(&x, &Expr::Nat(n - 1));
                    self.eval(*succ)
                }
                other => Err(EvalError::Stuck(format!("ifz on non-natural {other:?}"))),
            },
            Expr::Fix(x, ty, body) => {
                let fix = Expr::Fix(x.clone(), ty, body.clone());
                let mut unrolled = *body;
                unrolled.subst_in_place(&x, &fix);
                self.eval(unrolled)
            }
            Expr::Prim(op, a, b) => match (self.eval(*a)?, self.eval(*b)?) {
                (Expr::Nat(a), Expr::Nat(b)) => {
                    let r = match op {
                        PrimOp::Add => a + b,
                        PrimOp::Sub => a.saturating_sub(b),
                        PrimOp::Mul => a * b,
                        PrimOp::Eq => u64::from(a == b),
                        PrimOp::Lt => u64::from(a < b),
                    };
                    Ok(Expr::Nat(r))
                }
                (a, b) => Err(EvalError::Stuck(format!(
                    "primitive on non-naturals {a:?}, {b:?}"
                ))),
            },
            Expr::PApp(v, p) => match self.eval(*v)? {
                Expr::PLam(pi, _, body) => self.eval(body.subst_prio(&pi, &p)),
                other => Err(EvalError::Stuck(format!(
                    "priority application of {other:?}"
                ))),
            },
        }
    }
}

/// What makes two programs able to share a runtime: worker count, level
/// count and whether the run is traced.  Level *names* are not part of it —
/// each program's trace is labelled with its own.
type Shape = (usize, usize, bool);

/// How many idle runtimes one thread keeps, whatever their shapes.  The
/// level count of a shape comes from the program's own `priorities:` line,
/// which a network client chooses, so the set needs a bound of its own: two
/// runtimes (about eight threads) cover a thread that alternates between
/// two domains, as the `lambda_pipeline` workload does.
const MAX_IDLE_RUNTIMES: usize = 2;

thread_local! {
    /// This thread's idle runtimes, least recently used first: at most
    /// [`MAX_IDLE_RUNTIMES`], and at most one per [`Shape`].
    ///
    /// A runtime goes back here after a clean drain and is shut down (its
    /// threads joined) when it is evicted or the thread exits, so a server
    /// worker or a test thread leaves no runtime threads behind.  An idle
    /// runtime's threads all park, its master included, so it holds threads
    /// but uses no CPU.
    static IDLE_RUNTIMES: RefCell<Vec<(Shape, Arc<Runtime>)>> = const { RefCell::new(Vec::new()) };
}

/// This thread's idle runtime of `shape`, if it has one.
fn take_idle(shape: Shape) -> Option<Arc<Runtime>> {
    IDLE_RUNTIMES
        .try_with(|idle| {
            let mut idle = idle.borrow_mut();
            let i = idle.iter().position(|(s, _)| *s == shape)?;
            Some(idle.remove(i).1)
        })
        .ok()
        .flatten()
}

/// Keeps a drained runtime for this thread's next program of `shape`.  The
/// runtime of this shape was taken out by [`take_idle`], so the set holds
/// none; when it is full the least recently used runtime is dropped, which
/// shuts it down.  When the thread is exiting, `rt` itself is dropped.
fn keep_idle(shape: Shape, rt: Arc<Runtime>) {
    let evicted = IDLE_RUNTIMES.try_with(|idle| {
        let mut idle = idle.borrow_mut();
        idle.push((shape, rt));
        (idle.len() > MAX_IDLE_RUNTIMES).then(|| idle.remove(0))
    });
    // Joined outside the borrow.
    drop(evicted);
}

/// Lowers a program onto an rp-icilk runtime and runs it to completion.
///
/// The runtime is the calling thread's idle one of the program's shape
/// (workers, level count, tracing), or a newly started one; after a clean
/// drain it is kept for the thread's next program of that shape, until the
/// thread exits or two more recently used shapes push it out.  Each
/// program gets a fresh trace epoch and its own heap, thread ids and level
/// names, so a reused runtime computes and traces exactly what a new one
/// would.
///
/// The program must be fully priority-instantiated (no free priority
/// variables) and should be well-typed — the runtime executes ill-typed
/// programs defensively but may, like the machine, produce priority
/// inversions the type system would have rejected.
///
/// Unlike the abstract machine, the runtime has no step limit: a program
/// whose *main* thread diverges blocks this call indefinitely (validate
/// termination on the machine first, as [`crate::pipeline`] does).  A
/// diverging *fire-and-forget* thread is bounded by `drain_secs`: the call
/// returns [`CompileError::DrainTimeout`] and deliberately leaks the
/// runtime (its workers cannot be joined while a task is stuck); it is
/// never reused.
///
/// # Errors
///
/// Returns a [`CompileError`] on unresolved priorities, evaluation
/// failures, or a drain timeout.
pub fn compile_and_run(
    prog: &Program,
    config: &CompileConfig,
) -> Result<RuntimeOutcome, CompileError> {
    let free = prog.free_prio_vars();
    if !free.is_empty() {
        return Err(CompileError::UnresolvedPriorities(
            free.into_iter().map(|v| v.name().to_string()).collect(),
        ));
    }

    // The topological embedding of the domain into runtime levels.
    let topo = prog.domain.topo_sorted();
    let level_names: Vec<String> = topo
        .iter()
        .map(|&p| prog.domain.name(p).to_string())
        .collect();
    let shape = (config.workers, topo.len(), config.tracing);
    let rt = take_idle(shape).unwrap_or_else(|| {
        Arc::new(Runtime::start(
            RuntimeConfig::for_domain(config.workers, &prog.domain).with_tracing(config.tracing),
        ))
    });
    let mut level_map = vec![Priority::from_index(0); prog.domain.len()];
    for (runtime_idx, &domain_prio) in topo.iter().enumerate() {
        level_map[domain_prio.index()] = rt
            .priority_by_index(runtime_idx)
            .expect("one runtime level per domain level");
    }

    let lowerer = Lowerer {
        rt: Arc::clone(&rt),
        heap: Arc::new(Mutex::new(HashMap::new())),
        futures: Arc::new(Mutex::new(HashMap::new())),
        next_loc: Arc::new(AtomicU32::new(0)),
        next_tid: Arc::new(AtomicU32::new(0)),
        level_map: Arc::new(level_map),
    };

    // The main command is itself a task, so a traced run reconstructs the
    // whole program (main included) as cost-graph threads.
    let main_tid = lowerer.next_tid.fetch_add(1, Ordering::Relaxed);
    let main_prio = lowerer.runtime_prio(prog.main_priority);
    let task = lowerer.clone();
    let main_cmd = Arc::clone(&prog.main);
    let main_future = rt.fcreate(main_prio, move || task.exec(main_cmd));
    lowerer
        .futures
        .lock()
        .expect("futures lock")
        .insert(main_tid, main_future.clone());

    let result = rt.ftouch_blocking(&main_future);
    // Fire-and-forget threads may still be running; wait for all of them so
    // the trace is complete.
    let drained = rt.drain(Duration::from_secs(config.drain_secs));
    let threads_spawned = lowerer.next_tid.load(Ordering::Relaxed) as usize;
    drop(lowerer);
    if !drained {
        // A task that may never finish holds a handle: joining the workers
        // would block on it, so the runtime is leaked, not kept or reused.
        std::mem::forget(rt);
        result.map_err(CompileError::Eval)?;
        return Err(CompileError::DrainTimeout);
    }
    // Everything recorded since the previous program, and only that: the
    // events of a failed run are taken too, so they never reach the next.
    let trace = rt.drain_trace_events().map(|batch| ExecutionTrace {
        events: batch.events,
        num_workers: config.workers.max(1),
        level_names: level_names.clone(),
    });
    keep_idle(shape, rt);

    Ok(RuntimeOutcome {
        value: result.map_err(CompileError::Eval)?,
        trace,
        threads_spawned,
        level_names,
        workers: config.workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progs;
    use crate::run::{run_program, RunConfig};
    use crate::typecheck::typecheck_program;

    fn quick(workers: usize) -> CompileConfig {
        CompileConfig {
            workers,
            tracing: true,
            drain_secs: 30,
        }
    }

    #[test]
    fn parallel_fib_matches_machine_value() {
        let prog = progs::parallel_fib(7);
        typecheck_program(&prog).unwrap();
        let machine = run_program(&prog, &RunConfig::default()).unwrap();
        let runtime = compile_and_run(&prog, &quick(2)).unwrap();
        assert_eq!(runtime.value, machine.value);
        assert_eq!(runtime.value, Expr::Nat(13));
        assert!(runtime.threads_spawned > 1, "fib(7) spawns futures");
    }

    #[test]
    fn state_and_cas_work_on_the_runtime() {
        let prog = progs::email_coordination_program();
        typecheck_program(&prog).unwrap();
        let out = compile_and_run(&prog, &quick(2)).unwrap();
        // The event loop returns 0; the fire-and-forget print/compress
        // threads ran to completion before drain returned.
        assert_eq!(out.value, Expr::Nat(0));
        assert_eq!(out.threads_spawned, 3);
        assert_eq!(out.level_names, vec!["compress", "print", "event"]);
    }

    #[test]
    fn traced_run_reconstructs_into_checked_cost_dag() {
        let prog = progs::server_with_background(2, 2);
        typecheck_program(&prog).unwrap();
        let out = compile_and_run(&prog, &quick(1)).unwrap();
        let trace = out.trace.expect("tracing was on");
        let run = trace.reconstruct().expect("trace reconstructs");
        // main + 2 requests + 2 background threads.
        assert_eq!(run.dag.thread_count(), 5);
        assert_eq!(run.skipped, 0);
        assert!(rp_core::wellformed::check_well_formed(&run.dag).is_ok());
        run.schedule.validate(&run.dag).expect("observed schedule");
        assert!(run.schedule.is_admissible(&run.dag));
        for report in run.check_replay(out.workers) {
            assert!(!report.report.is_counterexample(), "{report:?}");
        }
    }

    #[test]
    fn untraced_run_has_no_trace() {
        let prog = progs::parallel_fib(3);
        let out = compile_and_run(
            &prog,
            &CompileConfig {
                tracing: false,
                ..quick(1)
            },
        )
        .unwrap();
        assert!(out.trace.is_none());
    }

    #[test]
    fn unresolved_priorities_are_rejected_up_front() {
        use crate::syntax::dsl::*;
        use crate::syntax::Type;
        use rp_priority::{PrioTerm, PriorityDomain};
        let dom = PriorityDomain::numeric(1);
        let prog = Program {
            name: "open".into(),
            domain: dom.clone(),
            main_priority: dom.by_index(0),
            main: Arc::new(bind(
                "t",
                cmd(
                    dom.by_index(0),
                    fcreate(PrioTerm::var("pi"), Type::Nat, ret(nat(1))),
                ),
                ret(nat(0)),
            )),
            return_type: Type::Nat,
        };
        match compile_and_run(&prog, &quick(1)) {
            Err(CompileError::UnresolvedPriorities(vs)) => assert_eq!(vs, vec!["pi".to_string()]),
            other => panic!("expected UnresolvedPriorities, got {other:?}"),
        }
    }

    /// Main spawns 64 slow countdown threads it never touches, then returns
    /// at once: on one worker, a zero-second drain window closes while they
    /// are still queued behind main.  Per-thread work stays shallow (the
    /// big-step evaluator recurses on the worker stack).
    fn slow_background_program() -> Program {
        use crate::syntax::dsl::*;
        use crate::syntax::Type;
        use rp_priority::PriorityDomain;
        let dom = PriorityDomain::numeric(1);
        let p = dom.by_index(0);
        let slow = fix(
            "loop",
            Type::arrow(Type::Nat, Type::Nat),
            lam(
                "n",
                Type::Nat,
                ifz(
                    var("n"),
                    nat(0),
                    "m",
                    add(nat(1), app(var("loop"), var("m"))),
                ),
            ),
        );
        let mut body: Cmd = ret(nat(0));
        for i in 0..64 {
            body = bind(
                &format!("t{i}"),
                cmd(p, fcreate(p, Type::Nat, ret(app(slow.clone(), nat(40))))),
                body,
            );
        }
        Program {
            name: "slow-bg".into(),
            domain: dom,
            main_priority: p,
            main: Arc::new(body),
            return_type: Type::Nat,
        }
    }

    /// Regression test: with fire-and-forget work still in flight when the
    /// drain window closes, `compile_and_run` must return `DrainTimeout`
    /// promptly — the old shutdown path spun on `Arc::try_unwrap` forever
    /// because the running task's closure holds a runtime handle.
    #[test]
    fn drain_timeout_returns_instead_of_hanging() {
        let started = std::time::Instant::now();
        let result = compile_and_run(
            &slow_background_program(),
            &CompileConfig {
                workers: 1,
                tracing: false,
                drain_secs: 0,
            },
        );
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "compile_and_run must not hang past the drain window"
        );
        // Either the machine raced everything to completion (fine) or the
        // window closed with work pending — then the error must be
        // DrainTimeout, not a hang.
        if let Err(e) = result {
            assert_eq!(e, CompileError::DrainTimeout);
        }
    }

    /// The spawns in a traced outcome: one per λ⁴ᵢ thread of the run that
    /// produced it, and no other run's.
    fn spawns(out: &RuntimeOutcome) -> usize {
        let trace = out.trace.as_ref().expect("tracing was on");
        trace
            .events
            .iter()
            .filter(|e| matches!(e, rp_core::trace::TraceEvent::Spawn { .. }))
            .count()
    }

    /// The shapes of this thread's idle runtimes, least recently used first.
    fn idle_shapes() -> Vec<Shape> {
        IDLE_RUNTIMES.with(|idle| idle.borrow().iter().map(|(s, _)| *s).collect())
    }

    /// Programs of one, two and three levels interleaved on one thread,
    /// some on a reused runtime and some on one that replaced an evicted
    /// shape: each trace holds exactly its own program's threads.
    #[test]
    fn interleaved_shapes_keep_their_traces_apart() {
        let programs = [
            progs::parallel_fib(5),
            progs::server_with_background(2, 3),
            progs::email_coordination_program(),
        ];
        for (step, &i) in [0, 1, 0, 1, 2, 1, 2, 0, 2, 0].iter().enumerate() {
            let prog = &programs[i];
            let out = compile_and_run(prog, &quick(2)).unwrap();
            let label = format!("{} at step {step}", prog.name);
            assert_eq!(spawns(&out), out.threads_spawned, "{label}");
            let trace = out.trace.as_ref().unwrap();
            assert_eq!(trace.level_names, out.level_names, "{label}");
            let run = trace.reconstruct().expect("trace reconstructs");
            assert_eq!(run.dag.thread_count(), out.threads_spawned, "{label}");
            assert_eq!(run.skipped, 0, "{label}");
        }
        assert_eq!(idle_shapes(), vec![(2, 3, true), (2, 1, true)]);
    }

    /// A program whose domain has `levels` levels, as a client's
    /// `priorities:` line may declare: main returns at the lowest.
    fn program_with_levels(levels: usize) -> Program {
        use crate::syntax::dsl::*;
        use crate::syntax::Type;
        use rp_priority::PriorityDomain;
        let dom = PriorityDomain::numeric(levels);
        Program {
            name: format!("levels-{levels}"),
            main_priority: dom.by_index(0),
            domain: dom,
            main: Arc::new(ret(nat(levels as u64))),
            return_type: Type::Nat,
        }
    }

    /// However many level counts one thread's programs declare, it keeps
    /// at most [`MAX_IDLE_RUNTIMES`] idle runtimes: the most recently used.
    #[test]
    fn idle_runtimes_stay_within_their_bound() {
        for levels in 1..=8 {
            let out = compile_and_run(&program_with_levels(levels), &quick(1)).unwrap();
            assert_eq!(out.value, Expr::Nat(levels as u64));
            let kept = idle_shapes();
            assert!(kept.len() <= MAX_IDLE_RUNTIMES, "{kept:?}");
            assert_eq!(kept.last(), Some(&(1, levels, true)));
        }
        assert_eq!(idle_shapes(), vec![(1, 7, true), (1, 8, true)]);
    }

    /// After a drain timeout its runtime is never reused: the next program
    /// of the same shape succeeds, and its trace holds only its own tasks.
    #[test]
    fn a_program_after_a_drain_timeout_traces_only_itself() {
        let config = CompileConfig {
            workers: 1,
            tracing: true,
            drain_secs: 0,
        };
        // Either the window closed with work pending (the usual case) or
        // everything finished in time; the next program must not notice.
        match compile_and_run(&slow_background_program(), &config) {
            Err(e) => assert_eq!(e, CompileError::DrainTimeout),
            Ok(out) => assert_eq!(spawns(&out), 65),
        }
        let fib = progs::parallel_fib(5);
        let out = compile_and_run(
            &fib,
            &CompileConfig {
                drain_secs: 30,
                ..config
            },
        )
        .unwrap();
        assert_eq!(out.value, Expr::Nat(5));
        assert_eq!(spawns(&out), out.threads_spawned);
        let run = out
            .trace
            .unwrap()
            .reconstruct()
            .expect("trace reconstructs");
        assert_eq!(run.dag.thread_count(), out.threads_spawned);
        assert_eq!(run.skipped, 0);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<CompileError> = vec![
            CompileError::UnresolvedPriorities(vec!["pi".into()]),
            CompileError::Eval(EvalError::Stuck("x".into())),
            CompileError::Eval(EvalError::DanglingLocation(0)),
            CompileError::Eval(EvalError::DanglingThread(1)),
            CompileError::Eval(EvalError::UnresolvedPriority("pi".into())),
            CompileError::DrainTimeout,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
