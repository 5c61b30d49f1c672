//! The stack-based parallel abstract machine of λ⁴ᵢ (Figures 8–11).
//!
//! Each thread carries a stack of [`Frame`]s and a [`Control`] state
//! (`k ▷ e`, `k ◁ v`, `k ▶ m`, `k ◀ ret v`).  A single call to
//! [`Machine::step_thread`] performs one transition of the judgment
//! `σ | µ ⊗ a ↪ K ⇒ …` and, exactly as in the paper's cost semantics,
//! allocates one fresh cost-graph vertex for the step and records any
//! fcreate, ftouch, or weak edges it introduces.  The [`run`](crate::run)
//! driver implements the D-Par rule by stepping a policy-chosen subset of
//! threads per parallel step.
//!
//! Heap cells record, besides their value, the vertex that last wrote them
//! and the set of thread symbols the writer "knew about" — reads add a weak
//! edge from that vertex and merge the known set, exactly as rules D-Get2,
//! D-Dcl2, D-Set3 and D-CAS prescribe.

use crate::syntax::{subst_arc, Cmd, Expr, LocId, PrimOp, Program, ThreadSym, Type, Var};
use rp_core::build::DagBuilder;
use rp_core::graph::{CostDag, ThreadId as DagThreadId, VertexId};
use rp_priority::{PrioTerm, Priority, PriorityDomain};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Stack frames `f` (Figure 8), extended with the frames needed to evaluate
/// non-A-normal subterms and the CAS extension.
#[derive(Debug, Clone)]
pub enum Frame {
    /// `let x = – in e`.
    LetIn(Var, Expr),
    /// `– e` (the function position of an application).
    AppFn(Expr),
    /// `v –` (the argument position; holds the evaluated function).
    AppArg(Expr),
    /// `ifz – {e; x.e}`.
    IfzCond(Expr, Var, Expr),
    /// `fst –`.
    FstHole,
    /// `snd –`.
    SndHole,
    /// `case – {x.e; y.e}`.
    CaseScrut(Var, Expr, Var, Expr),
    /// `–[ρ]`.
    PAppHole(PrioTerm),
    /// `(–, e)`.
    PairL(Expr),
    /// `(v, –)`.
    PairR(Expr),
    /// `inl –`.
    InlHole,
    /// `inr –`.
    InrHole,
    /// `– ⊕ e`.
    PrimL(PrimOp, Expr),
    /// `v ⊕ –`.
    PrimR(PrimOp, Expr),
    /// `x ← –; m`.
    BindIn(Var, Arc<Cmd>),
    /// `ftouch –`.
    TouchHole,
    /// `dcl[τ] x := – in m`.
    DclIn(Type, Var, Arc<Cmd>),
    /// `!–`.
    GetHole,
    /// `– := e`.
    SetTarget(Expr),
    /// `ref[s] := –`.
    SetValue(LocId),
    /// `ret –`.
    RetHole,
    /// `cas(–, e, e)`.
    CasTarget(Expr, Expr),
    /// `cas(ref[s], –, e)`.
    CasExpected(LocId, Expr),
    /// `cas(ref[s], v, –)`.
    CasNew(LocId, Expr),
}

/// The machine's control state (Figure 8's stack states).
#[derive(Debug, Clone)]
pub enum Control {
    /// `k ▷ e` — popping an expression.
    EvalExpr(Expr),
    /// `k ◁ v` — pushing an expression value.
    RetExpr(Expr),
    /// `k ▶ m` — popping a command.
    EvalCmd(Arc<Cmd>),
    /// `k ◀ ret v` — pushing a command result.
    RetCmd(Expr),
}

/// A heap cell `s ↦ (v, u, Σ)`: the stored value, the vertex of the most
/// recent write, and the thread symbols the writer knew about.
///
/// Beyond the paper's triple, the cell also remembers the vertices that have
/// *read* it since the most recent write — the metadata a happens-before
/// race detector needs to pair every write with the reads it may race with.
#[derive(Debug, Clone)]
pub struct HeapCell {
    /// The stored value.
    pub value: Expr,
    /// The vertex that performed the most recent write.
    pub writer: VertexId,
    /// The threads the writer knew about at the time of the write.
    pub known: HashSet<ThreadSym>,
    /// Vertices that read the cell since the most recent write (including
    /// failed `cas` attempts, which observe the value), in execution order.
    pub readers: Vec<VertexId>,
}

impl HeapCell {
    /// The vertex of the most recent write to this cell (`dcl` allocation,
    /// `:=` assignment, or a successful `cas`).
    pub fn last_writer(&self) -> VertexId {
        self.writer
    }

    /// The vertices that read this cell since the most recent write (`!`
    /// reads and failed `cas` attempts), oldest first.  Cleared whenever a
    /// write installs a new value.
    pub fn last_readers(&self) -> &[VertexId] {
        &self.readers
    }

    /// The thread symbols the most recent writer knew about at the time of
    /// the write (the `Σ` component of the paper's heap triple).
    pub fn known_threads(&self) -> &HashSet<ThreadSym> {
        &self.known
    }
}

/// The shared-state interaction a single machine step performed, if any.
///
/// Purely thread-local transitions (expression evaluation, `bind`, `ret`)
/// record no effect; the effectful steps are exactly the rules that touch
/// the heap (`D-Dcl2`, `D-Get2`, `D-Set3`, `D-CAS`) or the thread pool
/// (`D-Create`, `D-Touch2`, thread completion).  The schedule explorer's
/// dependence relation and the happens-before race detector are both driven
/// by this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEffect {
    /// `dcl` allocated a fresh cell and wrote its initial value.
    Alloc(LocId),
    /// `!` read the cell.
    Read(LocId),
    /// `:=` wrote the cell.
    Write(LocId),
    /// `cas` observed the cell and, if `success`, installed a new value.
    Cas {
        /// The targeted cell.
        loc: LocId,
        /// Whether the expected value matched (the write happened).
        success: bool,
    },
    /// `fcreate` spawned the given thread.
    Spawn(ThreadSym),
    /// `ftouch` joined with the given finished thread.
    Touch(ThreadSym),
    /// The thread reached `ϵ ◀ ret v` and finished.
    Finish,
}

/// The full record of the most recent effectful step: which thread did what,
/// at which cost-graph vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepAccess {
    /// The thread that took the step.
    pub thread: ThreadSym,
    /// The cost-graph vertex allocated for the step.
    pub vertex: VertexId,
    /// What the step did.
    pub effect: StepEffect,
    /// The vertex label of the step (e.g. `"get-read"`), a stable site name.
    pub label: &'static str,
    /// How many effectful steps this thread had performed before this one —
    /// a schedule-independent ordinal identifying the access site, since a
    /// thread's own step sequence is deterministic.
    pub ordinal: usize,
}

/// What a thread's *next* transition will do to shared state, computed from
/// its control and stack without executing it.
///
/// This is the `next(s, p)` oracle of persistent-set (DPOR) exploration: the
/// machine's frames make the imminent heap or thread-pool interaction
/// syntactically evident one step ahead (e.g. a `SetValue(s)` frame under a
/// returned value means the next step writes `s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingEffect {
    /// The next step is thread-local.
    Local,
    /// The next step reads the cell.
    Read(LocId),
    /// The next step writes the cell.
    Write(LocId),
    /// The next step performs a `cas` on the cell (read, and possibly write).
    Cas(LocId),
    /// The next step joins with the given thread (blocking until it
    /// finishes).
    Touch(ThreadSym),
    /// The next step allocates a fresh cell.
    Alloc,
    /// The next step spawns a thread.
    Spawn,
    /// The next step finishes the thread.
    Finish,
}

/// Scheduling status of a thread, maintained incrementally by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    /// Can take a step right now.
    Runnable,
    /// Waiting on an `ftouch` of the given unfinished thread.
    Blocked(ThreadSym),
    /// Reached `ϵ ◀ ret v`.
    Done,
}

/// Per-thread machine state.
#[derive(Debug)]
pub struct ThreadEntry {
    /// The thread symbol `a`.
    pub sym: ThreadSym,
    /// The thread's priority `ρ`.
    pub priority: Priority,
    /// The corresponding thread of the cost graph being built.
    pub dag_thread: DagThreadId,
    /// The thread symbols this thread knows about (its signature `Σ_a`,
    /// restricted to threads).
    pub known: HashSet<ThreadSym>,
    /// The final value once the thread reaches `ϵ ◀ ret v`.
    pub done: Option<Expr>,
    /// The parallel step at which the thread was created.
    pub created_at_step: usize,
    /// The parallel step at which the thread finished, if it has.
    pub finished_at_step: Option<usize>,
    /// Number of cost-graph vertices this thread has executed.
    pub vertices_created: usize,
    /// Number of effectful steps recorded so far (the next access ordinal).
    effects: usize,
    stack: Vec<Frame>,
    control: Control,
}

impl ThreadEntry {
    /// Whether the thread has finished executing.
    pub fn is_done(&self) -> bool {
        self.done.is_some()
    }
}

/// The result of attempting to step one thread.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// The thread made a transition and executed the given cost-graph vertex.
    Progress(VertexId),
    /// The thread is blocked on an `ftouch` of the given unfinished thread.
    Blocked(ThreadSym),
    /// The thread had already finished.
    Finished,
}

/// Runtime errors: a well-typed program never triggers these (Progress,
/// Theorem 3.3), but the machine is defensive so ill-typed terms fail with a
/// description rather than a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The machine reached a state no rule applies to.
    Stuck {
        /// The thread that got stuck.
        thread: ThreadSym,
        /// A description of the offending state.
        state: String,
    },
    /// A priority that should have been concrete at runtime was still a
    /// variable.
    UnresolvedPriority(String),
    /// A read or write targeted an unknown location.
    DanglingLocation(LocId),
    /// An `ftouch` targeted an unknown thread symbol.
    DanglingThread(ThreadSym),
    /// The run exceeded the configured maximum number of parallel steps.
    StepLimitExceeded(usize),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Stuck { thread, state } => {
                write!(f, "thread {thread} is stuck: {state}")
            }
            MachineError::UnresolvedPriority(p) => {
                write!(f, "priority variable `{p}` reached runtime unresolved")
            }
            MachineError::DanglingLocation(s) => write!(f, "dangling memory location {s}"),
            MachineError::DanglingThread(a) => write!(f, "dangling thread symbol {a}"),
            MachineError::StepLimitExceeded(n) => {
                write!(f, "execution exceeded the {n}-step limit")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The parallel abstract machine: thread pool `µ`, heap `σ`, and the cost
/// graph under construction.
#[derive(Debug)]
pub struct Machine {
    domain: PriorityDomain,
    threads: Vec<ThreadEntry>,
    heap: HashMap<LocId, HeapCell>,
    next_loc: u32,
    builder: DagBuilder,
    /// Per-thread scheduling status, maintained incrementally so the
    /// runnable set never has to be recomputed by filtering all threads.
    status: Vec<ThreadStatus>,
    /// The runnable threads, sorted by symbol.  Kept in sync with `status`:
    /// threads are inserted on spawn and wake-up, removed on block and
    /// finish — replay loops over thousands of schedules stay linear in the
    /// number of *transitions*, not `steps × threads`.
    runnable: Vec<ThreadSym>,
    /// For each unfinished thread, the threads blocked on touching it.
    waiters: HashMap<ThreadSym, Vec<ThreadSym>>,
    /// The effect record of the most recent step, if it was effectful.
    last_access: Option<StepAccess>,
    /// The initial thread.
    pub main: ThreadSym,
}

impl Machine {
    /// Loads a program into a fresh machine with a single initial thread.
    pub fn new(program: &Program) -> Self {
        let mut builder = DagBuilder::new(program.domain.clone());
        let dag_thread = builder.thread("main", program.main_priority);
        let main_sym = ThreadSym(0);
        let main_entry = ThreadEntry {
            sym: main_sym,
            priority: program.main_priority,
            dag_thread,
            known: HashSet::new(),
            done: None,
            created_at_step: 0,
            finished_at_step: None,
            vertices_created: 0,
            effects: 0,
            stack: Vec::new(),
            control: Control::EvalCmd(program.main.clone()),
        };
        Machine {
            domain: program.domain.clone(),
            threads: vec![main_entry],
            heap: HashMap::new(),
            next_loc: 0,
            builder,
            status: vec![ThreadStatus::Runnable],
            runnable: vec![main_sym],
            waiters: HashMap::new(),
            last_access: None,
            main: main_sym,
        }
    }

    /// The priority domain of the loaded program.
    pub fn domain(&self) -> &PriorityDomain {
        &self.domain
    }

    /// All thread symbols currently in the pool.
    pub fn thread_syms(&self) -> Vec<ThreadSym> {
        self.threads.iter().map(|t| t.sym).collect()
    }

    /// Access to a thread's entry.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not created by this machine.
    pub fn thread(&self, sym: ThreadSym) -> &ThreadEntry {
        &self.threads[sym.0 as usize]
    }

    /// Whether every thread has finished.
    pub fn all_done(&self) -> bool {
        self.threads.iter().all(|t| t.is_done())
    }

    /// The final value of the main thread, if it has finished.
    pub fn main_value(&self) -> Option<&Expr> {
        self.threads[self.main.0 as usize].done.as_ref()
    }

    /// Threads that can take a step right now: not finished and not blocked
    /// on an unfinished `ftouch`.  Sorted by symbol.
    ///
    /// The set is maintained incrementally (updated on spawn, block, wake-up
    /// and finish), so this accessor is O(1) — it does not rescan the thread
    /// pool.
    pub fn runnable(&self) -> &[ThreadSym] {
        &self.runnable
    }

    /// If the thread is blocked on an `ftouch`, the thread it is waiting for.
    pub fn blocked_on(&self, sym: ThreadSym) -> Option<ThreadSym> {
        match self.status[sym.0 as usize] {
            ThreadStatus::Blocked(b) => Some(b),
            ThreadStatus::Runnable | ThreadStatus::Done => None,
        }
    }

    /// The effect record of the most recent [`step_thread`](Self::step_thread)
    /// call, if that step interacted with the heap or the thread pool.
    /// Cleared at the start of every step.
    pub fn last_step_access(&self) -> Option<&StepAccess> {
        self.last_access.as_ref()
    }

    /// Read access to a heap cell, including its last-writer vertex, the
    /// reads since that write, and the writer's known-thread set.
    ///
    /// Returns `None` for locations this machine never allocated.
    pub fn heap_cell(&self, loc: LocId) -> Option<&HeapCell> {
        self.heap.get(&loc)
    }

    /// All live heap cells, in unspecified order.
    pub fn heap_cells(&self) -> impl Iterator<Item = (LocId, &HeapCell)> {
        self.heap.iter().map(|(l, c)| (*l, c))
    }

    /// What thread `sym`'s next transition will do to shared state, computed
    /// from its control state without executing anything.  Returns `None`
    /// for finished threads.
    ///
    /// A [`PendingEffect::Touch`] of an unfinished thread means `sym` is (or
    /// is about to become) blocked.
    pub fn pending_effect(&self, sym: ThreadSym) -> Option<PendingEffect> {
        let t = &self.threads[sym.0 as usize];
        if t.is_done() {
            return None;
        }
        Some(match (&t.control, t.stack.last()) {
            (Control::RetExpr(v), Some(frame)) => match (frame, v) {
                (Frame::GetHole, Expr::RefVal(s)) => PendingEffect::Read(*s),
                (Frame::SetValue(s), _) => PendingEffect::Write(*s),
                (Frame::CasNew(s, _), _) => PendingEffect::Cas(*s),
                (Frame::TouchHole, Expr::Tid(b)) => PendingEffect::Touch(*b),
                (Frame::DclIn(_, _, _), _) => PendingEffect::Alloc,
                _ => PendingEffect::Local,
            },
            (Control::EvalCmd(m), _) => match m.as_ref() {
                Cmd::Fcreate { .. } => PendingEffect::Spawn,
                _ => PendingEffect::Local,
            },
            (Control::RetCmd(_), None) => PendingEffect::Finish,
            _ => PendingEffect::Local,
        })
    }

    /// Inserts a thread into the sorted runnable set.
    fn runnable_insert(&mut self, sym: ThreadSym) {
        if let Err(i) = self.runnable.binary_search(&sym) {
            self.runnable.insert(i, sym);
        }
    }

    /// Removes a thread from the sorted runnable set.
    fn runnable_remove(&mut self, sym: ThreadSym) {
        if let Ok(i) = self.runnable.binary_search(&sym) {
            self.runnable.remove(i);
        }
    }

    /// Recomputes whether thread `idx` just blocked on a touch: its control
    /// holds a thread handle under a `TouchHole` frame and the target is
    /// unfinished.
    fn touch_block_target(&self, idx: usize) -> Option<ThreadSym> {
        let t = &self.threads[idx];
        if let (Control::RetExpr(Expr::Tid(b)), Some(Frame::TouchHole)) =
            (&t.control, t.stack.last())
        {
            let target = self.threads.get(b.0 as usize)?;
            if !target.is_done() {
                return Some(*b);
            }
        }
        None
    }

    /// Records the shared-state effect of the step that allocated `vertex`.
    fn record_effect(
        &mut self,
        idx: usize,
        vertex: VertexId,
        label: &'static str,
        effect: StepEffect,
    ) {
        let ordinal = self.threads[idx].effects;
        self.threads[idx].effects += 1;
        self.last_access = Some(StepAccess {
            thread: self.threads[idx].sym,
            vertex,
            effect,
            label,
            ordinal,
        });
    }

    /// Performs one transition of thread `sym` (one auxiliary-judgment step
    /// of Figures 9–11), allocating one cost-graph vertex if the thread
    /// progresses.
    ///
    /// `step_index` is the index of the current parallel step; it is recorded
    /// for threads created or finished during this transition.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if the thread is stuck (only possible for
    /// ill-typed programs) or mentions dangling symbols.
    pub fn step_thread(
        &mut self,
        sym: ThreadSym,
        step_index: usize,
    ) -> Result<StepOutcome, MachineError> {
        let idx = sym.0 as usize;
        self.last_access = None;
        match self.status[idx] {
            ThreadStatus::Done => return Ok(StepOutcome::Finished),
            ThreadStatus::Blocked(b) => return Ok(StepOutcome::Blocked(b)),
            ThreadStatus::Runnable => {}
        }

        // Take the control out to appease the borrow checker; it is always
        // put back (or the thread is marked done) before returning.
        let control =
            std::mem::replace(&mut self.threads[idx].control, Control::RetExpr(Expr::Unit));
        let outcome = self.transition(idx, control, step_index);
        match outcome {
            Ok(vertex) => {
                // Maintain the incremental runnable set: the step may have
                // finished the thread (waking its waiters) or blocked it on
                // an unfinished touch target.
                if self.threads[idx].is_done() {
                    self.status[idx] = ThreadStatus::Done;
                    self.runnable_remove(sym);
                    if let Some(ws) = self.waiters.remove(&sym) {
                        for w in ws {
                            self.status[w.0 as usize] = ThreadStatus::Runnable;
                            self.runnable_insert(w);
                        }
                    }
                } else if let Some(b) = self.touch_block_target(idx) {
                    self.status[idx] = ThreadStatus::Blocked(b);
                    self.runnable_remove(sym);
                    self.waiters.entry(b).or_default().push(sym);
                }
                Ok(StepOutcome::Progress(vertex))
            }
            Err(e) => Err(e),
        }
    }

    /// Allocates the fresh vertex for a step of thread `idx`.
    fn fresh_vertex(&mut self, idx: usize, label: &'static str) -> VertexId {
        let dag_thread = self.threads[idx].dag_thread;
        self.threads[idx].vertices_created += 1;
        self.builder.vertex_labeled(dag_thread, Some(label))
    }

    fn stuck<T>(&self, idx: usize, msg: impl Into<String>) -> Result<T, MachineError> {
        Err(MachineError::Stuck {
            thread: self.threads[idx].sym,
            state: msg.into(),
        })
    }

    /// One transition.  Returns the vertex allocated for the step.
    fn transition(
        &mut self,
        idx: usize,
        control: Control,
        step_index: usize,
    ) -> Result<VertexId, MachineError> {
        match control {
            Control::EvalCmd(m) => self.step_cmd(idx, m, step_index),
            Control::EvalExpr(e) => self.step_expr_eval(idx, e),
            Control::RetExpr(v) => self.step_expr_return(idx, v, step_index),
            Control::RetCmd(v) => self.step_cmd_return(idx, v, step_index),
        }
    }

    /// `k ▶ m` transitions (Figure 9, "pop command").
    fn step_cmd(
        &mut self,
        idx: usize,
        m: Arc<Cmd>,
        step_index: usize,
    ) -> Result<VertexId, MachineError> {
        // A command no one else holds is taken apart by value; a shared one
        // (a cached program, a replayed schedule's continuation) is copied.
        match Arc::unwrap_or_clone(m) {
            Cmd::Bind { var, expr, rest } => {
                // D-Bind1.
                let u = self.fresh_vertex(idx, "bind");
                self.threads[idx].stack.push(Frame::BindIn(var, rest));
                self.threads[idx].control = Control::EvalExpr(*expr);
                Ok(u)
            }
            Cmd::Fcreate {
                prio,
                ret_type: _,
                body,
            } => {
                // D-Create.
                let u = self.fresh_vertex(idx, "fcreate");
                let prio = match prio.as_const() {
                    Some(p) => p,
                    None => {
                        return Err(MachineError::UnresolvedPriority(prio.to_string()));
                    }
                };
                let new_sym = ThreadSym(self.threads.len() as u32);
                let dag_thread = self.builder.thread(format!("thread-{}", new_sym.0), prio);
                // The child inherits the parent's signature (known threads).
                let mut known = self.threads[idx].known.clone();
                known.insert(new_sym);
                let entry = ThreadEntry {
                    sym: new_sym,
                    priority: prio,
                    dag_thread,
                    known,
                    done: None,
                    created_at_step: step_index,
                    finished_at_step: None,
                    vertices_created: 0,
                    effects: 0,
                    stack: Vec::new(),
                    control: Control::EvalCmd(body),
                };
                self.threads.push(entry);
                self.status.push(ThreadStatus::Runnable);
                self.runnable_insert(new_sym);
                self.builder
                    .fcreate(u, dag_thread)
                    .expect("fresh thread has no creator yet");
                // The parent learns about the new thread and returns its
                // handle.
                self.threads[idx].known.insert(new_sym);
                self.threads[idx].control = Control::RetCmd(Expr::Tid(new_sym));
                self.record_effect(idx, u, "fcreate", StepEffect::Spawn(new_sym));
                Ok(u)
            }
            Cmd::Ftouch(e) => {
                // D-Touch1.
                let u = self.fresh_vertex(idx, "ftouch");
                self.threads[idx].stack.push(Frame::TouchHole);
                self.threads[idx].control = Control::EvalExpr(*e);
                Ok(u)
            }
            Cmd::Dcl {
                ty,
                var,
                init,
                body,
            } => {
                // D-Dcl1.
                let u = self.fresh_vertex(idx, "dcl");
                self.threads[idx].stack.push(Frame::DclIn(ty, var, body));
                self.threads[idx].control = Control::EvalExpr(*init);
                Ok(u)
            }
            Cmd::Get(e) => {
                // D-Get1.
                let u = self.fresh_vertex(idx, "get");
                self.threads[idx].stack.push(Frame::GetHole);
                self.threads[idx].control = Control::EvalExpr(*e);
                Ok(u)
            }
            Cmd::Set(target, value) => {
                // D-Set1.
                let u = self.fresh_vertex(idx, "set");
                self.threads[idx].stack.push(Frame::SetTarget(*value));
                self.threads[idx].control = Control::EvalExpr(*target);
                Ok(u)
            }
            Cmd::Ret(e) => {
                // D-Ret1.
                let u = self.fresh_vertex(idx, "ret");
                self.threads[idx].stack.push(Frame::RetHole);
                self.threads[idx].control = Control::EvalExpr(*e);
                Ok(u)
            }
            Cmd::Cas {
                target,
                expected,
                new,
            } => {
                let u = self.fresh_vertex(idx, "cas");
                self.threads[idx]
                    .stack
                    .push(Frame::CasTarget(*expected, *new));
                self.threads[idx].control = Control::EvalExpr(*target);
                Ok(u)
            }
        }
    }

    /// `k ▷ e` transitions (Figure 11 and rule D-Exp).
    fn step_expr_eval(&mut self, idx: usize, e: Expr) -> Result<VertexId, MachineError> {
        let u = self.fresh_vertex(idx, "expr");
        if e.is_value() {
            self.threads[idx].control = Control::RetExpr(e);
            return Ok(u);
        }
        let t = &mut self.threads[idx];
        match e {
            Expr::Let(x, e1, e2) => {
                t.stack.push(Frame::LetIn(x, *e2));
                t.control = Control::EvalExpr(*e1);
            }
            Expr::App(f, a) => {
                if f.is_value() {
                    t.stack.push(Frame::AppArg(*f));
                    t.control = Control::EvalExpr(*a);
                } else {
                    t.stack.push(Frame::AppFn(*a));
                    t.control = Control::EvalExpr(*f);
                }
            }
            Expr::Ifz(c, z, x, s) => {
                t.stack.push(Frame::IfzCond(*z, x, *s));
                t.control = Control::EvalExpr(*c);
            }
            Expr::Fst(v) => {
                t.stack.push(Frame::FstHole);
                t.control = Control::EvalExpr(*v);
            }
            Expr::Snd(v) => {
                t.stack.push(Frame::SndHole);
                t.control = Control::EvalExpr(*v);
            }
            Expr::Case(scrut, x, e1, y, e2) => {
                t.stack.push(Frame::CaseScrut(x, *e1, y, *e2));
                t.control = Control::EvalExpr(*scrut);
            }
            Expr::PApp(v, p) => {
                t.stack.push(Frame::PAppHole(p));
                t.control = Control::EvalExpr(*v);
            }
            Expr::Fix(x, ty, body) => {
                // fix x:τ is e  ↦  [fix x:τ is e / x] e.
                let fix = Expr::Fix(x.clone(), ty, body.clone());
                let mut unrolled = *body;
                unrolled.subst_in_place(&x, &fix);
                t.control = Control::EvalExpr(unrolled);
            }
            Expr::Pair(a, b) => {
                t.stack.push(Frame::PairL(*b));
                t.control = Control::EvalExpr(*a);
            }
            Expr::Inl(v) => {
                t.stack.push(Frame::InlHole);
                t.control = Control::EvalExpr(*v);
            }
            Expr::Inr(v) => {
                t.stack.push(Frame::InrHole);
                t.control = Control::EvalExpr(*v);
            }
            Expr::Prim(op, a, b) => {
                t.stack.push(Frame::PrimL(op, *b));
                t.control = Control::EvalExpr(*a);
            }
            other => {
                let msg = format!("cannot evaluate expression {other:?}");
                return self.stuck(idx, msg);
            }
        }
        Ok(u)
    }

    /// `k ◁ v` transitions: an expression value meets the top stack frame.
    fn step_expr_return(
        &mut self,
        idx: usize,
        v: Expr,
        _step_index: usize,
    ) -> Result<VertexId, MachineError> {
        // The frame is popped by value; the rules that keep it (D-Bind2, a
        // touch that cannot proceed) push it back.
        let Some(frame) = self.threads[idx].stack.pop() else {
            return self.stuck(idx, "value returned to an empty stack");
        };
        match frame {
            // ----- expression frames -----
            Frame::LetIn(x, mut e2) => {
                let u = self.fresh_vertex(idx, "let");
                e2.subst_in_place(&x, &v);
                self.threads[idx].control = Control::EvalExpr(e2);
                Ok(u)
            }
            Frame::AppFn(arg) => {
                let u = self.fresh_vertex(idx, "app-fn");
                self.threads[idx].stack.push(Frame::AppArg(v));
                self.threads[idx].control = Control::EvalExpr(arg);
                Ok(u)
            }
            Frame::AppArg(fun) => {
                let u = self.fresh_vertex(idx, "app");
                match fun {
                    Expr::Lam(x, _ty, mut body) => {
                        body.subst_in_place(&x, &v);
                        self.threads[idx].control = Control::EvalExpr(*body);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("applied non-function {other:?}")),
                }
            }
            Frame::IfzCond(zero, x, mut succ) => {
                let u = self.fresh_vertex(idx, "ifz");
                match v {
                    Expr::Nat(0) => {
                        self.threads[idx].control = Control::EvalExpr(zero);
                        Ok(u)
                    }
                    Expr::Nat(n) => {
                        succ.subst_in_place(&x, &Expr::Nat(n - 1));
                        self.threads[idx].control = Control::EvalExpr(succ);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("ifz on non-natural {other:?}")),
                }
            }
            Frame::FstHole => {
                let u = self.fresh_vertex(idx, "fst");
                match v {
                    Expr::Pair(a, _) => {
                        self.threads[idx].control = Control::RetExpr(*a);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("fst of non-pair {other:?}")),
                }
            }
            Frame::SndHole => {
                let u = self.fresh_vertex(idx, "snd");
                match v {
                    Expr::Pair(_, b) => {
                        self.threads[idx].control = Control::RetExpr(*b);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("snd of non-pair {other:?}")),
                }
            }
            Frame::CaseScrut(x, mut e1, y, mut e2) => {
                let u = self.fresh_vertex(idx, "case");
                match v {
                    Expr::Inl(a) => {
                        e1.subst_in_place(&x, &a);
                        self.threads[idx].control = Control::EvalExpr(e1);
                        Ok(u)
                    }
                    Expr::Inr(b) => {
                        e2.subst_in_place(&y, &b);
                        self.threads[idx].control = Control::EvalExpr(e2);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("case of non-sum {other:?}")),
                }
            }
            Frame::PAppHole(p) => {
                let u = self.fresh_vertex(idx, "papp");
                match v {
                    Expr::PLam(pi, _c, body) => {
                        self.threads[idx].control = Control::EvalExpr(body.subst_prio(&pi, &p));
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("priority application of {other:?}")),
                }
            }
            Frame::PairL(b) => {
                let u = self.fresh_vertex(idx, "pair-l");
                self.threads[idx].stack.push(Frame::PairR(v));
                self.threads[idx].control = Control::EvalExpr(b);
                Ok(u)
            }
            Frame::PairR(a) => {
                let u = self.fresh_vertex(idx, "pair");
                self.threads[idx].control = Control::RetExpr(Expr::Pair(Box::new(a), Box::new(v)));
                Ok(u)
            }
            Frame::InlHole => {
                let u = self.fresh_vertex(idx, "inl");
                self.threads[idx].control = Control::RetExpr(Expr::Inl(Box::new(v)));
                Ok(u)
            }
            Frame::InrHole => {
                let u = self.fresh_vertex(idx, "inr");
                self.threads[idx].control = Control::RetExpr(Expr::Inr(Box::new(v)));
                Ok(u)
            }
            Frame::PrimL(op, rhs) => {
                let u = self.fresh_vertex(idx, "prim-l");
                self.threads[idx].stack.push(Frame::PrimR(op, v));
                self.threads[idx].control = Control::EvalExpr(rhs);
                Ok(u)
            }
            Frame::PrimR(op, lhs) => {
                let u = self.fresh_vertex(idx, "prim");
                match (lhs, v) {
                    (Expr::Nat(a), Expr::Nat(b)) => {
                        let r = match op {
                            PrimOp::Add => a + b,
                            PrimOp::Sub => a.saturating_sub(b),
                            PrimOp::Mul => a * b,
                            PrimOp::Eq => u64::from(a == b),
                            PrimOp::Lt => u64::from(a < b),
                        };
                        self.threads[idx].control = Control::RetExpr(Expr::Nat(r));
                        Ok(u)
                    }
                    (a, b) => self.stuck(idx, format!("primitive on non-naturals {a:?}, {b:?}")),
                }
            }
            // ----- command frames -----
            frame @ Frame::BindIn(_, _) => {
                // D-Bind2: the value must be an encapsulated command; start
                // running it, keeping the frame for D-Bind3.
                let u = self.fresh_vertex(idx, "bind-run");
                self.threads[idx].stack.push(frame);
                match v {
                    Expr::CmdVal(_p, m) => {
                        self.threads[idx].control = Control::EvalCmd(m);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("bind of non-command {other:?}")),
                }
            }
            Frame::TouchHole => {
                // D-Touch2 (the blocked case is filtered in `step_thread`).
                match v {
                    Expr::Tid(b) => {
                        let target_idx = b.0 as usize;
                        if target_idx >= self.threads.len() {
                            return Err(MachineError::DanglingThread(b));
                        }
                        let (value, target_known, target_dag) = {
                            let target = &self.threads[target_idx];
                            match &target.done {
                                Some(val) => (val.clone(), target.known.clone(), target.dag_thread),
                                None => {
                                    // Not actually runnable; restore state.
                                    self.threads[idx].stack.push(Frame::TouchHole);
                                    self.threads[idx].control = Control::RetExpr(Expr::Tid(b));
                                    return self.stuck(
                                        idx,
                                        "touch of unfinished thread reached transition",
                                    );
                                }
                            }
                        };
                        let u = self.fresh_vertex(idx, "touch");
                        self.threads[idx].known.extend(target_known);
                        self.threads[idx].control = Control::RetCmd(value);
                        self.builder
                            .ftouch(target_dag, u)
                            .expect("touching a different thread");
                        self.record_effect(idx, u, "touch", StepEffect::Touch(b));
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("ftouch of non-handle {other:?}")),
                }
            }
            Frame::DclIn(_ty, var, mut body) => {
                // D-Dcl2.
                let u = self.fresh_vertex(idx, "dcl-alloc");
                let loc = LocId(self.next_loc);
                self.next_loc += 1;
                let known = self.threads[idx].known.clone();
                self.heap.insert(
                    loc,
                    HeapCell {
                        value: v,
                        writer: u,
                        known,
                        readers: Vec::new(),
                    },
                );
                subst_arc(&mut body, &var, &Expr::RefVal(loc));
                self.threads[idx].control = Control::EvalCmd(body);
                self.record_effect(idx, u, "dcl-alloc", StepEffect::Alloc(loc));
                Ok(u)
            }
            Frame::GetHole => {
                // D-Get2.
                match v {
                    Expr::RefVal(s) => {
                        let u = self.fresh_vertex(idx, "get-read");
                        let cell = self
                            .heap
                            .get_mut(&s)
                            .ok_or(MachineError::DanglingLocation(s))?;
                        self.threads[idx].known.extend(cell.known.iter().copied());
                        self.threads[idx].control = Control::RetCmd(cell.value.clone());
                        // The weak edge from the most recent write to this
                        // read.  A read of a cell written by the same thread
                        // is already ordered by continuation edges; the
                        // builder would reject a self-loop only if the writer
                        // were this very vertex, which cannot happen.
                        self.builder
                            .weak(cell.writer, u)
                            .expect("read vertex is fresh");
                        cell.readers.push(u);
                        self.record_effect(idx, u, "get-read", StepEffect::Read(s));
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("read of non-reference {other:?}")),
                }
            }
            Frame::SetTarget(value_expr) => {
                // D-Set2.
                match v {
                    Expr::RefVal(s) => {
                        let u = self.fresh_vertex(idx, "set-target");
                        self.threads[idx].stack.push(Frame::SetValue(s));
                        self.threads[idx].control = Control::EvalExpr(value_expr);
                        Ok(u)
                    }
                    other => self.stuck(idx, format!("assignment to non-reference {other:?}")),
                }
            }
            Frame::SetValue(s) => {
                // D-Set3.
                let u = self.fresh_vertex(idx, "set-write");
                if !self.heap.contains_key(&s) {
                    return Err(MachineError::DanglingLocation(s));
                }
                let known = self.threads[idx].known.clone();
                self.heap.insert(
                    s,
                    HeapCell {
                        value: v.clone(),
                        writer: u,
                        readers: Vec::new(),
                        known,
                    },
                );
                self.threads[idx].control = Control::RetCmd(v);
                self.record_effect(idx, u, "set-write", StepEffect::Write(s));
                Ok(u)
            }
            Frame::RetHole => {
                // D-Ret2.
                let u = self.fresh_vertex(idx, "ret-value");
                self.threads[idx].control = Control::RetCmd(v);
                Ok(u)
            }
            Frame::CasTarget(expected, new) => match v {
                Expr::RefVal(s) => {
                    let u = self.fresh_vertex(idx, "cas-target");
                    self.threads[idx].stack.push(Frame::CasExpected(s, new));
                    self.threads[idx].control = Control::EvalExpr(expected);
                    Ok(u)
                }
                other => self.stuck(idx, format!("cas on non-reference {other:?}")),
            },
            Frame::CasExpected(s, new) => {
                let u = self.fresh_vertex(idx, "cas-expected");
                self.threads[idx].stack.push(Frame::CasNew(s, v));
                self.threads[idx].control = Control::EvalExpr(new);
                Ok(u)
            }
            Frame::CasNew(s, expected) => {
                // D-CAS1 / D-CAS2.
                let u = self.fresh_vertex(idx, "cas-apply");
                let cell = self
                    .heap
                    .get_mut(&s)
                    .ok_or(MachineError::DanglingLocation(s))?;
                // A CAS observes the current value, so it behaves like a read
                // (weak edge + signature merge) whether or not it succeeds.
                self.threads[idx].known.extend(cell.known.iter().copied());
                self.builder
                    .weak(cell.writer, u)
                    .expect("cas vertex is fresh");
                let success = cell.value == expected;
                if success {
                    *cell = HeapCell {
                        value: v,
                        writer: u,
                        readers: Vec::new(),
                        known: self.threads[idx].known.clone(),
                    };
                    self.threads[idx].control = Control::RetCmd(Expr::Nat(1));
                } else {
                    // A failed CAS still observed the cell, so it counts as
                    // a reader of the surviving write.
                    cell.readers.push(u);
                    self.threads[idx].control = Control::RetCmd(Expr::Nat(0));
                }
                self.record_effect(idx, u, "cas-apply", StepEffect::Cas { loc: s, success });
                Ok(u)
            }
        }
    }

    /// `k ◀ ret v` transitions (D-Bind3 or thread completion).
    fn step_cmd_return(
        &mut self,
        idx: usize,
        v: Expr,
        step_index: usize,
    ) -> Result<VertexId, MachineError> {
        match self.threads[idx].stack.pop() {
            None => {
                // ϵ ◀ ret v: the thread is finished.  The finishing step
                // itself allocates a final vertex so every thread has at
                // least one vertex and `ftouch` edges have a well-defined
                // source.
                let u = self.fresh_vertex(idx, "finish");
                self.threads[idx].done = Some(v.clone());
                self.threads[idx].finished_at_step = Some(step_index);
                self.threads[idx].control = Control::RetCmd(v);
                self.record_effect(idx, u, "finish", StepEffect::Finish);
                Ok(u)
            }
            Some(Frame::BindIn(x, mut m2)) => {
                // D-Bind3.
                let u = self.fresh_vertex(idx, "bind-continue");
                subst_arc(&mut m2, &x, &v);
                self.threads[idx].control = Control::EvalCmd(m2);
                Ok(u)
            }
            Some(other) => self.stuck(
                idx,
                format!("command result returned to unexpected frame {other:?}"),
            ),
        }
    }

    /// Finishes the run: consumes the machine and produces the cost graph.
    ///
    /// # Errors
    ///
    /// Returns the underlying builder error if the graph is malformed (which
    /// would indicate a bug in the machine, not in the program).
    pub fn into_graph(mut self) -> Result<CostDag, rp_core::build::DagBuildError> {
        // A thread that was created but never scheduled has no vertices; give
        // it a placeholder so the graph is buildable.  (The run driver drains
        // all threads, so this only happens when a run is cut short by the
        // step limit.)
        let unstarted: Vec<DagThreadId> = self
            .threads
            .iter()
            .filter(|t| t.vertices_created == 0)
            .map(|t| t.dag_thread)
            .collect();
        for dag_thread in unstarted {
            self.builder.vertex_labeled(dag_thread, Some("unstarted"));
        }
        self.builder.build()
    }

    /// Per-thread summary used by the run driver.
    pub fn thread_entries(&self) -> &[ThreadEntry] {
        &self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::dsl::*;

    fn single_prog(m: Cmd) -> Program {
        let domain = PriorityDomain::single();
        Program {
            name: "test".into(),
            domain: domain.clone(),
            main_priority: domain.by_index(0),
            main: Arc::new(m),
            return_type: Type::Nat,
        }
    }

    /// Runs a single-threaded program by stepping the main thread until done.
    fn run_sequential(prog: &Program) -> (Expr, CostDag) {
        let mut m = Machine::new(prog);
        let mut step = 0;
        while !m.all_done() {
            let runnable = m.runnable().to_vec();
            assert!(!runnable.is_empty(), "deadlock in sequential run");
            for sym in runnable {
                m.step_thread(sym, step).unwrap();
            }
            step += 1;
            assert!(step < 100_000, "runaway program");
        }
        let v = m.main_value().unwrap().clone();
        let g = m.into_graph().unwrap();
        (v, g)
    }

    #[test]
    fn ret_literal() {
        let (v, g) = run_sequential(&single_prog(ret(nat(7))));
        assert_eq!(v, nat(7));
        assert!(g.vertex_count() >= 2);
        assert_eq!(g.thread_count(), 1);
    }

    #[test]
    fn arithmetic_evaluates() {
        let m = ret(add(mul(nat(6), nat(7)), nat(8)));
        let (v, _) = run_sequential(&single_prog(m));
        assert_eq!(v, nat(50));
    }

    #[test]
    fn let_and_application() {
        let m = ret(let_(
            "f",
            lam("x", Type::Nat, add(var("x"), nat(1))),
            app(var("f"), app(var("f"), nat(0))),
        ));
        let (v, _) = run_sequential(&single_prog(m));
        assert_eq!(v, nat(2));
    }

    #[test]
    fn fix_factorial() {
        // fact = fix f. λn. ifz n {1} {m. n * f(m)}
        let fact = fix(
            "f",
            Type::arrow(Type::Nat, Type::Nat),
            lam(
                "n",
                Type::Nat,
                ifz(
                    var("n"),
                    nat(1),
                    "m",
                    mul(var("n"), app(var("f"), var("m"))),
                ),
            ),
        );
        let (v, _) = run_sequential(&single_prog(ret(app(fact, nat(5)))));
        assert_eq!(v, nat(120));
    }

    #[test]
    fn references_read_back_writes() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let m = dcl(
            "r",
            Type::Nat,
            nat(1),
            bind(
                "_",
                cmd(p, set(var("r"), nat(42))),
                bind("v", cmd(p, get(var("r"))), ret(var("v"))),
            ),
        );
        let (v, g) = run_sequential(&single_prog(m));
        assert_eq!(v, nat(42));
        // The read adds a weak edge from the write.
        assert_eq!(g.weak_edges().len(), 1);
    }

    #[test]
    fn cas_succeeds_then_fails() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let m = dcl(
            "r",
            Type::Nat,
            nat(0),
            bind(
                "first",
                cmd(p, cas(var("r"), nat(0), nat(5))),
                bind(
                    "second",
                    cmd(p, cas(var("r"), nat(0), nat(9))),
                    ret(add(mul(var("first"), nat(10)), var("second"))),
                ),
            ),
        );
        let (v, _) = run_sequential(&single_prog(m));
        // first = 1 (success), second = 0 (failure): 10.
        assert_eq!(v, nat(10));
    }

    #[test]
    fn fcreate_and_ftouch_join_value() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let m = bind(
            "t",
            cmd(p, fcreate(p, Type::Nat, ret(add(nat(20), nat(22))))),
            bind("v", cmd(p, ftouch(var("t"))), ret(var("v"))),
        );
        let (v, g) = run_sequential(&single_prog(m));
        assert_eq!(v, nat(42));
        assert_eq!(g.thread_count(), 2);
        assert_eq!(g.create_edges().len(), 1);
        assert_eq!(g.touch_edges().len(), 1);
    }

    #[test]
    fn touch_blocks_until_child_finishes() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        // The child does a little arithmetic so it cannot finish instantly.
        let m = bind(
            "t",
            cmd(p, fcreate(p, Type::Nat, ret(add(nat(1), nat(2))))),
            bind("v", cmd(p, ftouch(var("t"))), ret(var("v"))),
        );
        let prog = single_prog(m);
        let mut machine = Machine::new(&prog);
        let main = machine.main;
        // Step only the main thread until it blocks.
        let mut steps = 0;
        loop {
            match machine.step_thread(main, steps).unwrap() {
                StepOutcome::Blocked(child) => {
                    assert_ne!(child, main);
                    break;
                }
                StepOutcome::Progress(_) => {}
                StepOutcome::Finished => panic!("main cannot finish before the child"),
            }
            steps += 1;
            assert!(steps < 1000);
        }
        // Now drain the child, then the main thread can finish.
        let child = machine
            .thread_syms()
            .into_iter()
            .find(|s| *s != main)
            .unwrap();
        while !machine.thread(child).is_done() {
            machine.step_thread(child, steps).unwrap();
            steps += 1;
        }
        while !machine.thread(main).is_done() {
            machine.step_thread(main, steps).unwrap();
            steps += 1;
        }
        assert_eq!(machine.main_value().unwrap(), &nat(3));
    }

    #[test]
    fn ill_typed_program_gets_stuck_not_panics() {
        // Applying a number as a function.
        let m = ret(app(nat(1), nat(2)));
        let prog = single_prog(m);
        let mut machine = Machine::new(&prog);
        let main = machine.main;
        let mut result = Ok(StepOutcome::Finished);
        for step in 0..100 {
            result = machine.step_thread(main, step);
            if result.is_err() || machine.thread(main).is_done() {
                break;
            }
        }
        assert!(matches!(result, Err(MachineError::Stuck { .. })));
    }

    #[test]
    fn incremental_runnable_matches_recomputed_definition() {
        // Round-robin a fork-join program and check, before every step, that
        // the incrementally maintained runnable set equals the from-scratch
        // definition: unfinished and not waiting on an unfinished touch
        // target (derived independently via `pending_effect`).
        let prog = crate::progs::figure1_program();
        let mut m = Machine::new(&prog);
        let mut step = 0;
        while !m.all_done() {
            let expected: Vec<ThreadSym> = m
                .thread_syms()
                .into_iter()
                .filter(|&s| {
                    if m.thread(s).is_done() {
                        return false;
                    }
                    match m.pending_effect(s) {
                        Some(PendingEffect::Touch(b)) => m.thread(b).is_done(),
                        _ => true,
                    }
                })
                .collect();
            assert_eq!(m.runnable(), expected.as_slice(), "at step {step}");
            let pick = expected[step % expected.len()];
            m.step_thread(pick, step).unwrap();
            step += 1;
            assert!(step < 100_000, "runaway program");
        }
        assert!(m.runnable().is_empty());
    }

    #[test]
    fn step_effects_and_heap_metadata_are_recorded() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        // dcl r := 0 in { v ← get r; set r (v + 1); get r }
        let m = dcl(
            "r",
            Type::Nat,
            nat(0),
            bind(
                "v",
                cmd(p, get(var("r"))),
                bind(
                    "_w",
                    cmd(p, set(var("r"), add(var("v"), nat(1)))),
                    bind("out", cmd(p, get(var("r"))), ret(var("out"))),
                ),
            ),
        );
        let prog = single_prog(m);
        let mut machine = Machine::new(&prog);
        let main = machine.main;
        let mut effects = Vec::new();
        let mut step = 0;
        while !machine.thread(main).is_done() {
            machine.step_thread(main, step).unwrap();
            if let Some(a) = machine.last_step_access() {
                assert_eq!(a.thread, main);
                effects.push((a.effect, a.ordinal));
            }
            step += 1;
            assert!(step < 1000);
        }
        let kinds: Vec<StepEffect> = effects.iter().map(|&(e, _)| e).collect();
        let loc = match kinds[0] {
            StepEffect::Alloc(l) => l,
            other => panic!("first effect should be the allocation, got {other:?}"),
        };
        assert_eq!(
            kinds,
            vec![
                StepEffect::Alloc(loc),
                StepEffect::Read(loc),
                StepEffect::Write(loc),
                StepEffect::Read(loc),
                StepEffect::Finish,
            ]
        );
        // Ordinals number a thread's effects densely from zero.
        assert_eq!(
            effects.iter().map(|&(_, o)| o).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        // The final cell records the set-write as last writer and exactly one
        // read (the post-write get) since then.
        let cell = machine.heap_cell(loc).expect("cell is live");
        assert_eq!(cell.value, nat(1));
        assert_eq!(cell.last_readers().len(), 1);
        assert_eq!(cell.known_threads(), &machine.thread(main).known);
        assert_ne!(cell.last_writer(), cell.last_readers()[0]);
        assert_eq!(machine.heap_cells().count(), 1);
    }

    #[test]
    fn pending_effect_predicts_the_next_transition() {
        let dom = PriorityDomain::single();
        let p = dom.by_index(0);
        let m = dcl(
            "r",
            Type::Nat,
            nat(7),
            bind("v", cmd(p, get(var("r"))), ret(var("v"))),
        );
        let prog = single_prog(m);
        let mut machine = Machine::new(&prog);
        let main = machine.main;
        let mut step = 0;
        while !machine.thread(main).is_done() {
            let predicted = machine.pending_effect(main).expect("unfinished");
            machine.step_thread(main, step).unwrap();
            let observed = machine.last_step_access().map(|a| a.effect);
            // Every non-local prediction must match the observed effect.
            match (predicted, observed) {
                (PendingEffect::Alloc, Some(StepEffect::Alloc(_)))
                | (PendingEffect::Local, None)
                | (PendingEffect::Finish, Some(StepEffect::Finish)) => {}
                (PendingEffect::Read(l), Some(StepEffect::Read(l2))) => assert_eq!(l, l2),
                (PendingEffect::Write(l), Some(StepEffect::Write(l2))) => assert_eq!(l, l2),
                (pred, obs) => panic!("prediction {pred:?} disagrees with {obs:?}"),
            }
            step += 1;
            assert!(step < 1000);
        }
        assert_eq!(machine.pending_effect(main), None, "done thread");
    }

    #[test]
    fn error_display() {
        let errs = [
            MachineError::Stuck {
                thread: ThreadSym(0),
                state: "x".into(),
            },
            MachineError::UnresolvedPriority("pi".into()),
            MachineError::DanglingLocation(LocId(0)),
            MachineError::DanglingThread(ThreadSym(1)),
            MachineError::StepLimitExceeded(10),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
