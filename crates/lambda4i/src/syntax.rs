//! Abstract syntax of λ⁴ᵢ (Figure 4), in A-normal form.
//!
//! The language is split into an *expression* layer, which cannot observe the
//! heap or the thread pool, and a *command* layer, which can.  Commands are
//! sequenced monadically with `bind` and injected with `ret`; encapsulated
//! commands `cmd[ρ]{m}` are first-class expression values.
//!
//! Runtime-only values (references `ref[s]` and thread handles `tid[a]`)
//! also live in the expression grammar, exactly as in the paper, so the
//! abstract machine can substitute them into terms.

use rp_priority::{Constraint, PrioTerm, PrioVar, Priority, PriorityDomain};
use std::fmt;
use std::sync::Arc;

/// A term-level variable.
pub type Var = String;

/// A memory location symbol `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A thread symbol `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadSym(pub u32);

impl fmt::Display for ThreadSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Types `τ` of λ⁴ᵢ (Figure 4), extended with the priority-polymorphic type
/// `∀π ∼ C. τ` used by the ∀I/∀E rules of Figure 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `unit`.
    Unit,
    /// `nat`.
    Nat,
    /// `τ₁ → τ₂`.
    Arrow(Box<Type>, Box<Type>),
    /// `τ₁ × τ₂`.
    Prod(Box<Type>, Box<Type>),
    /// `τ₁ + τ₂`.
    Sum(Box<Type>, Box<Type>),
    /// `τ ref`.
    Ref(Box<Type>),
    /// `τ thread[ρ]`: a handle to a thread of return type `τ` running at
    /// priority `ρ`.
    Thread(Box<Type>, PrioTerm),
    /// `τ cmd[ρ]`: an encapsulated command of return type `τ` runnable at
    /// priority `ρ`.
    Cmd(Box<Type>, PrioTerm),
    /// `∀π ∼ C. τ`: priority polymorphism constrained by `C`.
    Forall(PrioVar, Constraint, Box<Type>),
}

impl Type {
    /// Convenience constructor for `τ₁ → τ₂`.
    pub fn arrow(a: Type, b: Type) -> Type {
        Type::Arrow(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `τ₁ × τ₂`.
    pub fn prod(a: Type, b: Type) -> Type {
        Type::Prod(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `τ₁ + τ₂`.
    pub fn sum(a: Type, b: Type) -> Type {
        Type::Sum(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for `τ ref`.
    pub fn reference(t: Type) -> Type {
        Type::Ref(Box::new(t))
    }

    /// Convenience constructor for `τ thread[ρ]`.
    pub fn thread(t: Type, p: impl Into<PrioTerm>) -> Type {
        Type::Thread(Box::new(t), p.into())
    }

    /// Convenience constructor for `τ cmd[ρ]`.
    pub fn cmd(t: Type, p: impl Into<PrioTerm>) -> Type {
        Type::Cmd(Box::new(t), p.into())
    }

    /// Substitutes a priority term for a priority variable throughout the
    /// type (`[ρ/π]τ`).
    pub fn subst_prio(&self, var: &PrioVar, term: &PrioTerm) -> Type {
        let s = rp_priority::PrioSubst::single(var.clone(), term.clone());
        self.subst_prio_all(&s)
    }

    /// Collects the free priority variables of the type (those not bound by
    /// an enclosing `∀π ∼ C`).
    pub fn free_prio_vars(&self) -> Vec<PrioVar> {
        let mut out = Vec::new();
        self.collect_free_prio_vars(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free_prio_vars(&self, bound: &mut Vec<PrioVar>, out: &mut Vec<PrioVar>) {
        match self {
            Type::Unit | Type::Nat => {}
            Type::Arrow(a, b) | Type::Prod(a, b) | Type::Sum(a, b) => {
                a.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Type::Ref(t) => t.collect_free_prio_vars(bound, out),
            Type::Thread(t, p) | Type::Cmd(t, p) => {
                t.collect_free_prio_vars(bound, out);
                collect_term_var(p, bound, out);
            }
            Type::Forall(v, c, t) => {
                // The binder scopes over both the constraint and the body
                // (see `subst_prio`, which leaves both untouched when the
                // substituted variable is shadowed).
                bound.push(v.clone());
                collect_constraint_vars(c, bound, out);
                t.collect_free_prio_vars(bound, out);
                bound.pop();
            }
        }
    }

    /// Applies a priority substitution throughout the type.
    pub fn subst_prio_all(&self, s: &rp_priority::PrioSubst) -> Type {
        match self {
            Type::Unit => Type::Unit,
            Type::Nat => Type::Nat,
            Type::Arrow(a, b) => Type::arrow(a.subst_prio_all(s), b.subst_prio_all(s)),
            Type::Prod(a, b) => Type::prod(a.subst_prio_all(s), b.subst_prio_all(s)),
            Type::Sum(a, b) => Type::sum(a.subst_prio_all(s), b.subst_prio_all(s)),
            Type::Ref(t) => Type::reference(t.subst_prio_all(s)),
            Type::Thread(t, p) => Type::Thread(Box::new(t.subst_prio_all(s)), p.subst(s)),
            Type::Cmd(t, p) => Type::Cmd(Box::new(t.subst_prio_all(s)), p.subst(s)),
            Type::Forall(v, c, t) => {
                // Substitution does not descend under a binder for the same
                // variable name (shadowing).
                if s.get(v).is_some() {
                    let mut filtered = rp_priority::PrioSubst::new();
                    for (var, term) in s.iter() {
                        if var != v {
                            filtered.bind(var.clone(), term.clone());
                        }
                    }
                    Type::Forall(
                        v.clone(),
                        c.subst(&filtered),
                        Box::new(t.subst_prio_all(&filtered)),
                    )
                } else {
                    Type::Forall(v.clone(), c.subst(s), Box::new(t.subst_prio_all(s)))
                }
            }
        }
    }
}

/// Records a priority term's variable into `out` unless it is bound.
fn collect_term_var(t: &PrioTerm, bound: &[PrioVar], out: &mut Vec<PrioVar>) {
    if let PrioTerm::Var(v) = t {
        if !bound.contains(v) && !out.contains(v) {
            out.push(v.clone());
        }
    }
}

/// Records a constraint's free variables into `out`.
fn collect_constraint_vars(c: &Constraint, bound: &[PrioVar], out: &mut Vec<PrioVar>) {
    for (l, r) in c.conjuncts() {
        collect_term_var(l, bound, out);
        collect_term_var(r, bound, out);
    }
}

/// Expressions `e` and values `v` of λ⁴ᵢ (Figure 4).
///
/// A-normal form: elimination forms take value subterms; computations are
/// sequenced with `let`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable `x`.
    Var(Var),
    /// `⟨⟩`.
    Unit,
    /// Numeral `n`.
    Nat(u64),
    /// `λx:τ. e` (the paper's lambdas are unannotated; the annotation makes
    /// type checking syntax-directed).
    Lam(Var, Type, Box<Expr>),
    /// `(v, v)`.
    Pair(Box<Expr>, Box<Expr>),
    /// `inl v`.
    Inl(Box<Expr>),
    /// `inr v`.
    Inr(Box<Expr>),
    /// Runtime reference value `ref[s]`.
    RefVal(LocId),
    /// Runtime thread handle `tid[a]`.
    Tid(ThreadSym),
    /// `cmd[ρ]{m}` — an encapsulated command.
    CmdVal(PrioTerm, Arc<Cmd>),
    /// `Λπ ∼ C. e` — priority abstraction.
    PLam(PrioVar, Constraint, Box<Expr>),
    /// `v[ρ]` — priority application.
    PApp(Box<Expr>, PrioTerm),
    /// `let x = e₁ in e₂`.
    Let(Var, Box<Expr>, Box<Expr>),
    /// `ifz v {e₁; x.e₂}` — zero/successor case on naturals.
    Ifz(Box<Expr>, Box<Expr>, Var, Box<Expr>),
    /// Application `v₁ v₂`.
    App(Box<Expr>, Box<Expr>),
    /// `fst v`.
    Fst(Box<Expr>),
    /// `snd v`.
    Snd(Box<Expr>),
    /// `case v {x.e₁; y.e₂}`.
    Case(Box<Expr>, Var, Box<Expr>, Var, Box<Expr>),
    /// `fix x:τ is e`.
    Fix(Var, Type, Box<Expr>),
    /// Primitive arithmetic, an inessential convenience for writing
    /// realistic workloads (`e₁ ⊕ e₂` on naturals).
    Prim(PrimOp, Box<Expr>, Box<Expr>),
}

/// Primitive binary operations on naturals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimOp {
    /// Addition.
    Add,
    /// Saturating subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Equality test (1 if equal, 0 otherwise).
    Eq,
    /// Strictly-less test (1 if less, 0 otherwise).
    Lt,
}

/// Commands `m` of λ⁴ᵢ (Figure 4), plus the CAS extension of §3.3.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// `fcreate[ρ'; τ]{m}` — spawn `m` in a new thread at priority `ρ'`.
    Fcreate {
        /// The new thread's priority.
        prio: PrioTerm,
        /// The new thread's return type.
        ret_type: Type,
        /// The body to run.
        body: Arc<Cmd>,
    },
    /// `ftouch e` — wait for the thread denoted by `e` and return its value.
    Ftouch(Box<Expr>),
    /// `dcl[τ] s := e in m` — allocate a reference initialised with `e`.
    Dcl {
        /// The declared location's content type.
        ty: Type,
        /// A binder name for the new reference inside `body` (the paper uses
        /// a location symbol; we bind a variable that the machine substitutes
        /// the fresh `ref[s]` value for).
        var: Var,
        /// The initial value expression.
        init: Box<Expr>,
        /// The scope of the declaration.
        body: Arc<Cmd>,
    },
    /// `!e` — read a reference.
    Get(Box<Expr>),
    /// `e₁ := e₂` — write a reference, returning the new value.
    Set(Box<Expr>, Box<Expr>),
    /// `x ← e; m` — run the encapsulated command produced by `e`, bind its
    /// result to `x`, continue as `m`.
    Bind {
        /// The bound variable.
        var: Var,
        /// The expression producing an encapsulated command.
        expr: Box<Expr>,
        /// The continuation command.
        rest: Arc<Cmd>,
    },
    /// `ret e` — return the value of an expression.
    Ret(Box<Expr>),
    /// `cas(e_ref, e_old, e_new)` — compare-and-swap (§3.3); returns `1` on
    /// success and `0` on failure.
    Cas {
        /// The reference to update.
        target: Box<Expr>,
        /// The expected current value.
        expected: Box<Expr>,
        /// The replacement value.
        new: Box<Expr>,
    },
}

/// A closed λ⁴ᵢ program: a command to run in the initial thread at a given
/// priority, over a given priority domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Human-readable name, used in reports.
    pub name: String,
    /// The priority domain `R`.
    pub domain: PriorityDomain,
    /// The priority of the initial thread.
    pub main_priority: Priority,
    /// The command the initial thread runs.
    pub main: Arc<Cmd>,
    /// The program's declared return type (checked by `typecheck_program`).
    pub return_type: Type,
}

impl Program {
    /// The free priority variables of the program (those the front end's
    /// solver must instantiate before the program can run).
    pub fn free_prio_vars(&self) -> Vec<PrioVar> {
        let mut out = self.main.free_prio_vars();
        for v in self.return_type.free_prio_vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Applies a priority substitution to the main command and return type.
    pub fn subst_prio_all(&self, s: &rp_priority::PrioSubst) -> Program {
        Program {
            name: self.name.clone(),
            domain: self.domain.clone(),
            main_priority: self.main_priority,
            main: Arc::new(self.main.subst_prio_all(s)),
            return_type: self.return_type.subst_prio_all(s),
        }
    }
}

impl Expr {
    /// Whether the expression is a value `v` of Figure 4.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Expr::Var(_)
                | Expr::Unit
                | Expr::Nat(_)
                | Expr::Lam(..)
                | Expr::RefVal(_)
                | Expr::Tid(_)
                | Expr::CmdVal(..)
                | Expr::PLam(..)
        ) || match self {
            Expr::Pair(a, b) => a.is_value() && b.is_value(),
            Expr::Inl(v) | Expr::Inr(v) => v.is_value(),
            _ => false,
        }
    }

    /// Capture-avoiding substitution `[v/x]e`, in place.
    ///
    /// The substituted expression `v` must be closed (the machine only ever
    /// substitutes closed values), so no renaming is required.  Encapsulated
    /// commands are rewritten through [`subst_arc`], so a command this term
    /// shares with another holder is copied on write, never written through.
    pub(crate) fn subst_in_place(&mut self, x: &str, v: &Expr) {
        match self {
            Expr::Var(y) => {
                if y == x {
                    *self = v.clone();
                }
            }
            Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => {}
            Expr::Lam(y, _, body) | Expr::Fix(y, _, body) => {
                if y != x {
                    body.subst_in_place(x, v);
                }
            }
            Expr::Pair(a, b) | Expr::App(a, b) | Expr::Prim(_, a, b) => {
                a.subst_in_place(x, v);
                b.subst_in_place(x, v);
            }
            Expr::Inl(a)
            | Expr::Inr(a)
            | Expr::Fst(a)
            | Expr::Snd(a)
            | Expr::PLam(_, _, a)
            | Expr::PApp(a, _) => a.subst_in_place(x, v),
            Expr::CmdVal(_, m) => subst_arc(m, x, v),
            Expr::Let(y, e1, e2) => {
                e1.subst_in_place(x, v);
                if y != x {
                    e2.subst_in_place(x, v);
                }
            }
            Expr::Ifz(cond, z, y, s) => {
                cond.subst_in_place(x, v);
                z.subst_in_place(x, v);
                if y != x {
                    s.subst_in_place(x, v);
                }
            }
            Expr::Case(scr, y1, e1, y2, e2) => {
                scr.subst_in_place(x, v);
                if y1 != x {
                    e1.subst_in_place(x, v);
                }
                if y2 != x {
                    e2.subst_in_place(x, v);
                }
            }
        }
    }

    /// Whether the variable `x` occurs free in the expression.
    pub(crate) fn mentions(&self, x: &str) -> bool {
        match self {
            Expr::Var(y) => y == x,
            Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => false,
            Expr::Lam(y, _, body) | Expr::Fix(y, _, body) => y != x && body.mentions(x),
            Expr::Pair(a, b) | Expr::App(a, b) | Expr::Prim(_, a, b) => {
                a.mentions(x) || b.mentions(x)
            }
            Expr::Inl(a)
            | Expr::Inr(a)
            | Expr::Fst(a)
            | Expr::Snd(a)
            | Expr::PLam(_, _, a)
            | Expr::PApp(a, _) => a.mentions(x),
            Expr::CmdVal(_, m) => m.mentions(x),
            Expr::Let(y, e1, e2) => e1.mentions(x) || (y != x && e2.mentions(x)),
            Expr::Ifz(cond, z, y, s) => {
                cond.mentions(x) || z.mentions(x) || (y != x && s.mentions(x))
            }
            Expr::Case(scr, y1, e1, y2, e2) => {
                scr.mentions(x) || (y1 != x && e1.mentions(x)) || (y2 != x && e2.mentions(x))
            }
        }
    }

    /// Applies a whole priority substitution, binding by binding.
    ///
    /// The images produced by the solver are concrete priorities, so
    /// sequential application is exact (no image mentions another
    /// substituted variable).
    pub fn subst_prio_all(&self, s: &rp_priority::PrioSubst) -> Expr {
        let mut out = self.clone();
        for (v, t) in s.iter() {
            out = out.subst_prio(v, t);
        }
        out
    }

    /// Collects the free priority variables of the expression.
    pub fn free_prio_vars(&self) -> Vec<PrioVar> {
        let mut out = Vec::new();
        self.collect_free_prio_vars(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free_prio_vars(&self, bound: &mut Vec<PrioVar>, out: &mut Vec<PrioVar>) {
        match self {
            Expr::Var(_) | Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => {}
            Expr::Lam(_, ty, b) => {
                ty.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Expr::Pair(a, b) | Expr::App(a, b) | Expr::Prim(_, a, b) => {
                a.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Expr::Inl(a) | Expr::Inr(a) | Expr::Fst(a) | Expr::Snd(a) => {
                a.collect_free_prio_vars(bound, out)
            }
            Expr::CmdVal(p, m) => {
                collect_term_var(p, bound, out);
                m.collect_free_prio_vars(bound, out);
            }
            Expr::PLam(v, c, b) => {
                bound.push(v.clone());
                collect_constraint_vars(c, bound, out);
                b.collect_free_prio_vars(bound, out);
                bound.pop();
            }
            Expr::PApp(b, p) => {
                b.collect_free_prio_vars(bound, out);
                collect_term_var(p, bound, out);
            }
            Expr::Let(_, a, b) => {
                a.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Expr::Ifz(c, z, _, s) => {
                c.collect_free_prio_vars(bound, out);
                z.collect_free_prio_vars(bound, out);
                s.collect_free_prio_vars(bound, out);
            }
            Expr::Case(s, _, a, _, b) => {
                s.collect_free_prio_vars(bound, out);
                a.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Expr::Fix(_, ty, b) => {
                ty.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
        }
    }

    /// Substitutes a priority term for a priority variable (`[ρ/π]e`).
    pub fn subst_prio(&self, var: &PrioVar, term: &PrioTerm) -> Expr {
        let s = rp_priority::PrioSubst::single(var.clone(), term.clone());
        self.subst_prio_single(var, &s)
    }

    /// `[ρ/π]e` with `s` the one-binding substitution `π ↦ ρ`, built once
    /// by [`Expr::subst_prio`] and shared by the whole walk.
    fn subst_prio_single(&self, var: &PrioVar, s: &rp_priority::PrioSubst) -> Expr {
        match self {
            Expr::Var(_) | Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => {
                self.clone()
            }
            Expr::Lam(y, ty, body) => Expr::Lam(
                y.clone(),
                ty.subst_prio_all(s),
                Box::new(body.subst_prio_single(var, s)),
            ),
            Expr::Pair(a, b) => Expr::Pair(
                Box::new(a.subst_prio_single(var, s)),
                Box::new(b.subst_prio_single(var, s)),
            ),
            Expr::Inl(a) => Expr::Inl(Box::new(a.subst_prio_single(var, s))),
            Expr::Inr(a) => Expr::Inr(Box::new(a.subst_prio_single(var, s))),
            Expr::CmdVal(p, m) => Expr::CmdVal(p.subst(s), Arc::new(m.subst_prio_single(var, s))),
            Expr::PLam(pv, c, e) => {
                if pv == var {
                    self.clone()
                } else {
                    Expr::PLam(
                        pv.clone(),
                        c.subst(s),
                        Box::new(e.subst_prio_single(var, s)),
                    )
                }
            }
            Expr::PApp(e, p) => Expr::PApp(Box::new(e.subst_prio_single(var, s)), p.subst(s)),
            Expr::Let(y, e1, e2) => Expr::Let(
                y.clone(),
                Box::new(e1.subst_prio_single(var, s)),
                Box::new(e2.subst_prio_single(var, s)),
            ),
            Expr::Ifz(c, z, y, sc) => Expr::Ifz(
                Box::new(c.subst_prio_single(var, s)),
                Box::new(z.subst_prio_single(var, s)),
                y.clone(),
                Box::new(sc.subst_prio_single(var, s)),
            ),
            Expr::App(a, b) => Expr::App(
                Box::new(a.subst_prio_single(var, s)),
                Box::new(b.subst_prio_single(var, s)),
            ),
            Expr::Fst(a) => Expr::Fst(Box::new(a.subst_prio_single(var, s))),
            Expr::Snd(a) => Expr::Snd(Box::new(a.subst_prio_single(var, s))),
            Expr::Case(scr, y1, e1, y2, e2) => Expr::Case(
                Box::new(scr.subst_prio_single(var, s)),
                y1.clone(),
                Box::new(e1.subst_prio_single(var, s)),
                y2.clone(),
                Box::new(e2.subst_prio_single(var, s)),
            ),
            Expr::Fix(y, t, e) => Expr::Fix(
                y.clone(),
                t.subst_prio_all(s),
                Box::new(e.subst_prio_single(var, s)),
            ),
            Expr::Prim(op, a, b) => Expr::Prim(
                *op,
                Box::new(a.subst_prio_single(var, s)),
                Box::new(b.subst_prio_single(var, s)),
            ),
        }
    }
}

impl Cmd {
    /// Capture-avoiding substitution `[v/x]m` of a closed value into a
    /// command, in place (see [`Expr::subst_in_place`]).
    pub(crate) fn subst_in_place(&mut self, x: &str, v: &Expr) {
        match self {
            Cmd::Fcreate { body, .. } => subst_arc(body, x, v),
            Cmd::Ftouch(e) | Cmd::Get(e) | Cmd::Ret(e) => e.subst_in_place(x, v),
            Cmd::Dcl {
                var, init, body, ..
            } => {
                init.subst_in_place(x, v);
                if var != x {
                    subst_arc(body, x, v);
                }
            }
            Cmd::Set(a, b) => {
                a.subst_in_place(x, v);
                b.subst_in_place(x, v);
            }
            Cmd::Bind { var, expr, rest } => {
                expr.subst_in_place(x, v);
                if var != x {
                    subst_arc(rest, x, v);
                }
            }
            Cmd::Cas {
                target,
                expected,
                new,
            } => {
                target.subst_in_place(x, v);
                expected.subst_in_place(x, v);
                new.subst_in_place(x, v);
            }
        }
    }

    /// Whether the variable `x` occurs free in the command.
    pub(crate) fn mentions(&self, x: &str) -> bool {
        match self {
            Cmd::Fcreate { body, .. } => body.mentions(x),
            Cmd::Ftouch(e) | Cmd::Get(e) | Cmd::Ret(e) => e.mentions(x),
            Cmd::Dcl {
                var, init, body, ..
            } => init.mentions(x) || (var != x && body.mentions(x)),
            Cmd::Set(a, b) => a.mentions(x) || b.mentions(x),
            Cmd::Bind { var, expr, rest } => expr.mentions(x) || (var != x && rest.mentions(x)),
            Cmd::Cas {
                target,
                expected,
                new,
            } => target.mentions(x) || expected.mentions(x) || new.mentions(x),
        }
    }

    /// Applies a whole priority substitution, binding by binding (see
    /// [`Expr::subst_prio_all`]).
    pub fn subst_prio_all(&self, s: &rp_priority::PrioSubst) -> Cmd {
        let mut out = self.clone();
        for (v, t) in s.iter() {
            out = out.subst_prio(v, t);
        }
        out
    }

    /// Collects the free priority variables of the command.
    pub fn free_prio_vars(&self) -> Vec<PrioVar> {
        let mut out = Vec::new();
        self.collect_free_prio_vars(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free_prio_vars(&self, bound: &mut Vec<PrioVar>, out: &mut Vec<PrioVar>) {
        match self {
            Cmd::Fcreate {
                prio,
                ret_type,
                body,
            } => {
                collect_term_var(prio, bound, out);
                ret_type.collect_free_prio_vars(bound, out);
                body.collect_free_prio_vars(bound, out);
            }
            Cmd::Ftouch(e) | Cmd::Get(e) | Cmd::Ret(e) => e.collect_free_prio_vars(bound, out),
            Cmd::Dcl { ty, init, body, .. } => {
                ty.collect_free_prio_vars(bound, out);
                init.collect_free_prio_vars(bound, out);
                body.collect_free_prio_vars(bound, out);
            }
            Cmd::Set(a, b) => {
                a.collect_free_prio_vars(bound, out);
                b.collect_free_prio_vars(bound, out);
            }
            Cmd::Bind { expr, rest, .. } => {
                expr.collect_free_prio_vars(bound, out);
                rest.collect_free_prio_vars(bound, out);
            }
            Cmd::Cas {
                target,
                expected,
                new,
            } => {
                target.collect_free_prio_vars(bound, out);
                expected.collect_free_prio_vars(bound, out);
                new.collect_free_prio_vars(bound, out);
            }
        }
    }

    /// Substitutes a priority term for a priority variable (`[ρ/π]m`).
    pub fn subst_prio(&self, var: &PrioVar, term: &PrioTerm) -> Cmd {
        let s = rp_priority::PrioSubst::single(var.clone(), term.clone());
        self.subst_prio_single(var, &s)
    }

    /// `[ρ/π]m` with `s` the one-binding substitution `π ↦ ρ` (see
    /// [`Expr::subst_prio_single`]).
    fn subst_prio_single(&self, var: &PrioVar, s: &rp_priority::PrioSubst) -> Cmd {
        match self {
            Cmd::Fcreate {
                prio,
                ret_type,
                body,
            } => Cmd::Fcreate {
                prio: prio.subst(s),
                ret_type: ret_type.subst_prio_all(s),
                body: Arc::new(body.subst_prio_single(var, s)),
            },
            Cmd::Ftouch(e) => Cmd::Ftouch(Box::new(e.subst_prio_single(var, s))),
            Cmd::Dcl {
                ty,
                var: y,
                init,
                body,
            } => Cmd::Dcl {
                ty: ty.subst_prio_all(s),
                var: y.clone(),
                init: Box::new(init.subst_prio_single(var, s)),
                body: Arc::new(body.subst_prio_single(var, s)),
            },
            Cmd::Get(e) => Cmd::Get(Box::new(e.subst_prio_single(var, s))),
            Cmd::Set(a, b) => Cmd::Set(
                Box::new(a.subst_prio_single(var, s)),
                Box::new(b.subst_prio_single(var, s)),
            ),
            Cmd::Bind { var: y, expr, rest } => Cmd::Bind {
                var: y.clone(),
                expr: Box::new(expr.subst_prio_single(var, s)),
                rest: Arc::new(rest.subst_prio_single(var, s)),
            },
            Cmd::Ret(e) => Cmd::Ret(Box::new(e.subst_prio_single(var, s))),
            Cmd::Cas {
                target,
                expected,
                new,
            } => Cmd::Cas {
                target: Box::new(target.subst_prio_single(var, s)),
                expected: Box::new(expected.subst_prio_single(var, s)),
                new: Box::new(new.subst_prio_single(var, s)),
            },
        }
    }
}

/// Substitutes `[v/x]` into a shared command.
///
/// A command nobody else holds is rewritten in place.  A shared one (a
/// cached program, a continuation a replayed schedule also holds) is left as
/// it is when `x` is not free in it, and is otherwise copied on write
/// ([`Arc::make_mut`]): the other holders never see the substitution.
pub(crate) fn subst_arc(m: &mut Arc<Cmd>, x: &str, v: &Expr) {
    if let Some(owned) = Arc::get_mut(m) {
        owned.subst_in_place(x, v);
    } else if m.mentions(x) {
        Arc::make_mut(m).subst_in_place(x, v);
    }
}

/// Ergonomic constructors used throughout the example programs and tests.
pub mod dsl {
    use super::*;

    /// Variable reference.
    pub fn var(x: &str) -> Expr {
        Expr::Var(x.to_string())
    }

    /// Natural number literal.
    pub fn nat(n: u64) -> Expr {
        Expr::Nat(n)
    }

    /// Unit literal.
    pub fn unit() -> Expr {
        Expr::Unit
    }

    /// Lambda abstraction `λx:τ. body`.
    pub fn lam(x: &str, ty: Type, body: Expr) -> Expr {
        Expr::Lam(x.to_string(), ty, Box::new(body))
    }

    /// Application.
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Box::new(f), Box::new(a))
    }

    /// Let binding.
    pub fn let_(x: &str, bound: Expr, body: Expr) -> Expr {
        Expr::Let(x.to_string(), Box::new(bound), Box::new(body))
    }

    /// Zero/successor conditional.
    pub fn ifz(cond: Expr, zero: Expr, x: &str, succ: Expr) -> Expr {
        Expr::Ifz(
            Box::new(cond),
            Box::new(zero),
            x.to_string(),
            Box::new(succ),
        )
    }

    /// Pair constructor.
    pub fn pair(a: Expr, b: Expr) -> Expr {
        Expr::Pair(Box::new(a), Box::new(b))
    }

    /// Recursive definition.
    pub fn fix(x: &str, ty: Type, body: Expr) -> Expr {
        Expr::Fix(x.to_string(), ty, Box::new(body))
    }

    /// Addition.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Prim(PrimOp::Add, Box::new(a), Box::new(b))
    }

    /// Saturating subtraction.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Prim(PrimOp::Sub, Box::new(a), Box::new(b))
    }

    /// Multiplication.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Prim(PrimOp::Mul, Box::new(a), Box::new(b))
    }

    /// Equality test.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Prim(PrimOp::Eq, Box::new(a), Box::new(b))
    }

    /// Encapsulated command value.
    pub fn cmd(p: impl Into<PrioTerm>, m: Cmd) -> Expr {
        Expr::CmdVal(p.into(), Arc::new(m))
    }

    /// `ret e`.
    pub fn ret(e: Expr) -> Cmd {
        Cmd::Ret(Box::new(e))
    }

    /// `x ← e; m`.
    pub fn bind(x: &str, e: Expr, m: Cmd) -> Cmd {
        Cmd::Bind {
            var: x.to_string(),
            expr: Box::new(e),
            rest: Arc::new(m),
        }
    }

    /// `fcreate[ρ; τ]{m}`.
    pub fn fcreate(p: impl Into<PrioTerm>, ty: Type, m: Cmd) -> Cmd {
        Cmd::Fcreate {
            prio: p.into(),
            ret_type: ty,
            body: Arc::new(m),
        }
    }

    /// `ftouch e`.
    pub fn ftouch(e: Expr) -> Cmd {
        Cmd::Ftouch(Box::new(e))
    }

    /// `dcl[τ] x := e in m`.
    pub fn dcl(x: &str, ty: Type, init: Expr, body: Cmd) -> Cmd {
        Cmd::Dcl {
            ty,
            var: x.to_string(),
            init: Box::new(init),
            body: Arc::new(body),
        }
    }

    /// `!e`.
    pub fn get(e: Expr) -> Cmd {
        Cmd::Get(Box::new(e))
    }

    /// `e₁ := e₂`.
    pub fn set(target: Expr, value: Expr) -> Cmd {
        Cmd::Set(Box::new(target), Box::new(value))
    }

    /// `cas(target, expected, new)`.
    pub fn cas(target: Expr, expected: Expr, new: Expr) -> Cmd {
        Cmd::Cas {
            target: Box::new(target),
            expected: Box::new(expected),
            new: Box::new(new),
        }
    }

    /// Sequences a list of commands at priority `p`, discarding intermediate
    /// results, and ends with the final command.
    pub fn seq(p: impl Into<PrioTerm>, cmds: Vec<Cmd>, last: Cmd) -> Cmd {
        let p = p.into();
        cmds.into_iter().rev().fold(last, |acc, c| Cmd::Bind {
            var: "_".to_string(),
            expr: Box::new(Expr::CmdVal(p.clone(), Arc::new(c))),
            rest: Arc::new(acc),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;

    /// The by-copy substitution the back ends ran before
    /// [`Expr::subst_in_place`], kept verbatim as the reference the
    /// differential tests hold the in-place one to.
    impl Expr {
        fn subst(&self, x: &str, v: &Expr) -> Expr {
            match self {
                Expr::Var(y) => {
                    if y == x {
                        v.clone()
                    } else {
                        self.clone()
                    }
                }
                Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => self.clone(),
                Expr::Lam(y, ty, body) => {
                    if y == x {
                        self.clone()
                    } else {
                        Expr::Lam(y.clone(), ty.clone(), Box::new(body.subst(x, v)))
                    }
                }
                Expr::Pair(a, b) => Expr::Pair(Box::new(a.subst(x, v)), Box::new(b.subst(x, v))),
                Expr::Inl(a) => Expr::Inl(Box::new(a.subst(x, v))),
                Expr::Inr(a) => Expr::Inr(Box::new(a.subst(x, v))),
                Expr::CmdVal(p, m) => Expr::CmdVal(p.clone(), Arc::new(m.subst(x, v))),
                Expr::PLam(pv, c, e) => Expr::PLam(pv.clone(), c.clone(), Box::new(e.subst(x, v))),
                Expr::PApp(e, p) => Expr::PApp(Box::new(e.subst(x, v)), p.clone()),
                Expr::Let(y, e1, e2) => {
                    let e1 = Box::new(e1.subst(x, v));
                    if y == x {
                        Expr::Let(y.clone(), e1, e2.clone())
                    } else {
                        Expr::Let(y.clone(), e1, Box::new(e2.subst(x, v)))
                    }
                }
                Expr::Ifz(cond, z, y, s) => {
                    let cond = Box::new(cond.subst(x, v));
                    let z = Box::new(z.subst(x, v));
                    let s = if y == x {
                        s.clone()
                    } else {
                        Box::new(s.subst(x, v))
                    };
                    Expr::Ifz(cond, z, y.clone(), s)
                }
                Expr::App(a, b) => Expr::App(Box::new(a.subst(x, v)), Box::new(b.subst(x, v))),
                Expr::Fst(a) => Expr::Fst(Box::new(a.subst(x, v))),
                Expr::Snd(a) => Expr::Snd(Box::new(a.subst(x, v))),
                Expr::Case(scr, y1, e1, y2, e2) => {
                    let scr = Box::new(scr.subst(x, v));
                    let e1 = if y1 == x {
                        e1.clone()
                    } else {
                        Box::new(e1.subst(x, v))
                    };
                    let e2 = if y2 == x {
                        e2.clone()
                    } else {
                        Box::new(e2.subst(x, v))
                    };
                    Expr::Case(scr, y1.clone(), e1, y2.clone(), e2)
                }
                Expr::Fix(y, t, e) => {
                    if y == x {
                        self.clone()
                    } else {
                        Expr::Fix(y.clone(), t.clone(), Box::new(e.subst(x, v)))
                    }
                }
                Expr::Prim(op, a, b) => {
                    Expr::Prim(*op, Box::new(a.subst(x, v)), Box::new(b.subst(x, v)))
                }
            }
        }
    }

    /// The by-copy command substitution, kept as the reference (see above).
    impl Cmd {
        fn subst(&self, x: &str, v: &Expr) -> Cmd {
            match self {
                Cmd::Fcreate {
                    prio,
                    ret_type,
                    body,
                } => Cmd::Fcreate {
                    prio: prio.clone(),
                    ret_type: ret_type.clone(),
                    body: Arc::new(body.subst(x, v)),
                },
                Cmd::Ftouch(e) => Cmd::Ftouch(Box::new(e.subst(x, v))),
                Cmd::Dcl {
                    ty,
                    var,
                    init,
                    body,
                } => {
                    let init = Box::new(init.subst(x, v));
                    let body = if var == x {
                        body.clone()
                    } else {
                        Arc::new(body.subst(x, v))
                    };
                    Cmd::Dcl {
                        ty: ty.clone(),
                        var: var.clone(),
                        init,
                        body,
                    }
                }
                Cmd::Get(e) => Cmd::Get(Box::new(e.subst(x, v))),
                Cmd::Set(a, b) => Cmd::Set(Box::new(a.subst(x, v)), Box::new(b.subst(x, v))),
                Cmd::Bind { var, expr, rest } => {
                    let expr = Box::new(expr.subst(x, v));
                    let rest = if var == x {
                        rest.clone()
                    } else {
                        Arc::new(rest.subst(x, v))
                    };
                    Cmd::Bind {
                        var: var.clone(),
                        expr,
                        rest,
                    }
                }
                Cmd::Ret(e) => Cmd::Ret(Box::new(e.subst(x, v))),
                Cmd::Cas {
                    target,
                    expected,
                    new,
                } => Cmd::Cas {
                    target: Box::new(target.subst(x, v)),
                    expected: Box::new(expected.subst(x, v)),
                    new: Box::new(new.subst(x, v)),
                },
            }
        }
    }

    #[test]
    fn values_are_recognised() {
        assert!(nat(3).is_value());
        assert!(unit().is_value());
        assert!(lam("x", Type::Nat, var("x")).is_value());
        assert!(pair(nat(1), nat(2)).is_value());
        assert!(Expr::Inl(Box::new(nat(1))).is_value());
        assert!(!let_("x", nat(1), var("x")).is_value());
        assert!(!app(lam("x", Type::Nat, var("x")), nat(1)).is_value());
        assert!(!pair(app(lam("x", Type::Nat, var("x")), nat(1)), nat(2)).is_value());
    }

    /// `[v/x]e` through [`Expr::subst_in_place`], on a copy.
    fn substituted(e: &Expr, x: &str, v: &Expr) -> Expr {
        let mut out = e.clone();
        out.subst_in_place(x, v);
        out
    }

    /// `[v/x]m` through [`Cmd::subst_in_place`], on a copy.
    fn substituted_cmd(m: &Cmd, x: &str, v: &Expr) -> Cmd {
        let mut out = m.clone();
        out.subst_in_place(x, v);
        out
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let e = let_("y", var("x"), add(var("x"), var("y")));
        let r = substituted(&e, "x", &nat(7));
        assert_eq!(r, let_("y", nat(7), add(nat(7), var("y"))));
    }

    #[test]
    fn subst_respects_shadowing() {
        let e = lam("x", Type::Nat, var("x"));
        assert_eq!(substituted(&e, "x", &nat(1)), e);
        let e = let_("x", var("x"), var("x"));
        // The bound expression is in scope of the outer x; the body is not.
        assert_eq!(substituted(&e, "x", &nat(2)), let_("x", nat(2), var("x")));
        let e = ifz(var("n"), nat(0), "n", var("n"));
        assert_eq!(
            substituted(&e, "n", &nat(5)),
            ifz(nat(5), nat(0), "n", var("n"))
        );
    }

    #[test]
    fn subst_into_commands() {
        let m = bind("y", var("c"), ret(add(var("x"), var("y"))));
        assert_eq!(
            substituted_cmd(&m, "x", &nat(3)),
            bind("y", var("c"), ret(add(nat(3), var("y"))))
        );
        // The bound variable is not free in the continuation.
        assert_eq!(substituted_cmd(&m, "y", &nat(9)), m);
    }

    /// One shadowing case per binder: the binder's own scope is left alone,
    /// everything outside it (a `let`'s bound expression, an `ifz`'s
    /// condition and zero branch, a `case`'s scrutinee and other branch, a
    /// `bind`'s expression, a `dcl`'s initialiser) is substituted.
    #[test]
    fn subst_in_place_respects_every_binder() {
        let p = PriorityDomain::single().by_index(0);
        let v = nat(2);
        let exprs = [
            // let
            (let_("x", var("x"), var("x")), let_("x", nat(2), var("x"))),
            // λ
            (lam("x", Type::Nat, var("x")), lam("x", Type::Nat, var("x"))),
            // fix
            (fix("x", Type::Nat, var("x")), fix("x", Type::Nat, var("x"))),
            // ifz
            (
                ifz(var("x"), var("x"), "x", var("x")),
                ifz(nat(2), nat(2), "x", var("x")),
            ),
            // case: shadowed in the left branch only
            (
                Expr::Case(
                    Box::new(var("x")),
                    "x".into(),
                    Box::new(var("x")),
                    "y".into(),
                    Box::new(var("x")),
                ),
                Expr::Case(
                    Box::new(nat(2)),
                    "x".into(),
                    Box::new(var("x")),
                    "y".into(),
                    Box::new(nat(2)),
                ),
            ),
        ];
        for (e, want) in exprs {
            assert_eq!(substituted(&e, "x", &v), want, "{e:?}");
            assert_eq!(e.subst("x", &v), want, "reference on {e:?}");
        }
        let cmds = [
            // bind
            (
                bind("x", var("x"), ret(var("x"))),
                bind("x", nat(2), ret(var("x"))),
            ),
            // dcl
            (
                dcl("x", Type::Nat, var("x"), ret(var("x"))),
                dcl("x", Type::Nat, nat(2), ret(var("x"))),
            ),
            // an encapsulated command under a binder of another name
            (
                bind("y", cmd(p, ret(var("x"))), ret(var("x"))),
                bind("y", cmd(p, ret(nat(2))), ret(nat(2))),
            ),
        ];
        for (m, want) in cmds {
            assert_eq!(substituted_cmd(&m, "x", &v), want, "{m:?}");
            assert_eq!(m.subst("x", &v), want, "reference on {m:?}");
        }
    }

    /// A subterm under test.
    enum Term {
        Expr(Expr),
        Cmd(Cmd),
    }

    /// Pushes every subterm of `m` (itself included) and records every
    /// variable name it binds or uses.
    fn collect_cmd(m: &Cmd, out: &mut Vec<Term>, names: &mut Vec<Var>) {
        out.push(Term::Cmd(m.clone()));
        match m {
            Cmd::Fcreate { body, .. } => collect_cmd(body, out, names),
            Cmd::Ftouch(e) | Cmd::Get(e) | Cmd::Ret(e) => collect_expr(e, out, names),
            Cmd::Dcl {
                var, init, body, ..
            } => {
                names.push(var.clone());
                collect_expr(init, out, names);
                collect_cmd(body, out, names);
            }
            Cmd::Set(a, b) => {
                collect_expr(a, out, names);
                collect_expr(b, out, names);
            }
            Cmd::Bind { var, expr, rest } => {
                names.push(var.clone());
                collect_expr(expr, out, names);
                collect_cmd(rest, out, names);
            }
            Cmd::Cas {
                target,
                expected,
                new,
            } => {
                collect_expr(target, out, names);
                collect_expr(expected, out, names);
                collect_expr(new, out, names);
            }
        }
    }

    /// [`collect_cmd`] for expressions.
    fn collect_expr(e: &Expr, out: &mut Vec<Term>, names: &mut Vec<Var>) {
        out.push(Term::Expr(e.clone()));
        match e {
            Expr::Var(y) => names.push(y.clone()),
            Expr::Unit | Expr::Nat(_) | Expr::RefVal(_) | Expr::Tid(_) => {}
            Expr::Lam(y, _, a) | Expr::Fix(y, _, a) => {
                names.push(y.clone());
                collect_expr(a, out, names);
            }
            Expr::Inl(a)
            | Expr::Inr(a)
            | Expr::Fst(a)
            | Expr::Snd(a)
            | Expr::PLam(_, _, a)
            | Expr::PApp(a, _) => collect_expr(a, out, names),
            Expr::Pair(a, b) | Expr::App(a, b) | Expr::Prim(_, a, b) => {
                collect_expr(a, out, names);
                collect_expr(b, out, names);
            }
            Expr::CmdVal(_, m) => collect_cmd(m, out, names),
            Expr::Let(y, a, b) => {
                names.push(y.clone());
                collect_expr(a, out, names);
                collect_expr(b, out, names);
            }
            Expr::Ifz(c, z, y, b) => {
                names.push(y.clone());
                collect_expr(c, out, names);
                collect_expr(z, out, names);
                collect_expr(b, out, names);
            }
            Expr::Case(sc, y1, a, y2, b) => {
                names.push(y1.clone());
                names.push(y2.clone());
                collect_expr(sc, out, names);
                collect_expr(a, out, names);
                collect_expr(b, out, names);
            }
        }
    }

    /// A name no program binds or uses.
    const ABSENT: &str = "\u{1}absent";

    /// A copy of `m` that shares no command with it: the reference
    /// substitution of a name that occurs nowhere rebuilds every `Arc`.
    fn unshared(m: &Cmd) -> Cmd {
        m.subst(ABSENT, &Expr::Unit)
    }

    /// Checks `[v/x]` on one command every way the back ends apply it.
    fn check_cmd(m: &Cmd, x: &str, v: &Expr) {
        let want = m.subst(x, v);
        let pristine = unshared(m);
        assert_eq!(m.mentions(x), want != *m, "mentions({x}) on {m:?}");
        // In place on a copy whose nested commands are shared with `m`.
        assert_eq!(substituted_cmd(m, x, v), want, "[{v:?}/{x}] {m:?}");
        // Through a shared `Arc`: copied on write, or left as it is (the
        // same allocation) when `x` is not free.
        let shared = Arc::new(m.clone());
        let mut arc = Arc::clone(&shared);
        subst_arc(&mut arc, x, v);
        assert_eq!(*arc, want, "shared [{v:?}/{x}] {m:?}");
        assert_eq!(Arc::ptr_eq(&arc, &shared), want == *m, "copy on write");
        assert_eq!(*shared, pristine, "wrote through a shared command");
        // Through an `Arc` nobody else holds: rewritten where it is.
        let mut unique = Arc::new(unshared(m));
        let at = Arc::as_ptr(&unique);
        subst_arc(&mut unique, x, v);
        assert_eq!(*unique, want, "unique [{v:?}/{x}] {m:?}");
        assert_eq!(Arc::as_ptr(&unique), at, "a unique command was copied");
        assert_eq!(*m, pristine, "wrote through a shared command");
    }

    /// Checks `[v/x]` on one expression against the reference.
    fn check_expr(e: &Expr, x: &str, v: &Expr) {
        let want = e.subst(x, v);
        let pristine = e.subst(ABSENT, &Expr::Unit);
        assert_eq!(e.mentions(x), want != *e, "mentions({x}) on {e:?}");
        assert_eq!(substituted(e, x, v), want, "[{v:?}/{x}] {e:?}");
        assert_eq!(*e, pristine, "wrote through a shared command");
    }

    /// `subst_in_place`, `subst_arc` and `mentions` agree with the by-copy
    /// reference on every subterm of the fixtures and of 200 generated
    /// programs, for every variable name the subterm binds or uses (and
    /// one it does not), with closed values of every shape substituted.
    #[test]
    fn subst_in_place_matches_the_reference() {
        let p = PriorityDomain::single().by_index(0);
        let values = [
            nat(7),
            lam("z", Type::Nat, add(var("z"), nat(1))),
            fix(
                "f",
                Type::arrow(Type::Nat, Type::Nat),
                lam("n", Type::Nat, app(var("f"), var("n"))),
            ),
            cmd(p, bind("w", cmd(p, ret(nat(3))), ret(var("w")))),
            pair(
                Expr::RefVal(LocId(4)),
                Expr::Inl(Box::new(Expr::Tid(ThreadSym(2)))),
            ),
        ];
        let mut programs: Vec<Program> = crate::progs::sources::all()
            .into_iter()
            .map(|(_, _, build)| build())
            .collect();
        let config = crate::generate::GenConfig::default();
        programs.extend((0..200).map(|seed| crate::generate::random_program(seed, &config)));
        let mut checks = 0usize;
        for prog in &programs {
            let (mut terms, mut names) = (Vec::new(), Vec::new());
            collect_cmd(&prog.main, &mut terms, &mut names);
            for term in &terms {
                let mut local = Vec::new();
                match term {
                    Term::Expr(e) => collect_expr(e, &mut Vec::new(), &mut local),
                    Term::Cmd(m) => collect_cmd(m, &mut Vec::new(), &mut local),
                }
                local.sort();
                local.dedup();
                local.push(ABSENT.to_string());
                for x in &local {
                    let v = &values[checks % values.len()];
                    match term {
                        Term::Expr(e) => check_expr(e, x, v),
                        Term::Cmd(m) => check_cmd(m, x, v),
                    }
                    checks += 1;
                }
            }
        }
        assert!(checks > 10_000, "only {checks} substitutions checked");
    }

    #[test]
    fn priority_substitution_in_types() {
        let dom = PriorityDomain::numeric(2);
        let hi = dom.by_index(1);
        let pi = PrioVar::new("pi");
        let t = Type::thread(Type::Nat, PrioTerm::Var(pi.clone()));
        let t2 = t.subst_prio(&pi, &PrioTerm::Const(hi));
        assert_eq!(t2, Type::thread(Type::Nat, hi));
        // Binder shadows.
        let poly = Type::Forall(
            pi.clone(),
            Constraint::True,
            Box::new(Type::cmd(Type::Nat, PrioTerm::Var(pi.clone()))),
        );
        let poly2 = poly.subst_prio(&pi, &PrioTerm::Const(hi));
        assert_eq!(poly, poly2);
    }

    #[test]
    fn priority_substitution_in_terms() {
        let dom = PriorityDomain::numeric(2);
        let hi = dom.by_index(1);
        let pi = PrioVar::new("pi");
        let e = cmd(PrioTerm::Var(pi.clone()), ret(nat(1)));
        let e2 = e.subst_prio(&pi, &PrioTerm::Const(hi));
        match e2 {
            Expr::CmdVal(p, _) => assert_eq!(p, PrioTerm::Const(hi)),
            other => panic!("unexpected {other:?}"),
        }
        // PLam over the same variable shadows.
        let shadowed = Expr::PLam(
            pi.clone(),
            Constraint::True,
            Box::new(cmd(PrioTerm::Var(pi.clone()), ret(nat(1)))),
        );
        assert_eq!(shadowed.subst_prio(&pi, &PrioTerm::Const(hi)), shadowed);
    }

    #[test]
    fn seq_builds_nested_binds() {
        let dom = PriorityDomain::single();
        let m = seq(dom.by_index(0), vec![ret(nat(1)), ret(nat(2))], ret(nat(3)));
        // Two nested binds ending in ret 3.
        let mut depth = 0;
        let mut cur = m;
        while let Cmd::Bind { rest, .. } = cur {
            depth += 1;
            cur = rest.as_ref().clone();
        }
        assert_eq!(depth, 2);
        assert_eq!(cur, ret(nat(3)));
    }

    #[test]
    fn display_of_symbols() {
        assert_eq!(format!("{}", LocId(3)), "s3");
        assert_eq!(format!("{}", ThreadSym(2)), "a2");
    }
}
