//! Priority constraints and the entailment judgment `Γ ⊢^R C`.
//!
//! Figure 4 of the paper defines the constraint language
//! `C ::= ρ ⪯ ρ | C ∧ C`, and Figure 7 defines when a context `Γ` (a set of
//! hypothesised constraints over priority variables) entails a constraint:
//!
//! * **hyp** — the constraint literally appears among the hypotheses;
//! * **assume** — the constraint is between two concrete priorities and holds
//!   in the ambient ordered set `R`;
//! * **refl** — `ρ ⪯ ρ`;
//! * **trans** — `ρ₁ ⪯ ρ₂` and `ρ₂ ⪯ ρ₃` entail `ρ₁ ⪯ ρ₃`;
//! * **conj** — both conjuncts are entailed.
//!
//! [`ConstraintCtx::entails`] implements this judgment by saturating the set
//! of known `⪯` facts over the (finite) set of terms mentioned anywhere in
//! the hypotheses, the ambient domain, and the goal.

use crate::domain::PriorityDomain;
use crate::var::{PrioSubst, PrioTerm, PrioVar};
use std::fmt;

/// A priority constraint `C ::= ρ ⪯ ρ | C ∧ C`.
///
/// # Example
///
/// ```
/// use rp_priority::{Constraint, PrioTerm, PriorityDomain};
/// let dom = PriorityDomain::numeric(3);
/// let c = Constraint::leq(dom.by_index(0), dom.by_index(2))
///     .and(Constraint::leq(dom.by_index(1), dom.by_index(2)));
/// assert_eq!(c.conjuncts().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `lhs ⪯ rhs`.
    Leq {
        /// The lower side of the constraint.
        lhs: PrioTerm,
        /// The upper side of the constraint.
        rhs: PrioTerm,
    },
    /// Conjunction of two constraints.
    And(Box<Constraint>, Box<Constraint>),
    /// The trivially true constraint (empty conjunction).
    ///
    /// Not part of the paper's grammar, but convenient as the constraint of a
    /// monomorphic abstraction; it is entailed by every context.
    True,
}

impl Constraint {
    /// Builds the atomic constraint `lhs ⪯ rhs`.
    pub fn leq(lhs: impl Into<PrioTerm>, rhs: impl Into<PrioTerm>) -> Self {
        Constraint::Leq {
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// Conjoins two constraints.
    pub fn and(self, other: Constraint) -> Self {
        Constraint::And(Box::new(self), Box::new(other))
    }

    /// Builds the conjunction of an iterator of constraints ([`Constraint::True`]
    /// if empty).
    pub fn all(cs: impl IntoIterator<Item = Constraint>) -> Self {
        let mut iter = cs.into_iter();
        match iter.next() {
            None => Constraint::True,
            Some(first) => iter.fold(first, |acc, c| acc.and(c)),
        }
    }

    /// Flattens the constraint into its atomic `⪯` conjuncts.
    pub fn conjuncts(&self) -> Vec<(&PrioTerm, &PrioTerm)> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<(&'a PrioTerm, &'a PrioTerm)>) {
        match self {
            Constraint::Leq { lhs, rhs } => out.push((lhs, rhs)),
            Constraint::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            Constraint::True => {}
        }
    }

    /// Applies a priority substitution to every term in the constraint.
    pub fn subst(&self, s: &PrioSubst) -> Constraint {
        match self {
            Constraint::Leq { lhs, rhs } => Constraint::Leq {
                lhs: lhs.subst(s),
                rhs: rhs.subst(s),
            },
            Constraint::And(a, b) => Constraint::And(Box::new(a.subst(s)), Box::new(b.subst(s))),
            Constraint::True => Constraint::True,
        }
    }

    /// Collects the free priority variables of the constraint.
    pub fn free_vars(&self) -> Vec<PrioVar> {
        let mut out = Vec::new();
        for (l, r) in self.conjuncts() {
            l.free_vars(&mut out);
            r.free_vars(&mut out);
        }
        out
    }

    /// Whether the constraint mentions no priority variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Leq { lhs, rhs } => write!(f, "{lhs} ⪯ {rhs}"),
            Constraint::And(a, b) => write!(f, "{a} ∧ {b}"),
            Constraint::True => write!(f, "⊤"),
        }
    }
}

/// Errors reported by entailment checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntailmentError {
    /// The goal constraint is not entailed; carries the first failing atomic
    /// conjunct rendered as text.
    NotEntailed(String),
}

impl fmt::Display for EntailmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntailmentError::NotEntailed(c) => write!(f, "constraint not entailed: {c}"),
        }
    }
}

impl std::error::Error for EntailmentError {}

/// A constraint context `Γ` restricted to its priority hypotheses: the
/// declared priority variables (`π prio`) and the hypothesised constraints.
///
/// # Example
///
/// ```
/// use rp_priority::{Constraint, ConstraintCtx, PrioTerm, PrioVar, PriorityDomain};
/// let dom = PriorityDomain::numeric(3);
/// let mut ctx = ConstraintCtx::new();
/// ctx.declare(PrioVar::new("pi"));
/// // Hypothesis: p1 ⪯ pi.
/// ctx.assume(Constraint::leq(dom.by_index(1), PrioTerm::var("pi")));
/// // Goal p0 ⪯ pi follows by trans through the ambient order p0 ⪯ p1.
/// let goal = Constraint::leq(dom.by_index(0), PrioTerm::var("pi"));
/// assert!(ctx.entails(&dom, &goal));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintCtx {
    vars: Vec<PrioVar>,
    hyps: Vec<Constraint>,
}

impl ConstraintCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a priority variable (`π prio`).
    pub fn declare(&mut self, var: PrioVar) {
        if !self.vars.contains(&var) {
            self.vars.push(var);
        }
    }

    /// Whether a priority variable has been declared.
    pub fn is_declared(&self, var: &PrioVar) -> bool {
        self.vars.contains(var)
    }

    /// Adds a hypothesised constraint.
    pub fn assume(&mut self, c: Constraint) {
        self.hyps.push(c);
    }

    /// The declared priority variables.
    pub fn vars(&self) -> &[PrioVar] {
        &self.vars
    }

    /// The hypothesised constraints.
    pub fn hypotheses(&self) -> &[Constraint] {
        &self.hyps
    }

    /// The entailment judgment `Γ ⊢^R C` (Figure 7).
    ///
    /// Returns `true` iff every atomic conjunct of `goal` follows from the
    /// hypotheses of this context, the order of `domain`, reflexivity, and
    /// transitivity.
    pub fn entails(&self, domain: &PriorityDomain, goal: &Constraint) -> bool {
        self.check(domain, goal).is_ok()
    }

    /// Like [`entails`](Self::entails) but reports which conjunct failed.
    ///
    /// # Errors
    ///
    /// Returns [`EntailmentError::NotEntailed`] describing the first atomic
    /// conjunct that could not be derived.
    // Index loops keep the transitive closure readable (see
    // `PriorityDomainBuilder::build`).
    #[allow(clippy::needless_range_loop)]
    pub fn check(&self, domain: &PriorityDomain, goal: &Constraint) -> Result<(), EntailmentError> {
        // Universe of terms: everything mentioned in hypotheses or the goal,
        // plus every concrete priority of the domain (so `assume` and
        // transitivity through concrete priorities work).
        let mut universe: Vec<PrioTerm> = Vec::new();
        let push = |t: &PrioTerm, universe: &mut Vec<PrioTerm>| {
            if !universe.contains(t) {
                universe.push(t.clone());
            }
        };
        for p in domain.iter() {
            push(&PrioTerm::Const(p), &mut universe);
        }
        for h in &self.hyps {
            for (l, r) in h.conjuncts() {
                push(l, &mut universe);
                push(r, &mut universe);
            }
        }
        for (l, r) in goal.conjuncts() {
            push(l, &mut universe);
            push(r, &mut universe);
        }

        let n = universe.len();
        let ix = |t: &PrioTerm| universe.iter().position(|u| u == t).expect("in universe");

        // leq[i][j] = i ⪯ j is known.
        let mut leq = vec![vec![false; n]; n];
        // refl
        for (i, row) in leq.iter_mut().enumerate() {
            row[i] = true;
        }
        // assume: ambient order between concrete priorities.
        for (i, ti) in universe.iter().enumerate() {
            for (j, tj) in universe.iter().enumerate() {
                if let (Some(pi), Some(pj)) = (ti.as_const(), tj.as_const()) {
                    if domain.leq(pi, pj) {
                        leq[i][j] = true;
                    }
                }
            }
        }
        // hyp
        for h in &self.hyps {
            for (l, r) in h.conjuncts() {
                leq[ix(l)][ix(r)] = true;
            }
        }
        // trans: transitive closure.
        for k in 0..n {
            for i in 0..n {
                if leq[i][k] {
                    for j in 0..n {
                        if leq[k][j] {
                            leq[i][j] = true;
                        }
                    }
                }
            }
        }
        // conj: every conjunct of the goal must hold.
        for (l, r) in goal.conjuncts() {
            if !leq[ix(l)][ix(r)] {
                return Err(EntailmentError::NotEntailed(format!("{l} ⪯ {r}")));
            }
        }
        Ok(())
    }
}

/// Entailment with an empty context; only closed constraints can hold.
impl PriorityDomain {
    /// `· ⊢^R C` for a closed constraint `C`: every conjunct holds in the
    /// ambient order.
    ///
    /// Open constraints (mentioning priority variables) are never entailed by
    /// the empty context unless they are instances of reflexivity.
    pub fn entails_closed(&self, goal: &Constraint) -> bool {
        ConstraintCtx::new().entails(self, goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> PriorityDomain {
        PriorityDomain::total_order(["lo", "mid", "hi"]).unwrap()
    }

    #[test]
    fn assume_rule_concrete_order() {
        let d = dom();
        let lo = d.priority("lo").unwrap();
        let hi = d.priority("hi").unwrap();
        assert!(d.entails_closed(&Constraint::leq(lo, hi)));
        assert!(!d.entails_closed(&Constraint::leq(hi, lo)));
    }

    #[test]
    fn refl_rule() {
        let d = dom();
        let mid = d.priority("mid").unwrap();
        assert!(d.entails_closed(&Constraint::leq(mid, mid)));
        // Reflexivity also holds for variables, even undeclared ones.
        let ctx = ConstraintCtx::new();
        assert!(ctx.entails(
            &d,
            &Constraint::leq(PrioTerm::var("pi"), PrioTerm::var("pi"))
        ));
    }

    #[test]
    fn hyp_rule() {
        let d = dom();
        let mut ctx = ConstraintCtx::new();
        ctx.declare(PrioVar::new("pi"));
        let hyp = Constraint::leq(PrioTerm::var("pi"), d.priority("mid").unwrap());
        ctx.assume(hyp.clone());
        assert!(ctx.entails(&d, &hyp));
    }

    #[test]
    fn trans_rule_through_variable() {
        let d = dom();
        let mut ctx = ConstraintCtx::new();
        ctx.declare(PrioVar::new("pi"));
        ctx.assume(Constraint::leq(
            PrioTerm::var("pi"),
            d.priority("mid").unwrap(),
        ));
        // pi ⪯ mid and mid ⪯ hi (ambient) gives pi ⪯ hi.
        assert!(ctx.entails(
            &d,
            &Constraint::leq(PrioTerm::var("pi"), d.priority("hi").unwrap())
        ));
        // But not pi ⪯ lo.
        assert!(!ctx.entails(
            &d,
            &Constraint::leq(PrioTerm::var("pi"), d.priority("lo").unwrap())
        ));
    }

    #[test]
    fn conj_rule() {
        let d = dom();
        let lo = d.priority("lo").unwrap();
        let mid = d.priority("mid").unwrap();
        let hi = d.priority("hi").unwrap();
        let both = Constraint::leq(lo, mid).and(Constraint::leq(mid, hi));
        assert!(d.entails_closed(&both));
        let bad = Constraint::leq(lo, mid).and(Constraint::leq(hi, lo));
        assert!(!d.entails_closed(&bad));
    }

    #[test]
    fn true_constraint_always_entailed() {
        let d = dom();
        assert!(d.entails_closed(&Constraint::True));
        assert!(d.entails_closed(&Constraint::all(Vec::new())));
    }

    #[test]
    fn check_reports_failing_conjunct() {
        let d = dom();
        let hi = d.priority("hi").unwrap();
        let lo = d.priority("lo").unwrap();
        let err = ConstraintCtx::new()
            .check(&d, &Constraint::leq(hi, lo))
            .unwrap_err();
        assert!(matches!(err, EntailmentError::NotEntailed(_)));
        assert!(err.to_string().contains("⪯"));
    }

    #[test]
    fn subst_then_entail_models_forall_elim() {
        // (Λπ ∼ π ⪯ hi . e)[mid] requires · ⊢ mid ⪯ hi after substitution.
        let d = dom();
        let c = Constraint::leq(PrioTerm::var("pi"), d.priority("hi").unwrap());
        let subst = PrioSubst::single(PrioVar::new("pi"), d.priority("mid").unwrap());
        assert!(d.entails_closed(&c.subst(&subst)));
        let bad_subst = PrioSubst::single(PrioVar::new("pi"), d.priority("hi").unwrap());
        // hi ⪯ hi still fine (refl)…
        assert!(d.entails_closed(&c.subst(&bad_subst)));
        // …but the reverse constraint is not satisfied by mid.
        let c_rev = Constraint::leq(d.priority("hi").unwrap(), PrioTerm::var("pi"));
        assert!(!d.entails_closed(&c_rev.subst(&subst)));
    }

    #[test]
    fn free_vars_and_closed() {
        let d = dom();
        let c = Constraint::leq(PrioTerm::var("a"), d.priority("lo").unwrap())
            .and(Constraint::leq(PrioTerm::var("b"), PrioTerm::var("a")));
        let fv = c.free_vars();
        assert_eq!(fv.len(), 2);
        assert!(!c.is_closed());
        assert!(Constraint::leq(d.priority("lo").unwrap(), d.priority("hi").unwrap()).is_closed());
    }

    #[test]
    fn display_is_readable() {
        let d = dom();
        let c = Constraint::leq(d.priority("lo").unwrap(), d.priority("hi").unwrap())
            .and(Constraint::True);
        let s = format!("{c}");
        assert!(s.contains("⪯") && s.contains("∧"));
    }

    #[test]
    fn incomparable_levels_not_entailed_either_way() {
        let d = PriorityDomain::builder()
            .level("bot")
            .level("l")
            .level("r")
            .lt("bot", "l")
            .lt("bot", "r")
            .build()
            .unwrap();
        let l = d.priority("l").unwrap();
        let r = d.priority("r").unwrap();
        assert!(!d.entails_closed(&Constraint::leq(l, r)));
        assert!(!d.entails_closed(&Constraint::leq(r, l)));
    }
}
