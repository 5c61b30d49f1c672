//! Priority variables and priority terms.
//!
//! λ⁴ᵢ supports priority polymorphism: an expression `Λπ ∼ C. e` abstracts
//! over a priority variable `π` subject to constraints `C`, and the
//! elimination form `v[ρ′]` instantiates it (rules ∀I / ∀E of Figure 5).
//! A [`PrioTerm`] is therefore either a concrete [`Priority`] of a domain or
//! a [`PrioVar`]; substitutions ([`PrioSubst`]) map variables to terms.

use crate::domain::Priority;
use std::collections::HashMap;
use std::fmt;

/// A priority variable `π`, identified by name.
///
/// # Example
///
/// ```
/// use rp_priority::PrioVar;
/// let pi = PrioVar::new("pi");
/// assert_eq!(pi.name(), "pi");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrioVar(String);

impl PrioVar {
    /// Creates a priority variable with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        PrioVar(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PrioVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PrioVar {
    fn from(s: &str) -> Self {
        PrioVar::new(s)
    }
}

/// A priority term: either a concrete priority or a priority variable.
///
/// # Example
///
/// ```
/// use rp_priority::{PrioTerm, PrioVar, PriorityDomain};
/// let dom = PriorityDomain::numeric(2);
/// let hi = dom.by_index(1);
/// let t1 = PrioTerm::Const(hi);
/// let t2 = PrioTerm::Var(PrioVar::new("pi"));
/// assert!(t1.is_const());
/// assert!(!t2.is_const());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PrioTerm {
    /// A concrete priority level of the ambient domain.
    Const(Priority),
    /// A priority variable bound by a `Λπ ∼ C` abstraction.
    Var(PrioVar),
}

impl PrioTerm {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        PrioTerm::Var(PrioVar::new(name))
    }

    /// Whether this term is a concrete priority.
    pub fn is_const(&self) -> bool {
        matches!(self, PrioTerm::Const(_))
    }

    /// Returns the concrete priority if this term is constant.
    pub fn as_const(&self) -> Option<Priority> {
        match self {
            PrioTerm::Const(p) => Some(*p),
            PrioTerm::Var(_) => None,
        }
    }

    /// Returns the variable if this term is a variable.
    pub fn as_var(&self) -> Option<&PrioVar> {
        match self {
            PrioTerm::Const(_) => None,
            PrioTerm::Var(v) => Some(v),
        }
    }

    /// Applies a substitution to this term.
    pub fn subst(&self, s: &PrioSubst) -> PrioTerm {
        match self {
            PrioTerm::Const(p) => PrioTerm::Const(*p),
            PrioTerm::Var(v) => s.get(v).cloned().unwrap_or_else(|| self.clone()),
        }
    }

    /// Collects the free priority variables of this term into `out`.
    pub fn free_vars(&self, out: &mut Vec<PrioVar>) {
        if let PrioTerm::Var(v) = self {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
    }
}

impl fmt::Display for PrioTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrioTerm::Const(p) => write!(f, "{p}"),
            PrioTerm::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<Priority> for PrioTerm {
    fn from(p: Priority) -> Self {
        PrioTerm::Const(p)
    }
}

impl From<PrioVar> for PrioTerm {
    fn from(v: PrioVar) -> Self {
        PrioTerm::Var(v)
    }
}

/// A substitution `[ρ′/π]` mapping priority variables to priority terms.
///
/// Substitutions compose left-to-right: applying `s` to a term first replaces
/// each variable by its image under `s`; images are *not* re-substituted, so
/// build the substitution in already-resolved form (as the λ⁴ᵢ typing rules
/// do: the ∀E rule substitutes a single concrete priority).
///
/// # Example
///
/// ```
/// use rp_priority::{PrioSubst, PrioTerm, PrioVar, PriorityDomain};
/// let dom = PriorityDomain::numeric(2);
/// let mut s = PrioSubst::new();
/// s.bind(PrioVar::new("pi"), PrioTerm::Const(dom.by_index(1)));
/// let t = PrioTerm::var("pi").subst(&s);
/// assert_eq!(t.as_const(), Some(dom.by_index(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrioSubst {
    map: HashMap<PrioVar, PrioTerm>,
}

impl PrioSubst {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a substitution binding a single variable.
    pub fn single(var: PrioVar, term: impl Into<PrioTerm>) -> Self {
        let mut s = Self::new();
        s.bind(var, term);
        s
    }

    /// Adds (or replaces) a binding.
    pub fn bind(&mut self, var: PrioVar, term: impl Into<PrioTerm>) {
        self.map.insert(var, term.into());
    }

    /// Looks up the image of a variable.
    pub fn get(&self, var: &PrioVar) -> Option<&PrioTerm> {
        self.map.get(var)
    }

    /// Whether the substitution binds no variables.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&PrioVar, &PrioTerm)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PriorityDomain;

    #[test]
    fn subst_replaces_bound_var_only() {
        let dom = PriorityDomain::numeric(3);
        let hi = dom.by_index(2);
        let s = PrioSubst::single(PrioVar::new("pi"), PrioTerm::Const(hi));
        assert_eq!(PrioTerm::var("pi").subst(&s), PrioTerm::Const(hi));
        assert_eq!(PrioTerm::var("rho").subst(&s), PrioTerm::var("rho"));
        assert_eq!(
            PrioTerm::Const(dom.by_index(0)).subst(&s),
            PrioTerm::Const(dom.by_index(0))
        );
    }

    #[test]
    fn free_vars_dedup() {
        let mut out = Vec::new();
        PrioTerm::var("a").free_vars(&mut out);
        PrioTerm::var("a").free_vars(&mut out);
        PrioTerm::var("b").free_vars(&mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn display_forms() {
        let dom = PriorityDomain::numeric(1);
        assert_eq!(format!("{}", PrioTerm::Const(dom.by_index(0))), "ρ0");
        assert_eq!(format!("{}", PrioTerm::var("pi")), "pi");
    }

    #[test]
    fn subst_accessors() {
        let mut s = PrioSubst::new();
        assert!(s.is_empty());
        s.bind(PrioVar::new("x"), PrioTerm::var("y"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.get(&PrioVar::new("x")), Some(&PrioTerm::var("y")));
    }

    #[test]
    fn conversions() {
        let dom = PriorityDomain::numeric(1);
        let p = dom.by_index(0);
        let t: PrioTerm = p.into();
        assert_eq!(t.as_const(), Some(p));
        let v: PrioTerm = PrioVar::new("pi").into();
        assert_eq!(v.as_var().unwrap().name(), "pi");
        let from_str: PrioVar = "q".into();
        assert_eq!(from_str.name(), "q");
    }
}
