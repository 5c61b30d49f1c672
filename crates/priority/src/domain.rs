//! Finite, partially ordered priority domains.
//!
//! A [`PriorityDomain`] is an explicit representation of the partially
//! ordered set `R` from which thread priorities are drawn (Section 2.1 of the
//! paper).  Every priority level has a human-readable name and an index; the
//! reflexive-transitive order relation `⪯` is precomputed as a reachability
//! matrix so ordering queries are `O(1)`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A handle to one priority level of a [`PriorityDomain`].
///
/// `Priority` is a plain index; it is only meaningful relative to the domain
/// that produced it.  Handles are `Copy` and order-agnostic: comparing two
/// `Priority` values with `<` compares indices, not the domain's `⪯`
/// relation — always use [`PriorityDomain::leq`] / [`PriorityDomain::lt`]
/// for the semantic order.
///
/// # Example
///
/// ```
/// use rp_priority::PriorityDomain;
/// let dom = PriorityDomain::total_order(["lo", "hi"]).unwrap();
/// let lo = dom.priority("lo").unwrap();
/// assert_eq!(dom.name(lo), "lo");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub(crate) u32);

impl Priority {
    /// The raw index of this priority within its domain.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a priority handle from a raw index.
    ///
    /// This is mostly useful for serialization round-trips; passing an index
    /// that is out of range for the domain it is later used with causes the
    /// domain's query methods to panic.
    pub fn from_index(index: usize) -> Self {
        Priority(index as u32)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ{}", self.0)
    }
}

/// Errors produced while building a [`PriorityDomain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainBuildError {
    /// Two levels were declared with the same name.
    DuplicateName(String),
    /// An ordering edge referred to a level name that was never declared.
    UnknownLevel(String),
    /// The declared order contains a cycle through the named level, so it is
    /// not a partial order.
    CyclicOrder(String),
    /// The domain has no levels at all.
    Empty,
}

impl fmt::Display for DomainBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainBuildError::DuplicateName(n) => write!(f, "duplicate priority level name `{n}`"),
            DomainBuildError::UnknownLevel(n) => write!(f, "unknown priority level `{n}`"),
            DomainBuildError::CyclicOrder(n) => {
                write!(f, "priority order contains a cycle through `{n}`")
            }
            DomainBuildError::Empty => write!(f, "priority domain has no levels"),
        }
    }
}

impl std::error::Error for DomainBuildError {}

/// Builder for [`PriorityDomain`] values with an arbitrary partial order.
///
/// Declare levels with [`level`](Self::level), declare ordering facts
/// `lo ≺ hi` with [`lt`](Self::lt), and finish with
/// [`build`](Self::build), which computes the reflexive-transitive closure
/// and rejects cyclic declarations.
///
/// # Example
///
/// ```
/// use rp_priority::PriorityDomainBuilder;
///
/// // A diamond: bottom ≺ {left, right} ≺ top, with left and right incomparable.
/// let dom = PriorityDomainBuilder::new()
///     .level("bottom")
///     .level("left")
///     .level("right")
///     .level("top")
///     .lt("bottom", "left")
///     .lt("bottom", "right")
///     .lt("left", "top")
///     .lt("right", "top")
///     .build()
///     .unwrap();
/// let l = dom.priority("left").unwrap();
/// let r = dom.priority("right").unwrap();
/// assert!(!dom.leq(l, r) && !dom.leq(r, l));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PriorityDomainBuilder {
    names: Vec<String>,
    index: HashMap<String, u32>,
    duplicates: Vec<String>,
    edges: Vec<(String, String)>,
}

impl PriorityDomainBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a priority level with the given name.
    pub fn level(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.index.contains_key(&name) {
            self.duplicates.push(name);
        } else {
            self.index.insert(name.clone(), self.names.len() as u32);
            self.names.push(name);
        }
        self
    }

    /// Declares the strict ordering fact `lo ≺ hi`.
    pub fn lt(mut self, lo: impl Into<String>, hi: impl Into<String>) -> Self {
        self.edges.push((lo.into(), hi.into()));
        self
    }

    /// Finishes the builder, computing the reflexive-transitive closure of
    /// the declared order.
    ///
    /// # Errors
    ///
    /// Returns [`DomainBuildError`] if a level name was duplicated, an edge
    /// mentions an undeclared level, the order has a cycle, or no level was
    /// declared.
    // Index loops keep the Floyd–Warshall closure and the antisymmetry
    // check readable; iterator forms need row splitting for no gain.
    #[allow(clippy::needless_range_loop)]
    pub fn build(self) -> Result<PriorityDomain, DomainBuildError> {
        if let Some(dup) = self.duplicates.into_iter().next() {
            return Err(DomainBuildError::DuplicateName(dup));
        }
        if self.names.is_empty() {
            return Err(DomainBuildError::Empty);
        }
        let n = self.names.len();
        // leq[i][j] == true  iff  i ⪯ j.
        let mut leq = vec![vec![false; n]; n];
        for (i, row) in leq.iter_mut().enumerate() {
            row[i] = true;
        }
        for (lo, hi) in &self.edges {
            let &lo_ix = self
                .index
                .get(lo)
                .ok_or_else(|| DomainBuildError::UnknownLevel(lo.clone()))?;
            let &hi_ix = self
                .index
                .get(hi)
                .ok_or_else(|| DomainBuildError::UnknownLevel(hi.clone()))?;
            leq[lo_ix as usize][hi_ix as usize] = true;
        }
        // Floyd–Warshall style transitive closure.
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
        // Antisymmetry check: i ⪯ j and j ⪯ i with i ≠ j means the declared
        // strict order has a cycle.
        for i in 0..n {
            for j in 0..n {
                if i != j && leq[i][j] && leq[j][i] {
                    return Err(DomainBuildError::CyclicOrder(self.names[i].clone()));
                }
            }
        }
        Ok(PriorityDomain {
            tables: Arc::new(DomainTables {
                names: self.names,
                index: self.index,
                leq,
            }),
        })
    }
}

/// A finite, partially ordered set of priorities.
///
/// The domain owns the level names and the precomputed `⪯` relation.
/// Priority handles ([`Priority`]) index into it.  The tables are immutable
/// and shared: cloning a domain is a reference-count increment, and two
/// domains are equal when their levels and order are.
///
/// # Example
///
/// ```
/// use rp_priority::PriorityDomain;
/// let dom = PriorityDomain::total_order(["low", "mid", "high"]).unwrap();
/// assert_eq!(dom.len(), 3);
/// let low = dom.priority("low").unwrap();
/// let high = dom.priority("high").unwrap();
/// assert!(dom.lt(low, high));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityDomain {
    tables: Arc<DomainTables>,
}

/// The immutable contents of a [`PriorityDomain`].
#[derive(Debug, PartialEq, Eq)]
struct DomainTables {
    names: Vec<String>,
    index: HashMap<String, u32>,
    /// `leq[i][j]` iff priority `i ⪯ j` (reflexive and transitive).
    leq: Vec<Vec<bool>>,
}

impl PriorityDomain {
    /// Builds a totally ordered domain from level names listed from lowest to
    /// highest.
    ///
    /// # Errors
    ///
    /// Returns an error if names are duplicated or the list is empty.
    pub fn total_order<I, S>(names_low_to_high: I) -> Result<Self, DomainBuildError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names_low_to_high.into_iter().map(Into::into).collect();
        let mut b = PriorityDomainBuilder::new();
        for name in &names {
            b = b.level(name.clone());
        }
        for pair in names.windows(2) {
            b = b.lt(pair[0].clone(), pair[1].clone());
        }
        b.build()
    }

    /// Builds a totally ordered domain with `n` anonymous levels named
    /// `"p0" .. "p{n-1}"`, from lowest (`p0`) to highest.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn numeric(n: usize) -> Self {
        assert!(n > 0, "a priority domain must have at least one level");
        Self::total_order((0..n).map(|i| format!("p{i}")))
            .expect("numeric names are unique and non-empty")
    }

    /// Builds a single-level domain (every thread shares one priority).
    pub fn single() -> Self {
        Self::numeric(1)
    }

    /// Starts a builder for an arbitrary partial order.
    pub fn builder() -> PriorityDomainBuilder {
        PriorityDomainBuilder::new()
    }

    /// Number of priority levels.
    pub fn len(&self) -> usize {
        self.tables.names.len()
    }

    /// Whether the domain has no levels (never true for a built domain).
    pub fn is_empty(&self) -> bool {
        self.tables.names.is_empty()
    }

    /// Looks up a priority level by name.
    pub fn priority(&self, name: &str) -> Option<Priority> {
        self.tables.index.get(name).map(|&i| Priority(i))
    }

    /// The priority with the given raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn by_index(&self, index: usize) -> Priority {
        assert!(index < self.len(), "priority index {index} out of range");
        Priority(index as u32)
    }

    /// The name of a priority level.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this domain (index out of
    /// range).
    pub fn name(&self, p: Priority) -> &str {
        &self.tables.names[p.index()]
    }

    /// Iterates over every priority of the domain, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = Priority> + '_ {
        (0..self.len() as u32).map(Priority)
    }

    /// `ρ₁ ⪯ ρ₂`: is `a` lower than or equal to `b`?
    ///
    /// # Panics
    ///
    /// Panics if either handle is out of range for this domain.
    pub fn leq(&self, a: Priority, b: Priority) -> bool {
        self.tables.leq[a.index()][b.index()]
    }

    /// `ρ₁ ≺ ρ₂`: is `a` strictly lower than `b`?
    pub fn lt(&self, a: Priority, b: Priority) -> bool {
        a != b && self.leq(a, b)
    }

    /// `¬(ρ₁ ≺ ρ₂)`: `a` is *not* strictly lower than `b` — i.e. `a ⊀ b`.
    ///
    /// This is the relation used to define competitor work
    /// `W_{⊀ρ}`: work at priority `ρ'` competes with a thread at priority
    /// `ρ` exactly when `ρ' ⊀ ρ`.
    pub fn not_lt(&self, a: Priority, b: Priority) -> bool {
        !self.lt(a, b)
    }

    /// Are `a` and `b` incomparable under `⪯`?
    pub fn incomparable(&self, a: Priority, b: Priority) -> bool {
        !self.leq(a, b) && !self.leq(b, a)
    }

    /// Returns the maximal elements of the domain (no other level is strictly
    /// above them).
    pub fn maximal(&self) -> Vec<Priority> {
        self.iter()
            .filter(|&p| self.iter().all(|q| !self.lt(p, q)))
            .collect()
    }

    /// Returns the minimal elements of the domain.
    pub fn minimal(&self) -> Vec<Priority> {
        self.iter()
            .filter(|&p| self.iter().all(|q| !self.lt(q, p)))
            .collect()
    }

    /// Whether the domain's order is total.
    pub fn is_total(&self) -> bool {
        self.iter()
            .all(|a| self.iter().all(|b| self.leq(a, b) || self.leq(b, a)))
    }

    /// Returns the priorities sorted by a topological order of `⪯`
    /// (lowest first); within incomparable groups, declaration order is kept.
    pub fn topo_sorted(&self) -> Vec<Priority> {
        let mut ps: Vec<Priority> = self.iter().collect();
        // Count of strictly-lower levels is a valid topological key.
        ps.sort_by_key(|&p| self.iter().filter(|&q| self.lt(q, p)).count());
        ps
    }

    /// Number of levels strictly above `p`.
    pub fn count_strictly_above(&self, p: Priority) -> usize {
        self.iter().filter(|&q| self.lt(p, q)).count()
    }

    /// Number of levels strictly below `p`.
    pub fn count_strictly_below(&self, p: Priority) -> usize {
        self.iter().filter(|&q| self.lt(q, p)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_basic() {
        let d = PriorityDomain::total_order(["a", "b", "c"]).unwrap();
        let a = d.priority("a").unwrap();
        let b = d.priority("b").unwrap();
        let c = d.priority("c").unwrap();
        assert!(d.leq(a, a) && d.leq(b, b) && d.leq(c, c));
        assert!(d.leq(a, b) && d.leq(b, c) && d.leq(a, c));
        assert!(!d.leq(c, a) && !d.leq(b, a));
        assert!(d.lt(a, c) && !d.lt(a, a));
        assert!(d.is_total());
    }

    #[test]
    fn numeric_and_single() {
        let d = PriorityDomain::numeric(4);
        assert_eq!(d.len(), 4);
        assert!(d.lt(d.by_index(0), d.by_index(3)));
        let s = PriorityDomain::single();
        assert_eq!(s.len(), 1);
        assert!(s.leq(s.by_index(0), s.by_index(0)));
    }

    #[test]
    fn partial_order_diamond() {
        let d = PriorityDomain::builder()
            .level("bot")
            .level("l")
            .level("r")
            .level("top")
            .lt("bot", "l")
            .lt("bot", "r")
            .lt("l", "top")
            .lt("r", "top")
            .build()
            .unwrap();
        let l = d.priority("l").unwrap();
        let r = d.priority("r").unwrap();
        let bot = d.priority("bot").unwrap();
        let top = d.priority("top").unwrap();
        assert!(d.incomparable(l, r));
        assert!(d.leq(bot, top));
        assert!(!d.is_total());
        assert_eq!(d.maximal(), vec![top]);
        assert_eq!(d.minimal(), vec![bot]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let err = PriorityDomain::total_order(["a", "a"]).unwrap_err();
        assert_eq!(err, DomainBuildError::DuplicateName("a".into()));
    }

    #[test]
    fn unknown_level_rejected() {
        let err = PriorityDomain::builder()
            .level("a")
            .lt("a", "zzz")
            .build()
            .unwrap_err();
        assert_eq!(err, DomainBuildError::UnknownLevel("zzz".into()));
    }

    #[test]
    fn cycle_rejected() {
        let err = PriorityDomain::builder()
            .level("a")
            .level("b")
            .lt("a", "b")
            .lt("b", "a")
            .build()
            .unwrap_err();
        assert!(matches!(err, DomainBuildError::CyclicOrder(_)));
    }

    #[test]
    fn empty_rejected() {
        let err = PriorityDomainBuilder::new().build().unwrap_err();
        assert_eq!(err, DomainBuildError::Empty);
    }

    #[test]
    fn not_lt_matches_definition() {
        let d = PriorityDomain::numeric(3);
        let p0 = d.by_index(0);
        let p2 = d.by_index(2);
        // p2 ⊀ p0 is false only if p2 ≺ p0; here p2 ≻ p0 so not_lt(p2, p0) is true.
        assert!(d.not_lt(p2, p0));
        assert!(!d.not_lt(p0, p2));
        assert!(d.not_lt(p0, p0));
    }

    #[test]
    fn topo_sorted_respects_order() {
        let d = PriorityDomain::builder()
            .level("hi")
            .level("lo")
            .lt("lo", "hi")
            .build()
            .unwrap();
        let sorted = d.topo_sorted();
        assert_eq!(d.name(sorted[0]), "lo");
        assert_eq!(d.name(sorted[1]), "hi");
    }

    #[test]
    fn counts_above_below() {
        let d = PriorityDomain::numeric(5);
        let p2 = d.by_index(2);
        assert_eq!(d.count_strictly_above(p2), 2);
        assert_eq!(d.count_strictly_below(p2), 2);
    }

    #[test]
    fn clones_share_tables_and_equality_compares_contents() {
        let d = PriorityDomain::numeric(3);
        let c = d.clone();
        assert!(
            Arc::ptr_eq(&d.tables, &c.tables),
            "a clone shares the tables"
        );
        assert_eq!(c, d);
        // Built separately: different tables, same contents.
        let rebuilt = PriorityDomain::total_order(["p0", "p1", "p2"]).unwrap();
        assert!(!Arc::ptr_eq(&d.tables, &rebuilt.tables));
        assert_eq!(rebuilt, d);
        assert_ne!(PriorityDomain::numeric(2), d);
        let renamed = PriorityDomain::total_order(["a", "b", "c"]).unwrap();
        assert_ne!(renamed, d, "equal shape, different names");
        let reversed = PriorityDomain::total_order(["p2", "p1", "p0"]).unwrap();
        assert_ne!(reversed, d, "same names, different order");
    }

    #[test]
    fn debug_output_names_the_levels() {
        let d = PriorityDomain::numeric(3);
        assert!(format!("{d:?}").contains("p0"));
    }
}
