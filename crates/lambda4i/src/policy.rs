//! Thread-selection policies for the D-Par rule.
//!
//! The D-Par rule of the cost semantics may step any subset of the runnable
//! threads.  Theorem 3.8 additionally assumes threads are chosen in a
//! *prompt* manner; the run driver therefore parameterises the choice with a
//! [`SelectionPolicy`]:
//!
//! * [`SelectionPolicy::Prompt`] — choose up to `P` runnable threads such
//!   that no unchosen runnable thread has strictly higher priority
//!   (the paper's prompt principle, and the policy I-Cilk approximates);
//! * [`SelectionPolicy::Oblivious`] — choose up to `P` runnable threads in
//!   creation order, ignoring priorities (the Cilk-F baseline);
//! * [`SelectionPolicy::Random`] — choose a uniformly random subset of size
//!   up to `P` (a chaos-monkey policy used in property tests).

use crate::syntax::ThreadSym;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rp_priority::{Priority, PriorityDomain};
use std::collections::VecDeque;

/// How the run driver picks which runnable threads step at each parallel
/// step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Priority-greedy (prompt) selection.
    #[default]
    Prompt,
    /// Priority-oblivious FIFO selection (by thread creation order).
    Oblivious,
    /// Uniformly random selection with the given seed.
    Random {
        /// PRNG seed for reproducibility.
        seed: u64,
    },
}

/// Stateful selector produced from a [`SelectionPolicy`].
#[derive(Debug)]
pub struct Selector {
    policy: SelectionPolicy,
    rng: Option<StdRng>,
}

impl Selector {
    /// Creates a selector for a policy.
    pub fn new(policy: SelectionPolicy) -> Self {
        let rng = match policy {
            SelectionPolicy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        Selector { policy, rng }
    }

    /// The policy this selector implements.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Chooses up to `cores` of the runnable threads to step this round.
    ///
    /// `runnable` provides each runnable thread's symbol and priority.  The
    /// returned vector never exceeds `cores` entries and is a subset of
    /// `runnable`.
    pub fn select(
        &mut self,
        domain: &PriorityDomain,
        runnable: &[(ThreadSym, Priority)],
        cores: usize,
    ) -> Vec<ThreadSym> {
        if runnable.is_empty() || cores == 0 {
            return Vec::new();
        }
        match self.policy {
            SelectionPolicy::Prompt => {
                let mut pool: Vec<(ThreadSym, Priority)> = runnable.to_vec();
                let mut picked = Vec::new();
                while picked.len() < cores && !pool.is_empty() {
                    // Take a thread that no remaining thread strictly
                    // outranks.
                    let pos = pool
                        .iter()
                        .position(|&(_, p)| pool.iter().all(|&(_, q)| !domain.lt(p, q)))
                        .expect("a maximal element exists in a finite non-empty pool");
                    picked.push(pool.remove(pos).0);
                }
                picked
            }
            SelectionPolicy::Oblivious => {
                let mut pool: Vec<ThreadSym> = runnable.iter().map(|&(s, _)| s).collect();
                pool.sort();
                pool.truncate(cores);
                pool
            }
            SelectionPolicy::Random { .. } => {
                let rng = self.rng.as_mut().expect("random policy has an rng");
                let mut pool: Vec<ThreadSym> = runnable.iter().map(|&(s, _)| s).collect();
                pool.shuffle(rng);
                pool.truncate(cores);
                pool
            }
        }
    }
}

/// A selector that replays an explicit per-step script of thread choices and
/// falls back to an ordinary [`Selector`] once the script is exhausted.
///
/// This is the scheduling half of the explicit-schedule driver
/// ([`crate::run::run_with_schedule`]): the DPOR explorer records, for each
/// parallel step, exactly which threads stepped, and replays a prefix of that
/// script with a different choice at the divergence point.  Scripted entries
/// that name threads which are not currently runnable are skipped rather
/// than rejected — a replayed prefix may legitimately race past the point
/// where a thread finished — so a scripted step can select fewer threads
/// than written, even zero.  Scripted steps are taken verbatim and are *not*
/// truncated to the core count; the script's author is responsible for
/// respecting the machine width it intends to model.
#[derive(Debug)]
pub struct ScriptedSelector {
    script: VecDeque<Vec<ThreadSym>>,
    fallback: Selector,
}

impl ScriptedSelector {
    /// Creates a selector that replays `script` and then follows `fallback`.
    pub fn new(
        script: impl IntoIterator<Item = Vec<ThreadSym>>,
        fallback: SelectionPolicy,
    ) -> Self {
        ScriptedSelector {
            script: script.into_iter().collect(),
            fallback: Selector::new(fallback),
        }
    }

    /// Number of scripted steps not yet consumed.
    pub fn remaining(&self) -> usize {
        self.script.len()
    }

    /// Chooses the threads to step this round: the next scripted entry
    /// (filtered to currently runnable threads), or the fallback policy's
    /// choice once the script is exhausted.
    pub fn select(
        &mut self,
        domain: &PriorityDomain,
        runnable: &[(ThreadSym, Priority)],
        cores: usize,
    ) -> Vec<ThreadSym> {
        match self.script.pop_front() {
            Some(step) => step
                .into_iter()
                .filter(|s| runnable.iter().any(|&(r, _)| r == *s))
                .collect(),
            None => self.fallback.select(domain, runnable, cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PriorityDomain, Vec<(ThreadSym, Priority)>) {
        let dom = PriorityDomain::total_order(["lo", "mid", "hi"]).unwrap();
        let lo = dom.priority("lo").unwrap();
        let mid = dom.priority("mid").unwrap();
        let hi = dom.priority("hi").unwrap();
        let runnable = vec![
            (ThreadSym(0), lo),
            (ThreadSym(1), hi),
            (ThreadSym(2), mid),
            (ThreadSym(3), hi),
        ];
        (dom, runnable)
    }

    #[test]
    fn prompt_prefers_highest_priority() {
        let (dom, runnable) = setup();
        let mut sel = Selector::new(SelectionPolicy::Prompt);
        let picked = sel.select(&dom, &runnable, 2);
        assert_eq!(picked, vec![ThreadSym(1), ThreadSym(3)]);
        // With more cores than threads, everything is picked.
        let picked = sel.select(&dom, &runnable, 10);
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn oblivious_is_fifo_by_creation() {
        let (dom, runnable) = setup();
        let mut sel = Selector::new(SelectionPolicy::Oblivious);
        let picked = sel.select(&dom, &runnable, 2);
        assert_eq!(picked, vec![ThreadSym(0), ThreadSym(1)]);
    }

    #[test]
    fn random_is_reproducible_and_bounded() {
        let (dom, runnable) = setup();
        let mut a = Selector::new(SelectionPolicy::Random { seed: 3 });
        let mut b = Selector::new(SelectionPolicy::Random { seed: 3 });
        assert_eq!(a.select(&dom, &runnable, 2), b.select(&dom, &runnable, 2));
        assert!(a.select(&dom, &runnable, 3).len() <= 3);
    }

    #[test]
    fn empty_and_zero_cores() {
        let (dom, runnable) = setup();
        let mut sel = Selector::new(SelectionPolicy::Prompt);
        assert!(sel.select(&dom, &[], 4).is_empty());
        assert!(sel.select(&dom, &runnable, 0).is_empty());
    }

    #[test]
    fn default_policy_is_prompt() {
        assert_eq!(SelectionPolicy::default(), SelectionPolicy::Prompt);
    }

    #[test]
    fn scripted_selector_replays_then_falls_back() {
        let (dom, runnable) = setup();
        let mut sel = ScriptedSelector::new(
            vec![vec![ThreadSym(2)], vec![ThreadSym(9), ThreadSym(0)]],
            SelectionPolicy::Oblivious,
        );
        assert_eq!(sel.remaining(), 2);
        // Scripted entries are returned verbatim (ignoring cores).
        assert_eq!(sel.select(&dom, &runnable, 1), vec![ThreadSym(2)]);
        // Non-runnable scripted threads are skipped, not errors.
        assert_eq!(sel.select(&dom, &runnable, 1), vec![ThreadSym(0)]);
        assert_eq!(sel.remaining(), 0);
        // Exhausted script falls back to the wrapped policy.
        assert_eq!(
            sel.select(&dom, &runnable, 2),
            vec![ThreadSym(0), ThreadSym(1)]
        );
    }
}
