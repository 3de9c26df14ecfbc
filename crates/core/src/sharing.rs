//! Certified search facts shared across portfolio workers.
//!
//! A minimize portfolio races several budget schedules over one instance.
//! Each worker's probes produce *certified* facts — "no strategy with
//! ≤ `k` steps exists under budget `p`" (an UNSAT answer), or the
//! stronger "… at *any* budget" (an UNSAT whose assumption core contains
//! no budget literal). [`SharedSearchState`] is the blackboard those facts
//! land on, so every worker prunes with everything any rival has proven:
//!
//! - the **monotonicity table** maps budgets to the largest refuted step
//!   count; solvability is monotone in both steps and pebbles, so a probe
//!   at budget `p` resumes its deepening above any `k` refuted under an
//!   equal-or-looser budget;
//! - **universal entries** (budget [`UNIVERSAL_BUDGET`]) record step
//!   counts refuted independently of the budget, derived from unsat cores
//!   that name only final-state assumptions — those prune *every* worker
//!   at *every* budget;
//! - the **budget floor** is the smallest budget not yet ruled out: a
//!   probe that exhausts the whole step range `k ≤ max_steps` with UNSAT
//!   answers at budget `p` raises the floor to `p + 1`, and every worker
//!   skips budgets below the floor without issuing a single query.
//!
//! # Certification scope
//!
//! Monotonicity-table entries (including universal ones) are absolute:
//! they are backed by UNSAT proofs and hold for the instance, full stop.
//! The budget *floor* is certified **relative to the step cap**
//! (`SolverOptions::max_steps`) the workers share: "budget `p` admits no
//! strategy within `max_steps` steps". That matches the paper's Table I
//! notion of feasibility (which is itself timeout-capped), but a floor
//! raised under a small cap must not be reused under a larger one —
//! which is why the portfolio only shares this state between workers
//! with identical encodings and step caps.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Budget key for monotonicity-table entries that hold at *every* budget
/// (the unsat core named no budget assumption).
pub const UNIVERSAL_BUDGET: usize = usize::MAX;

/// A blackboard of certified search facts, shared by every worker of one
/// minimize race (or owned privately by a single incremental search). See
/// the [module documentation](self).
#[derive(Debug, Default)]
pub struct SharedSearchState {
    /// `(budget, k)`: the largest step count refuted under each probed
    /// budget ([`UNIVERSAL_BUDGET`] = refuted at every budget).
    refuted: Mutex<Vec<(usize, usize)>>,
    /// Smallest budget not yet ruled out (certified up to the step cap).
    floor: AtomicUsize,
    /// Universal step refutations recorded from budget-free unsat cores.
    step_tightenings: AtomicU64,
    /// Times the budget floor was raised by an exhausted probe.
    floor_raises: AtomicU64,
}

impl SharedSearchState {
    /// Creates an empty blackboard (floor 0, no refutations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the floor to a bound known by other means — the structural
    /// lower bound, or the floor proven without SAT
    /// ([`subdag_lower_bound`](crate::bounds::subdag_lower_bound)) that
    /// every run of an unweighted minimize or frontier session is primed
    /// with — without counting it as a search-derived tightening. Such a
    /// bound holds at every step count, so it is sound under any cap.
    pub fn prime_floor(&self, floor: usize) {
        self.floor.fetch_max(floor, Ordering::Relaxed);
    }

    /// The smallest budget not yet ruled out.
    pub fn floor(&self) -> usize {
        self.floor.load(Ordering::Relaxed)
    }

    /// Largest step count already refuted for budget `p`, combining
    /// refutations recorded under equal or looser budgets (solvability is
    /// monotone in the budget) and universal entries.
    pub fn known_refuted_k(&self, p: usize) -> Option<usize> {
        self.refuted
            .lock()
            .expect("refutation table poisoned")
            .iter()
            .filter(|&&(q, _)| q >= p)
            .map(|&(_, k)| k)
            .max()
    }

    /// Records "no strategy with ≤ `k` steps under budget `p`".
    pub fn record_refuted(&self, p: usize, k: usize) {
        let mut table = self.refuted.lock().expect("refutation table poisoned");
        match table.iter_mut().find(|(q, _)| *q == p) {
            Some((_, max_k)) => *max_k = (*max_k).max(k),
            None => table.push((p, k)),
        }
    }

    /// Records "no strategy with ≤ `k` steps at *any* budget" (the unsat
    /// core named only final-state assumptions). Returns `true` — and
    /// counts a step tightening — when this extends what was known.
    pub fn record_universal_refuted(&self, k: usize) -> bool {
        let new_info = {
            let mut table = self.refuted.lock().expect("refutation table poisoned");
            match table.iter_mut().find(|(q, _)| *q == UNIVERSAL_BUDGET) {
                Some((_, max_k)) => {
                    let grew = k > *max_k;
                    *max_k = (*max_k).max(k);
                    grew
                }
                None => {
                    table.push((UNIVERSAL_BUDGET, k));
                    true
                }
            }
        };
        if new_info {
            self.step_tightenings.fetch_add(1, Ordering::Relaxed);
        }
        new_info
    }

    /// Raises the floor to `min_feasible` ("budgets below this admit no
    /// strategy within the step cap"). Returns `true` — and counts a
    /// floor raise — when the floor actually moved.
    pub fn raise_floor(&self, min_feasible: usize) -> bool {
        let previous = self.floor.fetch_max(min_feasible, Ordering::Relaxed);
        let raised = min_feasible > previous;
        if raised {
            self.floor_raises.fetch_add(1, Ordering::Relaxed);
        }
        raised
    }

    /// Universal step refutations recorded from budget-free unsat cores.
    pub fn step_tightenings(&self) -> u64 {
        self.step_tightenings.load(Ordering::Relaxed)
    }

    /// Times the budget floor was raised by an exhausted probe.
    pub fn floor_raises(&self) -> u64 {
        self.floor_raises.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_lookup_combines_looser_budgets() {
        let state = SharedSearchState::new();
        state.record_refuted(6, 9);
        state.record_refuted(4, 11);
        // Budget 4 benefits from both its own entry and the looser one.
        assert_eq!(state.known_refuted_k(4), Some(11));
        // Budget 6 must not borrow the tighter budget's refutation.
        assert_eq!(state.known_refuted_k(6), Some(9));
        assert_eq!(state.known_refuted_k(7), None);
    }

    #[test]
    fn universal_entries_prune_every_budget() {
        let state = SharedSearchState::new();
        assert!(state.record_universal_refuted(9));
        assert!(!state.record_universal_refuted(8), "already covered");
        assert!(state.record_universal_refuted(10));
        assert_eq!(state.step_tightenings(), 2);
        assert_eq!(state.known_refuted_k(1), Some(10));
        assert_eq!(state.known_refuted_k(usize::MAX - 1), Some(10));
    }

    #[test]
    fn floor_is_monotone_and_counts_raises() {
        let state = SharedSearchState::new();
        state.prime_floor(3);
        assert_eq!(state.floor(), 3);
        assert_eq!(state.floor_raises(), 0, "priming is not a tightening");
        assert!(state.raise_floor(5));
        assert!(!state.raise_floor(4), "floors never drop");
        assert_eq!(state.floor(), 5);
        assert_eq!(state.floor_raises(), 1);
    }
}
