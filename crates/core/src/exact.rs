//! An exact explicit-state solver for small instances.
//!
//! Breadth-first search over pebbling configurations (bitmask states)
//! finds the *provably minimal* number of sequential steps for a given
//! pebble budget — and proves infeasibility when the target is
//! unreachable, something the SAT loop can only do per step bound. It is
//! exponential in the number of nodes and guarded accordingly; its role is
//! the reference for tests and tiny designs, cross-validating the SAT
//! engine (`tests/prop_pipeline.rs`, `exact` module tests) and the floor
//! proven without SAT (`tests/prop_floor.rs`). That floor,
//! [`subdag_lower_bound`](crate::bounds::subdag_lower_bound), runs its own
//! search, so this module stays an independent check on it.

use std::collections::{HashMap, VecDeque};

use revpebble_graph::{Dag, NodeId};

use crate::strategy::{Move, Strategy};

/// Maximum node count accepted by the exact solver.
pub const MAX_EXACT_NODES: usize = 24;

/// Result of an exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactOutcome {
    /// A provably step-minimal strategy.
    Optimal(Strategy),
    /// No strategy exists within the pebble budget (proven by exhausting
    /// the reachable state space).
    Infeasible,
}

impl ExactOutcome {
    /// The strategy, if the instance is feasible.
    pub fn into_strategy(self) -> Option<Strategy> {
        match self {
            ExactOutcome::Optimal(s) => Some(s),
            ExactOutcome::Infeasible => None,
        }
    }
}

/// Finds a step-minimal sequential strategy for `dag` under `max_pebbles`
/// by BFS over configurations.
///
/// # Panics
///
/// Panics if the DAG has more than [`MAX_EXACT_NODES`] nodes or fails
/// [`Dag::validate_for_pebbling`].
pub fn solve_exact(dag: &Dag, max_pebbles: usize) -> ExactOutcome {
    let n = dag.num_nodes();
    assert!(
        n <= MAX_EXACT_NODES,
        "exact solver is exponential; {n} nodes exceed the cap of {MAX_EXACT_NODES}"
    );
    dag.validate_for_pebbling()
        .expect("every sink must be an output");

    // Precompute per-node child masks and the target state.
    let child_mask: Vec<u32> = dag
        .node_ids()
        .map(|v| {
            dag.children(v)
                .fold(0u32, |mask, c| mask | (1 << c.index()))
        })
        .collect();
    let target: u32 = dag
        .outputs()
        .iter()
        .fold(0u32, |mask, o| mask | (1 << o.index()));

    let start: u32 = 0;
    if start == target {
        return ExactOutcome::Optimal(Strategy::default());
    }
    // parent[state] = (previous state, move that led here)
    let mut parent: HashMap<u32, (u32, Move)> = HashMap::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    parent.insert(start, (start, Move::Pebble(NodeId::from_index(0)))); // sentinel
    queue.push_back(start);
    while let Some(state) = queue.pop_front() {
        let count = state.count_ones() as usize;
        for (v, &mask) in child_mask.iter().enumerate() {
            let bit = 1u32 << v;
            // Children must be pebbled to touch v.
            if state & mask != mask {
                continue;
            }
            let (next, mv) = if state & bit == 0 {
                if count + 1 > max_pebbles {
                    continue;
                }
                (state | bit, Move::Pebble(NodeId::from_index(v)))
            } else {
                (state & !bit, Move::Unpebble(NodeId::from_index(v)))
            };
            if parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, (state, mv));
            if next == target {
                // Reconstruct the move sequence.
                let mut moves = Vec::new();
                let mut cursor = next;
                while cursor != start {
                    let (prev, mv) = parent[&cursor];
                    moves.push(mv);
                    cursor = prev;
                }
                moves.reverse();
                return ExactOutcome::Optimal(Strategy::from_moves(moves));
            }
            queue.push_back(next);
        }
    }
    ExactOutcome::Infeasible
}

/// The exact *reversible pebbling number* of the DAG: the smallest pebble
/// budget admitting any valid strategy, found by linear search upward from
/// the structural lower bound.
///
/// # Panics
///
/// As [`solve_exact`].
pub fn exact_min_pebbles(dag: &Dag) -> usize {
    let mut p = crate::bounds::pebble_lower_bound(dag);
    loop {
        if let ExactOutcome::Optimal(_) = solve_exact(dag, p) {
            return p;
        }
        p += 1;
        assert!(
            p <= dag.num_nodes(),
            "Bennett guarantees feasibility at n pebbles"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingOptions, MoveMode};
    use crate::solver::{PebbleSolver, SolverOptions};
    use revpebble_graph::generators::{and_tree, chain, paper_example, random_dag};

    #[test]
    fn paper_example_exact_numbers() {
        let dag = paper_example();
        // Minimum pebbles is 4; with 4 pebbles the optimum is 12 steps.
        assert_eq!(exact_min_pebbles(&dag), 4);
        let strategy = solve_exact(&dag, 4).into_strategy().expect("feasible");
        strategy.validate(&dag, Some(4)).expect("valid");
        assert_eq!(strategy.num_steps(), 12);
        // With 6 pebbles the optimum is Bennett's 10.
        let s6 = solve_exact(&dag, 6).into_strategy().expect("feasible");
        assert_eq!(s6.num_steps(), 10);
        // 3 pebbles are infeasible.
        assert_eq!(solve_exact(&dag, 3), ExactOutcome::Infeasible);
    }

    #[test]
    fn chain_pebbling_numbers_are_logarithmic() {
        // A chain of `len` nodes needs exactly ⌈log₂ len⌉ + 1 pebbles:
        // Bennett's recursive strategy pebbles 2^k nodes with k + 1.
        for len in 1..=9usize {
            let closed_form = (usize::BITS - (len - 1).leading_zeros()) as usize + 1;
            assert_eq!(exact_min_pebbles(&chain(len)), closed_form, "chain({len})");
        }
    }

    #[test]
    fn and_tree_9_min_pebbles() {
        let dag = and_tree(9);
        let p = exact_min_pebbles(&dag);
        // The paper's Fig. 6(c) uses 7 pebbles; the true minimum must be ≤ 7.
        assert!(p <= 7, "got {p}");
        assert!(p >= 3);
    }

    #[test]
    fn sat_and_exact_agree_on_min_steps() {
        for seed in 0..12 {
            let dag = random_dag(3, 9, seed);
            let p = crate::bounds::pebble_lower_bound(&dag) + 1;
            let exact = solve_exact(&dag, p);
            let options = SolverOptions {
                encoding: EncodingOptions {
                    max_pebbles: Some(p),
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps: 80,
                ..SolverOptions::default()
            };
            let sat = PebbleSolver::new(&dag, options).solve();
            match (exact, sat.into_strategy()) {
                (ExactOutcome::Optimal(e), Some(s)) => {
                    assert_eq!(
                        e.num_steps(),
                        s.num_steps(),
                        "seed {seed}: SAT and BFS disagree on the optimum"
                    );
                }
                (ExactOutcome::Infeasible, None) => {}
                (exact, sat) => panic!("seed {seed}: feasibility mismatch {exact:?} vs {sat:?}"),
            }
        }
    }

    #[test]
    fn sat_and_exact_agree_on_min_pebbles() {
        for seed in [100, 200, 300] {
            let dag = random_dag(3, 8, seed);
            let exact_p = exact_min_pebbles(&dag);
            // SAT: exact_p works, exact_p − 1 does not (probe both).
            let solvable = |p: usize| {
                let options = SolverOptions {
                    encoding: EncodingOptions {
                        max_pebbles: Some(p),
                        move_mode: MoveMode::Sequential,
                        ..EncodingOptions::default()
                    },
                    max_steps: 120,
                    ..SolverOptions::default()
                };
                PebbleSolver::new(&dag, options)
                    .solve()
                    .into_strategy()
                    .is_some()
            };
            assert!(solvable(exact_p), "seed {seed}");
            if exact_p > 1 {
                assert!(!solvable(exact_p - 1), "seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn oversized_dag_is_rejected() {
        let dag = random_dag(4, MAX_EXACT_NODES + 1, 0);
        let _ = solve_exact(&dag, 4);
    }
}
