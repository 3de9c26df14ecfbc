//! Ablation bench: sequential vs parallel move semantics of the SAT
//! encoding (DESIGN.md's move-semantics ablation). Parallel steps shrink
//! `K` (fewer time points to encode) at the cost of more change freedom
//! per transition.

use revpebble::core::{EncodingOptions, MoveMode, PebbleSolver, SolverOptions};
use revpebble::graph::generators::{and_tree, paper_example};
use revpebble_bench::time;

fn solve(dag: &revpebble::graph::Dag, budget: usize, mode: MoveMode) -> usize {
    let options = SolverOptions {
        encoding: EncodingOptions {
            max_pebbles: Some(budget),
            move_mode: mode,
            ..EncodingOptions::default()
        },
        ..SolverOptions::default()
    };
    PebbleSolver::new(dag, options)
        .solve()
        .into_strategy()
        .expect("feasible")
        .num_moves()
}

fn main() {
    let cases = [
        ("paper_example@4", paper_example(), 4usize),
        ("and_tree8@7", and_tree(8), 7),
        ("and_tree9@7", and_tree(9), 7),
    ];
    for (name, dag, budget) in &cases {
        for mode in [MoveMode::Sequential, MoveMode::Parallel] {
            time(&format!("move_semantics/{mode:?}/{name}"), 10, || {
                solve(dag, *budget, mode)
            });
        }
    }
}
