//! Benches for the pebbling solver on the paper's workloads (backs the
//! runtime column of Table I and the Fig. 3/4 example).

use revpebble::core::baselines::{bennett, cone_wise};
use revpebble::core::{
    EncodingOptions, MoveMode, PebbleSolver, PebblingSession, SolverOptions, Strategy,
};
use revpebble::graph::generators::{and_tree, chain, paper_example};
use revpebble::graph::slp::h_operator;
use revpebble::graph::Dag;
use revpebble_bench::time;

/// One fixed-budget session through the front door.
fn solve(dag: &Dag, budget: usize) -> Strategy {
    PebblingSession::new(dag)
        .pebbles(budget)
        .run()
        .expect("a valid bench configuration")
        .into_strategy()
        .expect("feasible")
}

fn main() {
    let tree = and_tree(64);
    time("baselines/bennett/and_tree_64", 10, || bennett(&tree));
    time("baselines/cone_wise/and_tree_64", 10, || cone_wise(&tree));

    let paper = paper_example();
    for budget in [4usize, 5, 6] {
        time(&format!("fig34/solve/{budget}"), 20, || {
            solve(&paper, budget)
        });
    }

    let tree9 = and_tree(9);
    time("fig6/and_tree9_at_7_pebbles", 10, || solve(&tree9, 7));

    let h = h_operator().to_dag().expect("valid");
    time("workloads/h_operator_at_6", 10, || solve(&h, 6));
    let chain10 = chain(10);
    time("workloads/chain10_at_5", 10, || solve(&chain10, 5));

    // Ablation: larger deepening strides trade step-optimality for speed.
    let chain12 = chain(12);
    for stride in [1usize, 2, 4] {
        time(
            &format!("stride_ablation/chain12_at_5/{stride}"),
            10,
            || {
                let options = SolverOptions {
                    encoding: EncodingOptions {
                        max_pebbles: Some(5),
                        move_mode: MoveMode::Sequential,
                        ..EncodingOptions::default()
                    },
                    step_stride: stride,
                    ..SolverOptions::default()
                };
                PebbleSolver::new(&chain12, options)
                    .solve()
                    .into_strategy()
                    .expect("feasible")
            },
        );
    }
}
