//! Portfolio-vs-single-configuration benchmarks on the pebbling
//! workloads: how much wall-clock the first-winner-takes-all race
//! recovers (or costs, on instances too small to amortize thread spawn).

use revpebble::core::{PebblingSession, Strategy};
use revpebble::graph::generators::{and_tree, chain, paper_example};
use revpebble::graph::Dag;
use revpebble_bench::time;

/// One fixed-budget session, raced by `workers` when there are several.
fn solve(dag: &Dag, budget: usize, workers: usize) -> Strategy {
    let mut session = PebblingSession::new(dag).pebbles(budget);
    if workers > 1 {
        session = session.portfolio(workers);
    }
    session
        .run()
        .expect("a valid bench configuration")
        .into_strategy()
        .expect("feasible")
}

fn main() {
    let workloads = [
        ("paper_at_4", paper_example(), 4),
        ("and_tree9_at_7", and_tree(9), 7),
        ("chain10_at_5", chain(10), 5),
    ];
    for (name, dag, budget) in &workloads {
        time(&format!("portfolio_vs_single/single/{name}"), 10, || {
            solve(dag, *budget, 1)
        });
        for workers in [2usize, 4] {
            time(
                &format!("portfolio_vs_single/portfolio{workers}/{name}"),
                10,
                || solve(dag, *budget, workers),
            );
        }
    }
}
