//! The pebble floor proven without SAT, `bounds::subdag_lower_bound`,
//! against the references it must respect: `exact_min_pebbles` (the
//! breadth-first reference), a SAT refutation that uses no floor at all,
//! Bennett's closed form on chains, and the minima of the built-in
//! designs. On a design of at most 18 nodes whose whole-DAG search
//! finishes under its work cap the floor is exact, and every minimize walk
//! probes it first: one probe certifies the minimum, a failed floor probe
//! is never repeated, and larger designs keep their schedule's own first
//! probe.

use std::time::Duration;

use proptest::prelude::*;
use revpebble::core::bounds::{pebble_lower_bound, subdag_lower_bound};
use revpebble::core::{
    exact_min_pebbles, solve_exact, BudgetSchedule, EncodingOptions, MinimizeResult, MoveMode,
    PebbleSolver, PebblingSession, ProbeVerdict, SessionOutcome, SolverOptions,
};
use revpebble::graph::builtin_dag;
use revpebble::graph::generators::{and_tree, binary_in_tree, chain, paper_example, random_dag};
use revpebble::graph::slp::h_operator_sized;
use revpebble::graph::Dag;

/// Minimize walks a one-worker session can run: binary and descending,
/// on the incremental and on the fresh engine.
fn walks() -> [(&'static str, BudgetSchedule, bool); 4] {
    [
        ("binary", BudgetSchedule::Binary, true),
        ("binary/fresh", BudgetSchedule::Binary, false),
        ("desc2", BudgetSchedule::Descending { stride: 2 }, true),
        (
            "desc4/fresh",
            BudgetSchedule::Descending { stride: 4 },
            false,
        ),
    ]
}

/// A minimize session with sequential moves under a step cap of `cap`,
/// or the decisive `4n + 20`, and a per-query clock far above need.
fn minimize(
    dag: &Dag,
    schedule: BudgetSchedule,
    incremental: bool,
    cap: Option<usize>,
    quota: Option<u64>,
) -> MinimizeResult {
    let mut session = PebblingSession::new(dag)
        .minimize()
        .budget(schedule)
        .incremental(incremental)
        .move_mode(MoveMode::Sequential)
        .max_steps(cap.unwrap_or(4 * dag.num_nodes() + 20))
        .per_query_timeout(Duration::from_secs(600));
    if let Some(quota) = quota {
        session = session.quota(quota);
    }
    match session.run().expect("a valid configuration").outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a one-worker minimize session answers a minimize result"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a DAG of at most 12 nodes the first prefix is the whole DAG,
    /// priced well within the work cap, so the bound is the exact minimum.
    #[test]
    fn the_bound_is_the_exact_minimum_on_small_dags(
        inputs in 1usize..5,
        nodes in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        prop_assert_eq!(subdag_lower_bound(&dag), exact_min_pebbles(&dag));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An exact floor is probed first, and under a decisive step cap its
    /// probe solves: one probe certifies the minimum, no probe raises the
    /// floor, and the strategy is step-minimal at the minimum.
    #[test]
    fn one_probe_at_an_exact_floor_certifies_the_minimum(
        inputs in 1usize..5,
        nodes in 1usize..=10,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let minimum = exact_min_pebbles(&dag);
        let steps = solve_exact(&dag, minimum)
            .into_strategy()
            .expect("the minimum is feasible")
            .num_steps();
        for (walk, schedule, incremental) in walks() {
            let result = minimize(&dag, schedule, incremental, None, None);
            prop_assert_eq!(&result.probes, &vec![(minimum, ProbeVerdict::Solved)], "{}", walk);
            prop_assert_eq!((result.floor, result.floor_raises), (minimum, 0), "{}", walk);
            let (best, strategy) = result.best.expect("the floor probe solved");
            prop_assert_eq!(best, minimum, "{}", walk);
            prop_assert_eq!(strategy.num_steps(), steps, "{}", walk);
            prop_assert!(strategy.validate(&dag, Some(minimum)).is_ok(), "{}", walk);
        }
    }
}

#[test]
fn a_step_capped_floor_probe_is_never_repeated() {
    // `paper` needs 12 steps at its minimum of 4 and 10 at 5. Under an
    // 11-step cap the floor probe ends step-capped, and every walk goes
    // on above it to certify 5 without probing 4 again.
    let dag = paper_example();
    let capped = (4, ProbeVerdict::StepLimit { steps_checked: 11 });
    let strides = [1, 2, 4].map(|stride| BudgetSchedule::Descending { stride });
    for schedule in std::iter::once(BudgetSchedule::Binary).chain(strides) {
        for incremental in [true, false] {
            let walk = format!("{schedule:?}, incremental {incremental}");
            let result = minimize(&dag, schedule, incremental, Some(11), None);
            assert_eq!(result.probes.first(), Some(&capped), "{walk}");
            let mut budgets: Vec<usize> = result.probes.iter().map(|&(p, _)| p).collect();
            budgets.sort_unstable();
            budgets.dedup();
            assert_eq!(
                budgets.len(),
                result.probes.len(),
                "{walk}: {:?}",
                result.probes
            );
            assert_eq!(result.best.map(|(p, _)| p), Some(5), "{walk}");
        }
    }
}

#[test]
fn a_floor_that_is_not_exact_is_not_probed_first() {
    // Above 18 nodes the floor prices a prefix, not the whole DAG, so the
    // walks open where their schedule does: binary mid-window, descending
    // one stride below the top. A quota of one conflict stops each
    // session in or after its first probe.
    for (name, dag) in [
        ("chain19", chain(19)),
        ("edwards", builtin_dag("edwards").expect("built-in")),
    ] {
        let floor = subdag_lower_bound(&dag);
        let top = dag.num_nodes();
        for (walk, schedule, incremental) in walks() {
            let first = match schedule {
                BudgetSchedule::Binary => floor + (top - floor) / 2,
                BudgetSchedule::Descending { stride } => top - stride,
            };
            let result = minimize(&dag, schedule, incremental, None, Some(1));
            assert_eq!(
                result.probes.first().map(|&(p, _)| p),
                Some(first),
                "{name} {walk}"
            );
            assert_ne!(first, floor, "{name} {walk}");
        }
    }
}

#[test]
fn the_bound_never_exceeds_the_minimum_on_larger_dags() {
    // 19–22 nodes: the prefixes cover part of the DAG, so the bound can
    // fall short of the minimum (`(2, 20, 4)`: 7 against 8). Each draw's
    // bound is above `pebble_lower_bound`, and its minimum takes the
    // breadth-first reference well under a second.
    for (inputs, nodes, seed) in [(3, 19, 3), (3, 20, 3), (2, 20, 4), (3, 21, 2), (2, 22, 2)] {
        let dag = random_dag(inputs, nodes, seed);
        let bound = subdag_lower_bound(&dag);
        let draw = format!("random_dag({inputs}, {nodes}, {seed})");
        assert!(bound > pebble_lower_bound(&dag), "{draw}");
        assert!(bound <= exact_min_pebbles(&dag), "{draw}");
    }
}

#[test]
fn a_sat_search_without_floors_refutes_the_budget_below_the_bound() {
    // No breadth-first search on either side: `PebbleSolver` sees only
    // the structural bound, and with sequential moves a strategy never
    // needs more steps than there are configurations, so a step cap of
    // `2^n` makes its refutation hold at every step count. A quarter of
    // the draws (12 of 48) have a bound above the structural one.
    for seed in 0..48 {
        let nodes = 2 + (seed as usize % 5);
        let dag = random_dag(3, nodes, seed);
        let bound = subdag_lower_bound(&dag);
        if bound - 1 < pebble_lower_bound(&dag) {
            continue;
        }
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(bound - 1),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 1 << nodes,
            ..SolverOptions::default()
        };
        let outcome = PebbleSolver::new(&dag, options).solve();
        assert!(
            outcome.strategy().is_none(),
            "seed {seed}: budget {} solved below the bound {bound}",
            bound - 1
        );
    }
}

#[test]
fn the_bound_on_a_chain_is_bennetts_closed_form() {
    // Bennett pebbles 2^k chain nodes with k + 1 pebbles, and no
    // strategy does better; chains above 18 nodes are priced by their
    // 18-node prefix.
    for n in 2..=20usize {
        let closed_form = (usize::BITS - (n - 1).leading_zeros()) as usize + 1;
        assert_eq!(subdag_lower_bound(&chain(n)), closed_form, "chain({n})");
    }
}

#[test]
fn the_bound_of_every_named_design_is_pinned() {
    // (design, bound, minimum where known). The minima of the designs of
    // at most 12 nodes are `exact_min_pebbles`, checked below. `edwards`
    // has a 7-pebble strategy (`pebble edwards --pebbles 7 --portfolio 2`
    // finds one), so its bound is its minimum. The H-operator rows and
    // `kummer` have no proven minimum.
    let designs = [
        ("paper", builtin_dag("paper"), 4, Some(4)),
        ("c17", builtin_dag("c17"), 4, Some(4)),
        ("andtree9", builtin_dag("andtree9"), 5, Some(5)),
        ("andtree11", Some(and_tree(11)), 5, Some(5)),
        ("bintree3", Some(binary_in_tree(3)), 5, Some(5)),
        ("hop", builtin_dag("hop"), 6, Some(6)),
        ("adder4", builtin_dag("adder4"), 6, Some(6)),
        ("chain8", Some(chain(8)), 4, Some(4)),
        ("chain10", Some(chain(10)), 5, Some(5)),
        ("chain12", builtin_dag("chain12"), 5, Some(5)),
        ("chain19", Some(chain(19)), 6, None),
        ("chain20", Some(chain(20)), 6, None),
        ("edwards", builtin_dag("edwards"), 7, Some(7)),
        ("b3_m4", builtin_dag("b3_m4"), 7, None),
        ("b2_m3", Some(h_operator_sized(74)), 7, None),
        ("kummer", builtin_dag("kummer"), 9, None),
    ];
    for (name, dag, bound, minimum) in designs {
        let dag = dag.expect("a built-in design");
        assert_eq!(subdag_lower_bound(&dag), bound, "{name}");
        if dag.num_nodes() <= 12 {
            assert_eq!(minimum, Some(exact_min_pebbles(&dag)), "{name}");
        }
        if let Some(minimum) = minimum {
            assert!(
                bound <= minimum,
                "{name}: bound {bound} > minimum {minimum}"
            );
        }
    }
}
