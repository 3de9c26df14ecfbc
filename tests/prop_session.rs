//! Property tests for the `PebblingSession` front door: on random DAGs,
//! every engine variant that answers the same question must certify
//! identical minima and identical floors — the incremental engine, the
//! paper's fresh-per-probe baseline, the descending schedule and the
//! cooperative portfolio cross-check each other, and the frontier sweep
//! finds the minimum the minimize engine certifies, weighted or not. The
//! session runtime must be invisible to the answers: a session replayed
//! through the runtime's `ResultCache` and a session spawned onto a
//! `SessionRuntime` report exactly what the blocking run reports. Probes
//! run in the decisive regime (generous budgets, adequate step caps) so
//! the answers are theorems, not clock races.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use revpebble::core::{
    BudgetSchedule, Executor, MinimizeResult, MoveMode, PebblingSession, Report, SessionOutcome,
    SessionRuntime, SolverOptions,
};
use revpebble::graph::generators::random_dag;
use revpebble::graph::Dag;
use revpebble::prelude::PebbleOutcome;

const PER_QUERY: Duration = Duration::from_secs(60);

fn decisive_base(nodes: usize) -> SolverOptions {
    SolverOptions {
        // Step caps above any optimum these little DAGs admit, so every
        // probe ends in SAT or a certified StepLimit, never a timeout.
        max_steps: 4 * nodes + 20,
        ..SolverOptions::default()
    }
}

fn session_minimize(
    dag: &Dag,
    base: SolverOptions,
    schedule: BudgetSchedule,
    incremental: bool,
) -> MinimizeResult {
    let report = PebblingSession::new(dag)
        .solver_options(base)
        .minimize()
        .budget(schedule)
        .incremental(incremental)
        .per_query_timeout(PER_QUERY)
        .run()
        .expect("a valid configuration");
    match report.outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a single-worker minimize session ran"),
    }
}

fn assert_equivalent(dag: &Dag, label: &str, left: &MinimizeResult, right: &MinimizeResult) {
    assert_eq!(
        left.best.as_ref().map(|&(p, _)| p),
        right.best.as_ref().map(|&(p, _)| p),
        "{label}: certified minima diverge"
    );
    // Floors are engine-specific certificates (probe order decides which
    // refutations each engine pays for), so they need not be equal — but
    // each must stay below its own certified minimum.
    for result in [left, right] {
        if let Some(&(minimum, _)) = result.best.as_ref() {
            assert!(
                result.floor <= minimum,
                "{label}: floor {} above certified minimum {minimum}",
                result.floor
            );
        }
    }
    for (p, strategy) in left.best.iter().chain(right.best.iter()) {
        assert!(
            strategy.validate(dag, Some(*p)).is_ok(),
            "{label}: certified strategy invalid at budget {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn blocking_spawned_and_cached_runs_agree(
        inputs in 2usize..5,
        nodes in 3usize..12,
        seed in any::<u64>(),
        slack in 0usize..3,
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let budget = (revpebble::core::bounds::pebble_lower_bound(&dag) + slack)
            .min(dag.num_nodes())
            .max(1);
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Single(blocking) = &report.outcome else {
            panic!("a fixed-budget session drives the single engine");
        };
        let solved = |o: &PebbleOutcome| matches!(o, PebbleOutcome::Solved(_));
        if let PebbleOutcome::Solved(strategy) = blocking {
            prop_assert!(strategy.validate(&dag, Some(budget)).is_ok());
        }

        // The same session handed to a shared pool answers identically.
        let runtime = SessionRuntime::new(2).expect("workers");
        let spawned = runtime
            .spawn(PebblingSession::new(&dag).pebbles(budget), runtime.root().child())
            .expect("a valid configuration")
            .join();
        prop_assert_eq!(spawned.minimum, report.minimum);
        prop_assert_eq!(spawned.floor, report.floor);
        let SessionOutcome::Single(off_thread) = &spawned.outcome else {
            panic!("the spawned session drives the same engine");
        };
        prop_assert_eq!(solved(blocking), solved(off_thread));

        // A cached replay serves the identical answer without solving:
        // spawned and joined in turn on one runtime, the second run finds
        // the first one's answer in the runtime's cache, at spawn.
        let cached = SessionRuntime::new(1).expect("a worker");
        let spawn_cached = || {
            cached
                .spawn(PebblingSession::new(&dag).pebbles(budget), cached.root().child())
                .expect("a valid configuration")
        };
        let first = spawn_cached().join();
        let mut replay = spawn_cached();
        prop_assert!(replay.try_report().is_some(), "the replay is answered at spawn");
        let replay = replay.join();
        prop_assert_eq!((replay.cache_hits, replay.cache_misses), (1, 0));
        prop_assert_eq!(replay.minimum, first.minimum);
        prop_assert_eq!(replay.floor, first.floor);
        prop_assert_eq!(first.minimum, report.minimum);
    }

    #[test]
    fn minimize_engine_variants_certify_the_same_answer(
        inputs in 2usize..5,
        nodes in 3usize..10,
        seed in any::<u64>(),
        stride in 1usize..4,
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());

        let incremental = session_minimize(&dag, base, BudgetSchedule::Binary, true);
        let fresh = session_minimize(&dag, base, BudgetSchedule::Binary, false);
        assert_equivalent(&dag, "incremental vs fresh", &incremental, &fresh);

        let descending =
            session_minimize(&dag, base, BudgetSchedule::Descending { stride }, true);
        assert_equivalent(&dag, "incremental vs descending", &incremental, &descending);
    }
}

proptest! {
    // Portfolio runs spawn threads per case; fewer cases keep CI quick.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn portfolio_engines_match_their_single_worker_answers(
        inputs in 2usize..4,
        nodes in 3usize..9,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());

        // Fixed-budget race: same solvability as the single engine.
        let budget = dag.num_nodes().max(1);
        let single_report = PebblingSession::new(&dag)
            .pebbles(budget)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Single(single_outcome) = &single_report.outcome else {
            panic!("a fixed-budget session drives the single engine");
        };
        let report = PebblingSession::new(&dag)
            .pebbles(budget)
            .portfolio(2)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Single(race_outcome) = &report.outcome else {
            panic!("a fixed-budget race answers for its one budget");
        };
        prop_assert_eq!(
            matches!(single_outcome, PebbleOutcome::Solved(_)),
            matches!(race_outcome, PebbleOutcome::Solved(_))
        );

        // Cooperative minimize race: the shared portfolio and the
        // single-worker incremental engine certify the same minimum in
        // the decisive regime — whether the race runs on its private
        // per-worker threads or on a shared two-worker executor.
        let single = session_minimize(&dag, base, BudgetSchedule::Binary, true);
        let minimum = |best: &Option<(usize, revpebble::core::Strategy)>| {
            best.as_ref().map(|&(p, _)| p)
        };
        for shared_pool in [false, true] {
            let mut session = PebblingSession::new(&dag)
                .solver_options(base)
                .minimize()
                .portfolio(2)
                .share_clauses()
                .per_query_timeout(PER_QUERY);
            if shared_pool {
                session = session.executor(Arc::new(Executor::new(2)));
            }
            let shared_report = session.run().expect("a valid configuration");
            let SessionOutcome::MinimizePortfolio(shared) = &shared_report.outcome else {
                panic!("a minimize portfolio ran");
            };
            prop_assert_eq!(minimum(&shared.best), minimum(&single.best));
            prop_assert_eq!(shared_report.minimum, minimum(&single.best));
            if let Some((p, strategy)) = &shared.best {
                prop_assert!(strategy.validate(&dag, Some(*p)).is_ok());
            }
        }
    }
}

/// `dag` with node `i` weighing `weights[i]`.
fn reweighted(dag: &Dag, weights: &[u32]) -> Dag {
    let mut out = Dag::new();
    for name in dag.input_names() {
        out.add_input(name.clone());
    }
    for (v, &weight) in dag.node_ids().zip(weights) {
        let node = dag.node(v);
        out.add_node_weighted(node.name.clone(), node.op, node.fanins.clone(), weight)
            .expect("same shape as a valid DAG");
    }
    for &output in dag.outputs() {
        out.mark_output(output);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn frontier_and_minimize_agree_on_the_minimum(
        inputs in 2usize..4,
        nodes in 3usize..=8,
        seed in any::<u64>(),
        weights in prop::collection::vec(1u32..=3, 8),
    ) {
        let dag = reweighted(&random_dag(inputs, nodes, seed), &weights);
        let session = |weighted| {
            PebblingSession::new(&dag)
                .move_mode(MoveMode::Sequential)
                .max_steps(4 * dag.num_nodes() + 20)
                .per_query_timeout(PER_QUERY)
                .weighted(weighted)
        };
        let run = |session: PebblingSession<'_>| -> Report {
            session.run().expect("a valid configuration")
        };
        for weighted in [false, true] {
            let minimize = run(session(weighted).minimize());
            let frontier = run(session(weighted).sweep_frontier());
            prop_assert_eq!(
                frontier.minimum, minimize.minimum,
                "weighted={}: the frontier and the minimize engine disagree", weighted
            );
            let SessionOutcome::Frontier(points) = &frontier.outcome else {
                panic!("a frontier session ran");
            };
            for point in points {
                let Some(strategy) = &point.strategy else { continue };
                let valid = if weighted {
                    strategy.validate_weighted(&dag, Some(point.pebbles as u64))
                } else {
                    strategy.validate(&dag, Some(point.pebbles))
                };
                prop_assert!(
                    valid.is_ok(),
                    "weighted={}: strategy invalid at budget {}", weighted, point.pebbles
                );
            }
        }
    }
}
