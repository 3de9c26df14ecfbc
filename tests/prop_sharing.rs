//! Property tests for the cooperative minimize portfolio: on random DAGs
//! with decisive probes (generous budgets, adequate step caps), sharing
//! learnt clauses and certified bounds between workers must never change
//! the answer — the shared-pool portfolio, the isolated portfolio and the
//! single-worker incremental engine all certify the same minimum — and
//! every core-derived lower bound must stay below or at that minimum.
//! The mixed-encoding variant — workers on *different* cardinality
//! encodings, which race isolated beside a sharing worker 0 — races
//! hand-built configuration lists, so it lives next to the crate-private
//! race in `revpebble-core`'s portfolio tests.

use std::time::Duration;

use proptest::prelude::*;
use revpebble::graph::generators::random_dag;
use revpebble::prelude::*;

fn decisive_base(nodes: usize) -> SolverOptions {
    SolverOptions {
        // Step caps above any optimum these little DAGs admit, so every
        // probe ends in SAT or a certified StepLimit, never a timeout —
        // the regime where engine answers are theorems, not clock races.
        max_steps: 4 * nodes + 20,
        ..SolverOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shared_pool_portfolio_matches_single_worker_incremental(
        inputs in 2usize..5,
        nodes in 4usize..14,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());
        let per_query = Duration::from_secs(60);

        let single_report = PebblingSession::new(&dag)
            .solver_options(base)
            .minimize()
            .per_query_timeout(per_query)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(single) = single_report.outcome else {
            panic!("a single-worker minimize session ran");
        };
        let shared_report = PebblingSession::new(&dag)
            .solver_options(base)
            .minimize()
            .portfolio(4)
            .share_clauses()
            .per_query_timeout(per_query)
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(shared) = shared_report.outcome else {
            panic!("a minimize race answers one minimize result");
        };

        let single_min = single.best.as_ref().map(|&(p, _)| p);
        let shared_min = shared.best.as_ref().map(|&(p, _)| p);
        prop_assert_eq!(
            shared_min, single_min,
            "shared-pool portfolio must certify the single-worker minimum"
        );
        if let Some((p, strategy)) = &shared.best {
            strategy.validate(&dag, Some(*p)).expect("winner's strategy is valid");
            // Core-derived lower bounds are certificates: they can meet
            // the minimum but never cross it.
            prop_assert!(
                shared.floor <= *p,
                "floor {} exceeds certified minimum {}", shared.floor, p
            );
        }
    }

    #[test]
    fn unsat_core_floor_never_exceeds_the_true_minimum(
        inputs in 2usize..5,
        nodes in 4usize..12,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let base = decisive_base(dag.num_nodes());
        let report = PebblingSession::new(&dag)
            .solver_options(base)
            .minimize()
            .per_query_timeout(Duration::from_secs(60))
            .run()
            .expect("a valid configuration");
        let SessionOutcome::Minimize(result) = report.outcome else {
            panic!("a single-worker minimize session ran");
        };
        let (minimum, strategy) = result.best.as_ref().expect("decisive probes always certify");
        strategy.validate(&dag, Some(*minimum)).expect("valid");
        prop_assert!(
            result.floor <= *minimum,
            "core/StepLimit-derived floor {} exceeds true minimum {}",
            result.floor,
            minimum
        );
    }
}
