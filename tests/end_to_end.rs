//! Integration tests spanning all crates: DAG construction → SAT pebbling
//! → strategy validation → circuit compilation → simulation-based
//! verification.

use revpebble::graph::data::C17_BENCH;
use revpebble::graph::generators::{and_tree, chain, paper_example, random_dag};
use revpebble::graph::slp::{edwards_add_projective, h_operator};
use revpebble::prelude::*;

/// Exponential-refine search options under a pebble budget, so
/// boundary-hard instances stay fast in CI; optimality is asserted
/// elsewhere (`paper_claims`, `exact`).
fn options(budget: usize) -> revpebble::core::SolverOptions {
    revpebble::core::SolverOptions {
        encoding: revpebble::core::EncodingOptions {
            max_pebbles: Some(budget),
            ..Default::default()
        },
        schedule: revpebble::core::StepSchedule::ExponentialRefine,
        timeout: Some(std::time::Duration::from_secs(60)),
        ..Default::default()
    }
}

/// Solve, validate, compile and verify one DAG under a pebble budget.
fn pipeline(dag: &Dag, budget: usize) -> (Strategy, CompiledCircuit) {
    pipeline_with(dag, options(budget))
}

/// [`pipeline`] under explicit search options; the budget is
/// `options.encoding.max_pebbles`.
fn pipeline_with(
    dag: &Dag,
    options: revpebble::core::SolverOptions,
) -> (Strategy, CompiledCircuit) {
    let budget = options.encoding.max_pebbles.expect("a pebble budget");
    let strategy = revpebble::core::PebbleSolver::new(dag, options)
        .solve()
        .into_strategy()
        .unwrap_or_else(|| panic!("budget {budget} should be feasible for {dag}"));
    strategy
        .validate(dag, Some(budget))
        .expect("solver strategies validate");
    let compiled = compile(dag, &strategy).expect("valid strategies compile");
    assert!(
        matches!(verify(dag, &compiled), VerifyOutcome::Correct { .. }),
        "compiled circuit must match DAG semantics with clean ancillae"
    );
    (strategy, compiled)
}

#[test]
fn paper_example_end_to_end() {
    let dag = paper_example();
    let (strategy, compiled) = pipeline(&dag, 4);
    assert_eq!(strategy.max_pebbles(&dag), 4);
    assert_eq!(compiled.circuit.width(), dag.num_inputs() + 4);
}

#[test]
fn and_tree_fits_16_qubit_device() {
    let dag = and_tree(9);
    let (strategy, compiled) = pipeline(&dag, 7);
    assert!(compiled.circuit.width() <= 16);
    // Bennett reference: 17 qubits, 15 gates.
    let naive = compile(&dag, &bennett(&dag)).expect("compiles");
    assert_eq!(naive.circuit.width(), 17);
    assert_eq!(naive.circuit.num_gates(), 15);
    // The constrained strategy pays gates for qubits.
    assert!(strategy.num_moves() > 15);
    assert!(
        compiled.circuit.num_gates() < 48,
        "fewer gates than Barenco"
    );
}

#[test]
fn c17_netlist_end_to_end() {
    let dag = parse_bench(C17_BENCH).expect("parses");
    // 4 pebbles suffice for c17 (the paper reports P = 4, K = 12 on its
    // XMG version; our DAG is the raw NAND netlist of the same size).
    let (strategy, _) = pipeline(&dag, 4);
    assert!(strategy.max_pebbles(&dag) <= 4);
}

#[test]
fn chains_trade_space_for_time() {
    let dag = chain(15);
    let naive = bennett(&dag);
    assert_eq!(naive.max_pebbles(&dag), 15);
    let (strategy, _) = pipeline(&dag, 6);
    assert!(strategy.max_pebbles(&dag) <= 6);
    assert!(
        strategy.num_moves() > naive.num_moves(),
        "fewer pebbles must cost extra recomputation on a chain"
    );
}

#[test]
fn h_operator_pebbles_below_bennett() {
    let dag = h_operator().to_dag().expect("valid");
    let naive = bennett(&dag);
    assert_eq!(naive.max_pebbles(&dag), 8);
    // 6 pebbles: 4 outputs + t1..t4 cleaned up along the way.
    let (strategy, _) = pipeline(&dag, 6);
    assert!(strategy.max_pebbles(&dag) <= 6);
}

#[test]
fn edwards_program_pebbles_with_half_the_memory() {
    let dag = edwards_add_projective().to_dag().expect("valid");
    let naive = bennett(&dag);
    assert_eq!(naive.max_pebbles(&dag), 20);
    // Bounded by conflicts, not the clock, so the outcome cannot depend
    // on machine speed: 10,000 conflicts per query solve P=10 (half
    // that ends in a timeout).
    let options = revpebble::core::SolverOptions {
        timeout: None,
        query_conflicts: Some(10_000),
        ..options(10)
    };
    let (strategy, _) = pipeline_with(&dag, options);
    assert!(strategy.max_pebbles(&dag) <= 10);
}

#[test]
fn weighted_pebbling_respects_word_widths() {
    use revpebble::core::{EncodingOptions, MoveMode, PebbleSolver, SolverOptions};
    // An SLP where each value occupies 4 qubits: budget is in qubits.
    let slp = h_operator();
    let mut dag = Dag::new();
    {
        // Rebuild with weight 4 per node.
        let src: Vec<Source> = slp
            .inputs
            .iter()
            .map(|name| dag.add_input(name.clone()))
            .collect();
        let mut env: std::collections::HashMap<&str, Source> = slp
            .inputs
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), src[i]))
            .collect();
        for op in &slp.ops {
            let fanins: Vec<Source> = op.args.iter().map(|a| env[a.as_str()]).collect();
            let id = dag
                .add_node_weighted(op.dest.clone(), op.op, fanins, 4)
                .expect("valid");
            env.insert(&op.dest, Source::Node(id));
        }
        for out in &slp.outputs {
            match env[out.as_str()] {
                Source::Node(n) => dag.mark_output(n),
                Source::Input(_) => unreachable!(),
            }
        }
    }
    let options = SolverOptions {
        encoding: EncodingOptions {
            max_pebbles: Some(24), // 24 qubits = 6 values of width 4
            weighted: true,
            move_mode: MoveMode::Sequential,
            ..EncodingOptions::default()
        },
        ..SolverOptions::default()
    };
    let strategy = PebbleSolver::new(&dag, options)
        .solve()
        .into_strategy()
        .expect("feasible");
    strategy
        .validate_weighted(&dag, Some(24))
        .expect("weighted limit respected");
    assert!(strategy.max_weight(&dag) <= 24);
}

#[test]
fn random_dags_full_pipeline() {
    for seed in 0..6 {
        let dag = random_dag(5, 14, seed);
        let budget = revpebble::core::bounds::pebble_lower_bound(&dag) + 3;
        let report = PebblingSession::new(&dag)
            .pebbles(budget.min(dag.num_nodes()))
            .run()
            .expect("a valid configuration");
        if let Some(strategy) = report.into_strategy() {
            let compiled = compile(&dag, &strategy).expect("compiles");
            assert!(
                matches!(verify(&dag, &compiled), VerifyOutcome::Correct { .. }),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn parallel_and_sequential_strategies_agree_on_validity() {
    use revpebble::core::{EncodingOptions, MoveMode, PebbleSolver, SolverOptions};
    let dag = and_tree(8);
    for mode in [MoveMode::Sequential, MoveMode::Parallel] {
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(7),
                move_mode: mode,
                ..EncodingOptions::default()
            },
            ..SolverOptions::default()
        };
        let strategy = PebbleSolver::new(&dag, options)
            .solve()
            .into_strategy()
            .expect("feasible");
        strategy.validate(&dag, Some(7)).expect("valid");
        let compiled = compile(&dag, &strategy).expect("compiles");
        assert!(matches!(
            verify(&dag, &compiled),
            VerifyOutcome::Correct { .. }
        ));
    }
}
