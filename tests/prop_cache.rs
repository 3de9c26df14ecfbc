//! Property tests for the session runtime's `ResultCache`: a question
//! asked after another one on the same runtime gets the answer an
//! uncached run gives, and a strategy over its own node ids. Inputs
//! include DAGs a structural fingerprint cannot tell apart, the same DAG
//! numbered in another order, and random pairs. Probes run in the
//! decisive regime (step caps above any optimum, generous clocks), so
//! the answers are theorems, not clock races.

use std::time::Duration;

use proptest::prelude::*;
use revpebble::core::{PebblingSession, Report, SessionRuntime, SolverOptions};
use revpebble::graph::generators::random_dag;
use revpebble::graph::{Dag, Op, Source};

/// The minimize question every check asks.
fn question(dag: &Dag) -> PebblingSession<'_> {
    PebblingSession::new(dag)
        .solver_options(SolverOptions {
            max_steps: 4 * dag.num_nodes() + 20,
            ..SolverOptions::default()
        })
        .minimize()
        .per_query_timeout(Duration::from_secs(60))
}

/// Asks `first`, then `second`, on one single-worker runtime, and checks
/// `second`'s answer against an uncached run. Returns that answer.
fn ask_after(first: &Dag, second: &Dag) -> Report {
    let runtime = SessionRuntime::new(1).expect("one worker");
    let ask = |dag: &Dag| {
        runtime
            .spawn(question(dag), runtime.root().child())
            .expect("a valid configuration")
            .join()
    };
    ask(first);
    let answer = ask(second);
    let uncached = question(second).run().expect("a valid configuration");
    assert_eq!(answer.minimum, uncached.minimum, "minimum");
    assert_eq!(answer.floor, uncached.floor, "floor");
    let strategy = answer.strategy().expect("every question certifies");
    strategy
        .validate(second, answer.minimum)
        .expect("the strategy is over the asking DAG's ids");
    answer
}

/// Three `BUF` leaves `a, b, c` and three `AND` outputs over `pairs` of
/// them.
fn and_triple(pairs: [(usize, usize); 3]) -> Dag {
    let mut dag = Dag::new();
    let x = dag.add_input("x");
    let leaves: Vec<Source> = ["a", "b", "c"]
        .map(|name| dag.add_node(name, Op::Buf, [x]).expect("valid").into())
        .to_vec();
    for (index, (left, right)) in pairs.into_iter().enumerate() {
        let and = dag
            .add_node(format!("o{index}"), Op::And, [leaves[left], leaves[right]])
            .expect("valid");
        dag.mark_output(and);
    }
    dag
}

/// `AND(a,b)`, `AND(b,c)`, `AND(c,a)`: exact minimum 5.
fn triangle() -> Dag {
    and_triple([(0, 1), (1, 2), (2, 0)])
}

/// `AND(a,b)`, `AND(a,b)`, `AND(c,c)`: minimum 4, and the same
/// `canonical_fingerprint` as [`triangle`].
fn shared() -> Dag {
    and_triple([(0, 1), (0, 1), (2, 2)])
}

/// The pair `perfbench/NOTES.md` records as a fingerprint collision
/// (minimum 4 and 5).
fn notes_pair() -> [Dag; 2] {
    [
        r#"{"inputs":["x0","x1"],"nodes":[{"name":"r0","op":"not","fanins":["x0"]},{"name":"r1","op":"xor","fanins":["x0","r0"]},{"name":"r2","op":"maj","fanins":["x1","r0","r1"]},{"name":"r3","op":"not","fanins":["r0"]},{"name":"r4","op":"not","fanins":["r0"]},{"name":"r5","op":"xor","fanins":["x1","r4"]}],"outputs":["r2","r3","r5"]}"#,
        r#"{"inputs":["x0","x1"],"nodes":[{"name":"r0","op":"not","fanins":["x1"]},{"name":"r1","op":"xor","fanins":["x0","r0"]},{"name":"r2","op":"not","fanins":["r0"]},{"name":"r3","op":"xor","fanins":["r0","r1"]},{"name":"r4","op":"maj","fanins":["x1","r0","r3"]},{"name":"r5","op":"not","fanins":["r3"]}],"outputs":["r2","r4","r5"]}"#,
    ]
    .map(|text| Dag::from_json(text).expect("a valid DAG"))
}

/// `dag` with its nodes re-added in another topological order: always
/// the ready node with the highest old id next.
fn renumbered(dag: &Dag) -> Dag {
    let mut copy = Dag::new();
    let inputs: Vec<Source> = dag
        .input_names()
        .iter()
        .map(|name| copy.add_input(name.clone()))
        .collect();
    let mut new_id: Vec<Option<Source>> = vec![None; dag.num_nodes()];
    while let Some(id) = dag.node_ids().rev().find(|&id| {
        new_id[id.index()].is_none() && dag.children(id).all(|c| new_id[c.index()].is_some())
    }) {
        let node = dag.node(id);
        let fanins = node.fanins.iter().map(|&fanin| match fanin {
            Source::Input(input) => inputs[input.index()],
            Source::Node(child) => new_id[child.index()].expect("placed"),
        });
        let added = copy
            .add_node_weighted(node.name.clone(), node.op, fanins, node.weight)
            .expect("valid");
        new_id[id.index()] = Some(added.into());
    }
    for &output in dag.outputs() {
        copy.mark_output(
            new_id[output.index()]
                .and_then(Source::as_node)
                .expect("placed"),
        );
    }
    copy
}

#[test]
fn the_triangle_after_the_shared_dag_answers_five() {
    assert_eq!(
        shared().canonical_fingerprint(),
        triangle().canonical_fingerprint()
    );
    assert_eq!(ask_after(&shared(), &triangle()).minimum, Some(5));
    assert_eq!(ask_after(&triangle(), &shared()).minimum, Some(4));
}

#[test]
fn the_notes_pair_answers_its_own_minima_in_both_orders() {
    let [first, second] = notes_pair();
    assert_eq!(ask_after(&first, &second).minimum, Some(5));
    assert_eq!(ask_after(&second, &first).minimum, Some(4));
}

#[test]
fn a_renumbered_copy_gets_a_strategy_over_its_own_ids() {
    let [first, second] = notes_pair();
    for dag in [shared(), triangle(), first, second] {
        let copy = renumbered(&dag);
        assert_ne!(copy, dag, "another numbering");
        ask_after(&dag, &copy);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_question_after_another_gets_its_uncached_answer(
        inputs in 2usize..4,
        nodes in 3usize..8,
        seed in any::<u64>(),
        other_seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        ask_after(&random_dag(inputs, nodes, other_seed), &dag);
        ask_after(&dag, &renumbered(&dag));
    }
}
