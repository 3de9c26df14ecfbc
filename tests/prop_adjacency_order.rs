//! Node numbering of adjacency descriptions. Rows may come in any order;
//! the readers number the nodes in the order Kahn's algorithm adds them
//! when its ready set is a min-heap on the row index, so a description
//! already in topological order, as `to_adjacency_json` writes it, keeps
//! its numbering.
//!
//! On random DAGs (`random_dag` and small `iscas_proxy` shapes) written
//! with their rows shuffled by a seeded permutation and some names
//! escaped, `Dag::from_json` and an inline `Request::parse` must number
//! the nodes exactly as the reference Kahn below does. Written in
//! order, a description must round-trip to identical JSON.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use revpebble::graph::generators::{iscas_proxy, random_dag, ProxyShape};
use revpebble::graph::{json_escape, Dag, NodeId, Source};
use revpebble_serve::{DagSpec, Request};

/// A xorshift stream for the permutation and the escape choices.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// `dag` with every third input and node renamed to carry a quote, a
/// backslash and non-ASCII text, so its JSON needs escapes.
fn with_hostile_names(dag: &Dag) -> Dag {
    let hostile = |index: usize, name: &str| {
        if index.is_multiple_of(3) {
            format!("{name} \"q\\é🧩")
        } else {
            name.to_owned()
        }
    };
    let mut out = Dag::new();
    for (index, name) in dag.input_names().iter().enumerate() {
        out.add_input(hostile(index, name));
    }
    for id in dag.node_ids() {
        let node = dag.node(id);
        out.add_node_weighted(
            hostile(id.index() + 1, &node.name),
            node.op,
            node.fanins.clone(),
            node.weight,
        )
        .expect("the same shape as a valid DAG");
    }
    for &id in dag.outputs() {
        out.mark_output(id);
    }
    out
}

/// `name` as a JSON string literal: escaped as `json_escape` does, or,
/// when `spell` is set, every UTF-16 unit as a `\u` escape.
fn literal(name: &str, spell: bool) -> String {
    if !spell {
        return format!("\"{}\"", json_escape(name));
    }
    let units: String = name
        .encode_utf16()
        .map(|unit| format!("\\u{unit:04x}"))
        .collect();
    format!("\"{units}\"")
}

/// `dag`'s adjacency description with its rows in the order `rows`
/// lists node ids, spelling about one name in three with `\u` escapes.
fn describe(dag: &Dag, rows: &[NodeId], stream: &mut Stream) -> String {
    let mut name = |text: &str| literal(text, stream.next().is_multiple_of(3));
    let inputs: Vec<String> = dag.input_names().iter().map(|text| name(text)).collect();
    let nodes: Vec<String> = rows
        .iter()
        .map(|&id| {
            let node = dag.node(id);
            let fanins: Vec<String> = node
                .fanins
                .iter()
                .map(|&fanin| match fanin {
                    Source::Input(input) => name(&dag.input_names()[input.index()]),
                    Source::Node(dep) => name(&dag.node(dep).name),
                })
                .collect();
            let weight = if node.weight == 1 {
                String::new()
            } else {
                format!(",\"weight\":{}", node.weight)
            };
            format!(
                "{{\"name\":{},\"op\":\"{}\",\"fanins\":[{}]{weight}}}",
                name(&node.name),
                node.op.to_string().to_ascii_lowercase(),
                fanins.join(",")
            )
        })
        .collect();
    let outputs: Vec<String> = dag
        .outputs()
        .iter()
        .map(|&id| name(&dag.node(id).name))
        .collect();
    format!(
        "{{\"inputs\":[{}],\"nodes\":[{}],\"outputs\":[{}]}}",
        inputs.join(","),
        nodes.join(","),
        outputs.join(",")
    )
}

/// The DAG a reader must build from rows in the order `rows`: the nodes
/// added in the order of a Kahn's algorithm whose ready set is a
/// min-heap on the row index.
fn reference_kahn(dag: &Dag, rows: &[NodeId]) -> Dag {
    let mut row_of = vec![0; dag.num_nodes()];
    for (row, id) in rows.iter().enumerate() {
        row_of[id.index()] = row;
    }
    let mut missing = vec![0usize; rows.len()];
    let mut dependents = vec![Vec::new(); rows.len()];
    for (row, &id) in rows.iter().enumerate() {
        for fanin in &dag.node(id).fanins {
            if let Source::Node(dep) = fanin {
                missing[row] += 1;
                dependents[row_of[dep.index()]].push(row);
            }
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = (0..rows.len())
        .filter(|&row| missing[row] == 0)
        .map(Reverse)
        .collect();
    let mut out = Dag::new();
    for name in dag.input_names() {
        out.add_input(name.clone());
    }
    let mut renumbered = vec![None; dag.num_nodes()];
    while let Some(Reverse(row)) = ready.pop() {
        let node = dag.node(rows[row]);
        let fanins = node.fanins.iter().map(|&fanin| match fanin {
            Source::Node(dep) => Source::Node(renumbered[dep.index()].expect("added before")),
            input => input,
        });
        let id = out
            .add_node_weighted(node.name.clone(), node.op, fanins, node.weight)
            .expect("the same shape as a valid DAG");
        renumbered[rows[row].index()] = Some(id);
        for &dependent in &dependents[row] {
            missing[dependent] -= 1;
            if missing[dependent] == 0 {
                ready.push(Reverse(dependent));
            }
        }
    }
    for &id in dag.outputs() {
        out.mark_output(renumbered[id.index()].expect("acyclic"));
    }
    out
}

/// Both readers on the description of `dag` with its rows shuffled by
/// `seed`, and on the description as `to_adjacency_json` writes it.
fn check_both_readers(dag: &Dag, seed: u64) {
    let dag = with_hostile_names(dag);
    let mut stream = Stream(seed | 1);
    let mut rows: Vec<NodeId> = dag.node_ids().collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, (stream.next() % (i as u64 + 1)) as usize);
    }
    let text = describe(&dag, &rows, &mut stream);
    let expected = reference_kahn(&dag, &rows);
    prop_assert_eq!(
        Dag::from_json(&text).expect("a valid description"),
        expected.clone()
    );
    let frame = format!("{{\"name\":\"shuffled\",\"dag\":{text}}}");
    let request = Request::parse(&frame).expect("a valid frame");
    prop_assert_eq!(request.dag, DagSpec::Inline(expected));

    let in_order = dag.to_adjacency_json();
    let parsed = Dag::from_json(&in_order).expect("a valid description");
    prop_assert_eq!(parsed.to_adjacency_json(), in_order.clone());
    prop_assert_eq!(&parsed, &dag);
    let frame = format!("{{\"name\":\"in order\",\"dag\":{in_order}}}");
    let request = Request::parse(&frame).expect("a valid frame");
    prop_assert_eq!(request.dag, DagSpec::Inline(dag));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn random_dags_number_like_the_reference_kahn(
        inputs in 1usize..6,
        nodes in 1usize..40,
        seed in any::<u64>(),
        shuffle in any::<u64>(),
    ) {
        check_both_readers(&random_dag(inputs, nodes, seed), shuffle);
    }

    #[test]
    fn proxy_netlists_number_like_the_reference_kahn(
        inputs in 1usize..8,
        outputs in 1usize..6,
        nodes in 1usize..60,
        seed in any::<u64>(),
        shuffle in any::<u64>(),
    ) {
        let shape = ProxyShape { inputs, outputs, nodes: nodes.max(outputs) };
        check_both_readers(&iscas_proxy(shape, seed), shuffle);
    }
}
