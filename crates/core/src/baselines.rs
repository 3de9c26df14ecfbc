//! Baseline uncomputation strategies.
//!
//! - [`bennett`]: the classic strategy of Bennett (1989) used as the
//!   comparison baseline throughout the paper's Table I: compute every
//!   node bottom-up, then uncompute every non-output top-down. Minimum
//!   number of steps (`2n − |O|`), maximum number of pebbles (`n`).
//! - [`cone_wise`]: a greedy heuristic that computes one output cone at a
//!   time and uncomputes it immediately, trading recomputation for a lower
//!   pebble peak without any SAT solving. Its peak caps the budgets a
//!   minimize session probes, and it serves as an ablation baseline.

use revpebble_graph::{Dag, NodeId};

use crate::config::PebbleConfig;
use crate::strategy::{Move, Strategy};

/// The Bennett strategy: pebble all nodes in topological order, then
/// unpebble all non-output nodes in reverse topological order.
///
/// The result uses exactly `n` pebbles and `2n − |O|` steps — the paper's
/// "minimum number of gates, maximum number of qubits" corner (Fig. 3a).
pub fn bennett(dag: &Dag) -> Strategy {
    let mut strategy = Strategy::default();
    for node in dag.node_ids() {
        strategy.push_move(Move::Pebble(node));
    }
    for node in dag.node_ids().rev() {
        if !dag.is_output(node) {
            strategy.push_move(Move::Unpebble(node));
        }
    }
    strategy
}

/// A greedy cone-at-a-time strategy: for every output (in increasing
/// cone-size order), pebble its transitive fanin cone bottom-up — skipping
/// already-pebbled nodes — then unpebble everything in the cone top-down
/// except outputs already produced. Shared cone nodes are recomputed for
/// later outputs, so the strategy uses more steps than Bennett but its
/// peak is bounded by `max cone size + #outputs` instead of `n`.
///
/// A fast upper bound for the SAT search: a minimize session probes no
/// budget above this strategy's peak when its moves fit the session's
/// step cap, so on `b3_m4` its walk tops out at 27 pebbles instead of 64.
/// A frontier sweep and a fixed budget do not use it.
pub fn cone_wise(dag: &Dag) -> Strategy {
    let mut strategy = Strategy::default();
    let mut current = PebbleConfig::empty(dag.num_nodes());
    // Each cone is sorted, hence in topological order. Small cones first
    // (a stable sort, so ties keep output order) keeps the transient peak
    // low.
    let mut cones: Vec<Vec<NodeId>> = dag.outputs().iter().map(|&o| dag.cone(o)).collect();
    cones.sort_by_key(Vec::len);
    for cone in &cones {
        for &v in cone {
            if !current.is_pebbled(v) {
                strategy.push_move(Move::Pebble(v));
                current.pebble(v);
            }
        }
        for &v in cone.iter().rev() {
            if !dag.is_output(v) && current.is_pebbled(v) {
                strategy.push_move(Move::Unpebble(v));
                current.unpebble(v);
            }
        }
    }
    strategy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::step_lower_bound;
    use revpebble_graph::builtin_dag;
    use revpebble_graph::generators::{and_tree, chain, paper_example, random_dag};
    use revpebble_graph::slp::{h_operator_sized, kummer_ladder_step};

    #[test]
    fn bennett_on_paper_example() {
        let dag = paper_example();
        let strategy = bennett(&dag);
        strategy.validate(&dag, Some(6)).expect("valid");
        assert_eq!(strategy.num_steps(), 10); // 2·6 − 2
        assert_eq!(strategy.max_pebbles(&dag), 6);
        assert!(strategy.is_sequential());
    }

    #[test]
    fn bennett_step_formula_holds() {
        for (dag, n, o) in [
            (and_tree(9), 8, 1),
            (chain(7), 7, 1),
            (paper_example(), 6, 2),
        ] {
            let s = bennett(&dag);
            s.validate(&dag, None).expect("valid");
            assert_eq!(s.num_steps(), 2 * n - o);
            assert_eq!(s.max_pebbles(&dag), n);
        }
    }

    #[test]
    fn bennett_on_kummer() {
        let dag = kummer_ladder_step().to_dag().expect("valid");
        let s = bennett(&dag);
        s.validate(&dag, None).expect("valid");
        assert_eq!(s.num_steps(), 2 * 56 - 8);
    }

    #[test]
    fn cone_wise_is_valid_and_never_worse_on_pebbles() {
        for seed in 0..20 {
            let dag = random_dag(5, 30, seed);
            let cw = cone_wise(&dag);
            cw.validate(&dag, None)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let b = bennett(&dag);
            assert!(
                cw.max_pebbles(&dag) <= b.max_pebbles(&dag),
                "seed {seed}: cone-wise used more pebbles than Bennett"
            );
            assert!(cw.num_steps() >= step_lower_bound(&dag), "seed {seed}");
        }
    }

    #[test]
    fn cone_wise_peaks_and_moves_are_pinned() {
        // (design, peak, moves). On `paper`, F's cone {A, F} goes first
        // and F stays pebbled while E's cone {A, B, C, D, E} is built, so
        // the peak is all 6 nodes and A is pebbled twice.
        let designs = [
            ("paper", builtin_dag("paper"), 6, 12),
            ("c17", builtin_dag("c17"), 5, 14),
            ("hop", builtin_dag("hop"), 6, 20),
            ("adder4", builtin_dag("adder4"), 9, 29),
            ("edwards", builtin_dag("edwards"), 16, 65),
            ("kummer", builtin_dag("kummer"), 32, 352),
            ("b3_m4", builtin_dag("b3_m4"), 27, 188),
            ("b2_m3", Some(h_operator_sized(74)), 33, 236),
        ];
        for (name, dag, peak, moves) in designs {
            let dag = dag.expect("a built-in design");
            let cw = cone_wise(&dag);
            cw.validate(&dag, Some(peak)).expect("valid");
            assert!(cw.is_sequential(), "{name}");
            assert_eq!(
                (cw.max_pebbles(&dag), cw.num_moves()),
                (peak, moves),
                "{name}"
            );
        }
    }

    #[test]
    fn cone_wise_on_trees_matches_bennett_pebbles_or_better() {
        let dag = and_tree(16);
        let cw = cone_wise(&dag);
        cw.validate(&dag, None).expect("valid");
        assert!(cw.max_pebbles(&dag) <= bennett(&dag).max_pebbles(&dag));
    }
}
