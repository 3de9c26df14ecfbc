//! Lower bounds used to seed and prune the SAT search.

use revpebble_graph::Dag;

/// The distinct children of `v` — `Dag::children` repeats a node used as
/// several fanins (e.g. `AND(a, a)`), which must count once as a pebble.
fn distinct_children(dag: &Dag, v: revpebble_graph::NodeId) -> Vec<revpebble_graph::NodeId> {
    let mut children: Vec<_> = dag.children(v).collect();
    children.sort_unstable();
    children.dedup();
    children
}

/// A lower bound on the number of pebbles any valid strategy needs:
///
/// - the final configuration holds all `|O|` outputs, and
/// - pebbling the *last* node ever pebbled requires its children pebbled
///   simultaneously, so `max_v |C(v)| + 1` pebbles coexist at that moment.
///
/// (The true minimum can be much higher — e.g. `Ω(log n)` on chains — but
/// this cheap bound already prunes hopeless queries.)
pub fn pebble_lower_bound(dag: &Dag) -> usize {
    let structural = dag
        .node_ids()
        .map(|v| distinct_children(dag, v).len() + 1)
        .max()
        .unwrap_or(0);
    structural.max(dag.num_outputs())
}

/// The weighted analogue of [`pebble_lower_bound`]: a lower bound on the
/// total *weight* budget any valid strategy needs.
///
/// - the final configuration holds all outputs, costing their summed
///   weight, and
/// - pebbling any node `v` requires its children pebbled simultaneously
///   with `v` itself, costing `w(v) + Σ_{c ∈ C(v)} w(c)` at that moment.
///
/// Weighted budgets live in weight units, so on DAGs with heavy nodes this
/// bound (and the matching upper bound [`Dag::total_weight`]) can exceed
/// `num_nodes()` — searches over weighted budgets must use these, not the
/// unweighted node-count bounds.
pub fn weighted_pebble_lower_bound(dag: &Dag) -> usize {
    let weight = |v| u64::from(dag.node(v).weight);
    let structural = dag
        .node_ids()
        .map(|v| {
            weight(v)
                + distinct_children(dag, v)
                    .into_iter()
                    .map(weight)
                    .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    let outputs: u64 = dag
        .node_ids()
        .filter(|&v| dag.is_output(v))
        .map(weight)
        .sum();
    usize::try_from(structural.max(outputs)).expect("weight bound fits usize")
}

/// The budgets a search may probe, `(lower, top)`, in the units the
/// encoding budgets: from the structural lower bound up to the full
/// budget, which is the node count, or the total weight in weighted mode.
pub(crate) fn budget_window(dag: &Dag, weighted: bool) -> (usize, usize) {
    if weighted {
        let total = usize::try_from(dag.total_weight()).expect("total weight fits usize");
        (weighted_pebble_lower_bound(dag), total)
    } else {
        (pebble_lower_bound(dag), dag.num_nodes())
    }
}

/// A lower bound on the number of *sequential* steps: every node lies in
/// the fanin cone of some output (enforced by
/// [`Dag::validate_for_pebbling`]), must be pebbled at least once, and
/// every non-output must also be unpebbled — hence `2n − |O|` moves. The
/// Bennett strategy attains this bound.
pub fn step_lower_bound(dag: &Dag) -> usize {
    2 * dag.num_nodes() - dag.num_outputs()
}

/// A lower bound on the number of *parallel* steps: a node at level `ℓ`
/// cannot be pebbled before step `ℓ`, and after the deepest output is
/// pebbled every remaining non-output at the deepest level still needs
/// unpebbling — we use `depth + 1` when any non-output exists, `depth`
/// otherwise.
pub fn parallel_step_lower_bound(dag: &Dag) -> usize {
    let depth = dag.depth() as usize;
    if dag.num_nodes() > dag.num_outputs() {
        depth + 1
    } else {
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::{and_tree, chain, paper_example};

    #[test]
    fn paper_example_bounds() {
        let dag = paper_example();
        assert_eq!(pebble_lower_bound(&dag), 3); // E has 2 children; ≥ |O| = 2
        assert_eq!(step_lower_bound(&dag), 10);
        assert_eq!(parallel_step_lower_bound(&dag), 4);
    }

    #[test]
    fn chain_bounds() {
        let dag = chain(8);
        assert_eq!(pebble_lower_bound(&dag), 2);
        assert_eq!(step_lower_bound(&dag), 15);
        assert_eq!(parallel_step_lower_bound(&dag), 9);
    }

    #[test]
    fn tree_bounds() {
        let dag = and_tree(9);
        assert_eq!(pebble_lower_bound(&dag), 3);
        assert_eq!(step_lower_bound(&dag), 15);
    }

    #[test]
    fn weighted_bound_reduces_to_unweighted_on_unit_weights() {
        for dag in [paper_example(), chain(8), and_tree(9)] {
            assert_eq!(weighted_pebble_lower_bound(&dag), pebble_lower_bound(&dag));
        }
    }

    #[test]
    fn weighted_bound_counts_weights_not_nodes() {
        use revpebble_graph::{Dag, Op};
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        // Pebbling b needs a (3) and b (2) live at once; the bound exceeds
        // the node count, which is what broke the unweighted search range.
        assert_eq!(weighted_pebble_lower_bound(&dag), 5);
        assert!(weighted_pebble_lower_bound(&dag) > dag.num_nodes());
    }

    #[test]
    fn duplicate_fanins_count_once() {
        use revpebble_graph::{Dag, Op};
        // b = AND(a, a): a is one pebble, not two — budget 2 is feasible
        // ({a} → {a, b} → {b}), so the bound must not exceed it.
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node("a", Op::Buf, [x]).expect("valid");
        let b = dag
            .add_node("b", Op::And, [a.into(), a.into()])
            .expect("valid");
        dag.mark_output(b);
        assert_eq!(pebble_lower_bound(&dag), 2);
        assert_eq!(weighted_pebble_lower_bound(&dag), 2);
        let strategy = crate::session::PebblingSession::new(&dag)
            .pebbles(2)
            .run()
            .expect("valid configuration")
            .into_strategy()
            .expect("budget 2 is feasible");
        strategy.validate(&dag, Some(2)).expect("valid");
    }

    #[test]
    fn bounds_are_sound_for_bennett() {
        use crate::baselines::bennett;
        for dag in [paper_example(), chain(5), and_tree(8)] {
            let s = bennett(&dag);
            assert!(s.num_steps() >= step_lower_bound(&dag));
            assert_eq!(s.num_steps(), step_lower_bound(&dag));
            assert!(s.max_pebbles(&dag) >= pebble_lower_bound(&dag));
        }
    }
}
