//! Lower bounds used to seed and prune the SAT search.

use revpebble_graph::{Dag, NodeId};

use crate::baselines::cone_wise;
use crate::solver::achieved_budget;

/// The distinct children of `v` — `Dag::children` repeats a node used as
/// several fanins (e.g. `AND(a, a)`), which must count once as a pebble.
fn distinct_children(dag: &Dag, v: NodeId) -> Vec<NodeId> {
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

/// Most nodes in one set `S` whose exact price [`subdag_lower_bound`]
/// searches: the visited set is a bitset over the `2^|S|` configurations
/// of `D[S]`, 32 KiB at 18 nodes.
const MAX_PREFIX_NODES: usize = 18;

/// Node sets [`subdag_lower_bound`] prices per DAG: the one grown from
/// every output at once, then one per output, deepest first.
const MAX_PREFIXES: usize = 4;

/// Configurations [`subdag_lower_bound`] expands per DAG, shared by all
/// of its node sets: the cap that keeps the bound cheap on every DAG.
const MAX_EXPANSIONS: usize = 1 << 16;

/// A lower bound on the number of pebbles any valid strategy needs, at
/// least [`pebble_lower_bound`] and often far above it (`⌈log₂ n⌉ + 1`
/// on a chain of `n ≤ 20` nodes, where [`pebble_lower_bound`] says 2):
/// the exact prices of a few induced sub-DAGs `D[S]`, found by a search
/// that needs no SAT solver.
///
/// **Soundness, for any node set `S`.** Restrict a valid strategy for
/// `D` to `S`: keep only the moves on nodes of `S`, and only the
/// pebbles on `S` in each configuration. The result is a valid strategy
/// for `D[S]`, in which a node's children outside `S` count as free:
///
/// - it starts with nothing pebbled, as the strategy for `D` does;
/// - a move on `v ∈ S` needs all of `v`'s children pebbled in `D`, so in
///   particular its children in `S`;
/// - at the end `D`'s outputs in `S` are pebbled and the other nodes of
///   `S` are not, since `D`'s final configuration is exactly its outputs;
/// - the pebbles on `S` never exceed the pebbles on `D`.
///
/// So every strategy for `D` uses at least as many pebbles as the
/// cheapest strategy for `D[S]`: `D[S]`'s exact price bounds `D`'s
/// minimum from below. The argument never looks at the number of steps,
/// so the bound holds at every step count, which makes it stronger than
/// a refutation under a step cap. It holds for parallel moves too: a
/// parallel step (whose changing nodes' children stay pebbled across it)
/// serializes into its unpebbles followed by its pebbles, and no
/// configuration along the way holds more pebbles than the step's larger
/// end.
///
/// **Which `S`.** Each `S` is a breadth-first prefix of at most 18 nodes
/// grown along child edges from the outputs, so every node of `S` reaches
/// an output inside `S`: first from every output at once, then from
/// single outputs, deepest level ([`Dag::levels`]) first, four prefixes
/// in all. A prefix of `|S|` nodes never costs more than `|S|` pebbles
/// (pebble it in topological order, then unpebble its non-outputs in
/// reverse), so a prefix no larger than the bound so far is skipped
/// without a search.
///
/// **When the bound is exact.** On a DAG of at most 18 nodes the first
/// prefix is the whole DAG. When its search finishes under the work cap
/// below, or it is skipped because the DAG has no more nodes than the
/// bound so far (then `price ≤ n ≤ bound ≤ minimum`), the bound is the
/// DAG's exact minimum at every step count, and no later prefix is
/// searched. Minimize sessions probe such a floor first.
///
/// **The price.** A depth-first search over the configurations of `D[S]`
/// reachable from the empty one within `p` pebbles. `p` starts at the
/// bound so far: when the search exhausts them without meeting the final
/// configuration, `D[S]` needs more than `p` pebbles, so `p` rises and the
/// search resumes from the configurations that had a move `p` was too
/// small for. The visited set is a bitset; no strategy is built.
///
/// A *leaf* of `D[S]`, a node with no children in `S`, can be pebbled
/// at any time, so the search leaves leaves out of its configurations
/// and charges a move on `v` for `v`'s leaf children too. That changes no
/// price: rewrite any strategy for `D[S]` so that it pebbles each leaf
/// child of `v` just before a move on `v` and unpebbles it just after,
/// and pebbles the leaf outputs last. The leaves a move needs were
/// pebbled on both sides of it in the original, so no configuration of
/// the rewrite holds more pebbles than one of the original; the last
/// ones hold at most `D`'s outputs, no more than [`pebble_lower_bound`],
/// where every search starts.
///
/// **Cost.** Searches stop after a fixed number of expanded
/// configurations per DAG, shared by all prefixes. A search cut by that
/// cap keeps only the budgets it exhausted, so the bound stays sound, and
/// later prefixes are not searched. A DAG whose structural bound already
/// reaches 18 (such as one with 18 or more outputs) pays only for
/// building its prefixes.
///
/// [`crate::exact`] is the reference for exact prices, not this search:
/// tests check the bound against [`crate::exact::exact_min_pebbles`].
pub fn subdag_lower_bound(dag: &Dag) -> usize {
    subdag_floor(dag).0
}

/// [`subdag_lower_bound`], and whether it is the DAG's exact minimum: the
/// whole DAG was priced to the end, or skipped as no larger than the
/// bound so far.
pub(crate) fn subdag_floor(dag: &Dag) -> (usize, bool) {
    let mut bound = pebble_lower_bound(dag);
    let outputs = dag.outputs();
    let levels = dag.levels();
    let mut deepest = outputs.to_vec();
    deepest.sort_by_key(|o| std::cmp::Reverse(levels[o.index()]));
    let mut in_prefix = vec![false; dag.num_nodes()];
    let mut prefixes: Vec<Vec<NodeId>> = Vec::with_capacity(MAX_PREFIXES);
    let mut work = MAX_EXPANSIONS;
    let roots = std::iter::once(outputs).chain(deepest.chunks(1));
    for roots in roots.take(MAX_PREFIXES) {
        if work == 0 {
            break;
        }
        let prefix = bfs_prefix(dag, roots, &mut in_prefix);
        let mut finished = true;
        if prefix.len() > bound && !prefixes.contains(&prefix) {
            let (price, done) = subdag_price(dag, &prefix, bound, &mut work);
            bound = bound.max(price);
            finished = done;
        }
        if finished && prefix.len() == dag.num_nodes() {
            return (bound, true);
        }
        prefixes.push(prefix);
    }
    (bound, false)
}

/// The first [`MAX_PREFIX_NODES`] nodes a breadth-first search along
/// child edges from `roots` meets, in the order it meets them.
/// `in_prefix` is all `false` on entry and on return.
fn bfs_prefix(dag: &Dag, roots: &[NodeId], in_prefix: &mut [bool]) -> Vec<NodeId> {
    let mut prefix = Vec::with_capacity(MAX_PREFIX_NODES);
    let mut visit = |v: NodeId, prefix: &mut Vec<NodeId>| {
        if prefix.len() < MAX_PREFIX_NODES && !in_prefix[v.index()] {
            in_prefix[v.index()] = true;
            prefix.push(v);
        }
    };
    for &root in roots {
        visit(root, &mut prefix);
    }
    // `prefix` is its own queue: expand the nodes in the order met.
    let mut head = 0;
    while head < prefix.len() && prefix.len() < MAX_PREFIX_NODES {
        let v = prefix[head];
        head += 1;
        for child in dag.children(v) {
            visit(child, &mut prefix);
        }
    }
    for v in &prefix {
        in_prefix[v.index()] = false;
    }
    prefix
}

/// Prices `D[S]` for `S = prefix` from budget `start` up (see
/// [`subdag_lower_bound`]): returns the budget at which the search met
/// the final configuration or ran out of `work`, every smaller budget
/// from `start` up having been exhausted, or `|S|` once every budget
/// below it was; and whether the search finished, that is, was not cut
/// by running out of `work`.
fn subdag_price(dag: &Dag, prefix: &[NodeId], start: usize, work: &mut usize) -> (usize, bool) {
    let size = prefix.len();
    let bit = |v: NodeId| prefix.iter().position(|&u| u == v).map_or(0, |i| 1u32 << i);
    let child_masks: Vec<u32> = prefix
        .iter()
        .map(|&v| dag.children(v).fold(0, |mask, c| mask | bit(c)))
        .collect();
    // Leaves never enter a searched configuration: a move on a node
    // pays for its leaf children on top of the configuration.
    let leaves = (0..size)
        .filter(|&i| child_masks[i] == 0)
        .fold(0u32, |mask, i| mask | 1 << i);
    let leaf_children: Vec<usize> = child_masks
        .iter()
        .map(|&children| (children & leaves).count_ones() as usize)
        .collect();
    let inner_children: Vec<u32> = child_masks.iter().map(|&c| c & !leaves).collect();
    let target = prefix
        .iter()
        .filter(|&&v| dag.is_output(v))
        .fold(0, |mask, &v| mask | bit(v))
        & !leaves;
    if target == 0 {
        return (start, true);
    }
    let mut visited = vec![0u64; (1usize << size).div_ceil(64)];
    visited[0] = 1;
    let mut stack = vec![0u32];
    // Configurations with a move `p` was too small for: the only ones
    // to expand again once `p` rises.
    let mut capped = Vec::new();
    let mut p = start;
    while p < size {
        while let Some(config) = stack.pop() {
            if *work == 0 {
                return (p, false);
            }
            *work -= 1;
            // The nodes whose children in the configuration are all
            // pebbled, as a mask built without a branch per node.
            let mut moves = 0u32;
            for (i, &children) in inner_children.iter().enumerate() {
                moves |= u32::from(config & children == children) << i;
            }
            moves &= !leaves;
            let pebbles = config.count_ones() as usize;
            let mut over_budget = false;
            while moves != 0 {
                let i = moves.trailing_zeros() as usize;
                moves &= moves - 1;
                let pebbling = config & (1 << i) == 0;
                if pebbles + usize::from(pebbling) + leaf_children[i] > p {
                    over_budget = true;
                    continue;
                }
                let next = config ^ (1 << i);
                if next == target {
                    return (p, true);
                }
                let (word, mask) = (next as usize / 64, 1u64 << (next % 64));
                if visited[word] & mask == 0 {
                    visited[word] |= mask;
                    stack.push(next);
                }
            }
            if over_budget {
                capped.push(config);
            }
        }
        // Every configuration reachable from the empty one within `p`
        // pebbles was expanded, and none is final: `D[S]` needs more.
        p += 1;
        std::mem::swap(&mut stack, &mut capped);
    }
    (size, true)
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

/// The top of a minimize walk's window, in the units of
/// [`budget_window`]: the smaller of the full budget and the peak of the
/// [`cone_wise`] strategy, which is built without SAT, when that strategy
/// has at most `max_steps` steps.
///
/// Within a step cap the minimum is at most the peak of any valid
/// strategy that fits the cap. `cone_wise` is sequential, and a
/// sequential strategy of `M` moves is also a parallel one of at most
/// `M` steps, so its peak bounds the minimum in either move mode as long
/// as its moves fit `max_steps`; past that the full budget stays the top.
/// The top only bounds which budgets a walk probes: answers still come
/// from SAT probes, and no floor or certificate reads it.
pub(crate) fn known_top(dag: &Dag, weighted: bool, max_steps: usize) -> usize {
    let full = budget_window(dag, weighted).1;
    let known = cone_wise(dag);
    if known.num_steps() > max_steps {
        return full;
    }
    full.min(achieved_budget(dag, weighted, &known))
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
    fn a_floor_search_cut_by_the_work_cap_is_not_exact() {
        use revpebble_graph::generators::random_dag;
        // 18 nodes, so the first prefix is the whole DAG, but its search
        // runs out of expansions at budget 8, and 8 pebbles do not suffice.
        let dag = random_dag(5, 18, 266);
        assert_eq!(subdag_floor(&dag), (8, false));
        assert!(crate::exact::solve_exact(&dag, 8).into_strategy().is_none());
        // A whole-DAG search that finishes is exact.
        assert_eq!(subdag_floor(&chain(18)), (6, true));
        assert_eq!(subdag_floor(&paper_example()), (4, true));
        // Above 18 nodes no prefix is the whole DAG.
        assert_eq!(subdag_floor(&chain(19)), (6, false));
    }

    #[test]
    fn the_known_top_is_the_cone_wise_peak_within_the_step_cap() {
        // `b3_m4`'s cone-wise strategy peaks at 27 of 64 pebbles in 188
        // moves; under a tighter cap the full budget stays the top. Its
        // weights are all 1, so the weighted top is the same.
        let dag = revpebble_graph::builtin_dag("b3_m4").expect("built-in");
        assert_eq!(known_top(&dag, false, 188), 27);
        assert_eq!(known_top(&dag, true, 188), 27);
        assert_eq!(known_top(&dag, false, 187), 64);
        // A single cone is Bennett's strategy: no pebble saved.
        assert_eq!(known_top(&chain(8), false, 15), 8);
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
