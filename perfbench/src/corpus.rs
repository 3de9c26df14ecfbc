//! The designs the library workloads ask about, and their oracle answers.
//!
//! The corpus depends on the seed and on nothing the benchmark measures:
//! named designs from the paper and the repository's built-ins, plus the
//! first seeded random DAGs of a node range, each drawn from its own
//! random stream. No draw is chosen by how the solver fares on it. A rare
//! draw can still be expensive, so every op on one runs under a conflict
//! quota far above need ([`GUARD_CONFLICTS`]); an op that hits it fails
//! the run.

use std::time::Duration;

use revpebble::core::baselines::bennett;
use revpebble::core::{
    exact_min_pebbles, solve_exact, EncodingOptions, ExactOutcome, MoveMode, SolverOptions,
    StepSchedule,
};
use revpebble::graph::generators::{and_tree, binary_in_tree, chain, paper_example, random_dag};
use revpebble::graph::{builtin_dag, slp, Dag};

/// Wall clock of every per-query, per-probe and per-request limit: far
/// above what any op here needs, so no answer is clock-bound. An op that
/// ends on it fails the run.
pub const CLOCK: Duration = Duration::from_secs(120);

/// Conflict budget per SAT query on the budgeted Table I rows; it stands
/// in for the paper's per-query timeout and makes the rows repeatable.
pub const ROW_QUERY_CONFLICTS: u64 = 1_000;

/// Conflict quota of every op on a seeded random draw: nearly nine times
/// the most (11 272) that any of 800 draws of 8–9 nodes needed to
/// certify its minimum. It bounds a run, not the answer: an op that
/// reaches it stops early and fails the run.
pub const GUARD_CONFLICTS: u64 = 100_000;

/// SplitMix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One design and the way the workloads pose it.
#[derive(Debug, Clone)]
pub struct Design {
    /// Short name for reports.
    pub name: String,
    /// The DAG.
    pub dag: Dag,
    /// Solver options every op on this design uses.
    pub options: SolverOptions,
    /// A Table I H-operator row: parallel moves, descending budget
    /// schedule, per-query conflict budget. Its answers are checked for
    /// validity only.
    pub budgeted: bool,
    /// The exact minimum pebble count (BFS oracle); `None` on budgeted
    /// rows.
    pub min_pebbles: Option<usize>,
    /// Conflict quota of every op on the design (seeded draws only).
    pub guard: Option<u64>,
}

impl Design {
    /// A decisive design: sequential moves, step cap `4n + 20`, so every
    /// probe ends in SAT or a certified step limit; the oracle fixes its
    /// minimum.
    pub fn decisive(name: impl Into<String>, dag: Dag) -> Self {
        let options = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 4 * dag.num_nodes() + 20,
            ..SolverOptions::default()
        };
        let min_pebbles = Some(exact_min_pebbles(&dag));
        Design {
            name: name.into(),
            dag,
            options,
            budgeted: false,
            min_pebbles,
            guard: None,
        }
    }

    /// A Table I H-operator row in the `table1` harness shape, with the
    /// `Linear` step schedule (under `ExponentialRefine` an inconclusive
    /// incremental probe retries on the clock) and a per-query conflict
    /// budget in place of the paper's timeout.
    pub fn table1_row(name: impl Into<String>, nodes: usize) -> Self {
        let dag = slp::h_operator_sized(nodes);
        let options = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Parallel,
                ..EncodingOptions::default()
            },
            schedule: StepSchedule::Linear,
            max_steps: 16 * dag.num_nodes(),
            query_conflicts: Some(ROW_QUERY_CONFLICTS),
            ..SolverOptions::default()
        };
        Design {
            name: name.into(),
            dag,
            options,
            budgeted: true,
            min_pebbles: None,
            guard: None,
        }
    }

    /// Bennett's pebble count: the top of the budget range.
    pub fn bennett_pebbles(&self) -> usize {
        bennett(&self.dag).max_pebbles(&self.dag)
    }

    /// Stride of the budgeted rows' descending schedule (as `table1`).
    pub fn descending_stride(&self) -> usize {
        (self.dag.num_nodes() / 12).max(1)
    }
}

/// A named design of the decisive regime: the paper's running example,
/// built-ins, and members of the generator families the paper uses.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn named(name: &str) -> Design {
    let dag = match name {
        "paper" => paper_example(),
        "andtree8" => and_tree(8),
        "andtree9" => and_tree(9),
        "andtree11" => and_tree(11),
        "bintree3" => binary_in_tree(3),
        "chain8" => chain(8),
        "chain10" => chain(10),
        "chain12" => chain(12),
        builtin => builtin_dag(builtin).unwrap_or_else(|| panic!("no design named {name}")),
    };
    Design::decisive(name, dag)
}

/// The smallest H-operator rows of Table I.
pub fn table1_rows() -> Vec<Design> {
    vec![
        Design::table1_row("b3_m4", 59),
        Design::table1_row("b2_m3", 74),
    ]
}

/// The first `count` seeded random DAGs with node counts in `nodes`.
/// Draw `i` comes from its own stream `(seed, stream + i)`, so the set at
/// a seed is fixed by the seed alone, and the ops on each run under the
/// [`GUARD_CONFLICTS`] quota.
pub fn random_designs(seed: u64, stream: u64, count: usize, nodes: (usize, usize)) -> Vec<Design> {
    (0..count)
        .map(|i| {
            let mut rng = Rng::new(seed, stream + i as u64);
            let nodes = rng.range(nodes.0, nodes.1);
            let inputs = rng.range(2, 3 + nodes / 4);
            let dag = random_dag(inputs, nodes, rng.next_u64());
            let mut design = Design::decisive(format!("rand{nodes}-{i}"), dag);
            design.guard = Some(GUARD_CONFLICTS);
            design
        })
        .collect()
}

/// The exact minimum step count of `dag` under `pebbles` (BFS oracle,
/// sequential moves).
pub fn exact_min_steps(dag: &Dag, pebbles: usize) -> usize {
    match solve_exact(dag, pebbles) {
        ExactOutcome::Optimal(strategy) => strategy.num_steps(),
        ExactOutcome::Infeasible => panic!("infeasible at {pebbles} pebbles"),
    }
}
