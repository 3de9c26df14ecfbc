//! The SAT encoding of the reversible pebbling game (Section III of the
//! paper), built incrementally so the iterative deepening over the number
//! of steps `K` reuses all learned clauses.
//!
//! For every node `v` and time point `i ∈ 0..=K` a variable `p_{v,i}`
//! states "v is pebbled at time i". The clause groups are exactly the
//! paper's:
//!
//! - **initial**: `¬p_{v,0}` for all `v` — added as unit clauses;
//! - **final**: `p_{v,K}` for outputs, `¬p_{v,K}` otherwise — passed as
//!   *assumptions*, so a later extension to `K' > K` can simply re-assert
//!   them at `K'` without re-encoding;
//! - **move**: `(p_{v,i} ⊕ p_{v,i+1}) → (p_{w,i} ∧ p_{w,i+1})` for every
//!   edge `w → v`, i.e. four clauses per edge per transition;
//! - **cardinality**: `Σ_v p_{v,i} ≤ P` per time point, via the encodings
//!   of [`revpebble_sat::card`]. With [`BoundMode::Assumed`] the bound is
//!   not encoded at all: every time point keeps a persistent unary counter
//!   ([`revpebble_sat::card::IncrementalTotalizer`]) and each query
//!   *assumes* `!out[P]`, so one encoding serves every budget `P` — the
//!   basis of the incremental pebble-minimization search.
//!
//! Two move semantics are supported: [`MoveMode::Parallel`] is the paper's
//! plain encoding (several nodes may flip in one transition);
//! [`MoveMode::Sequential`] adds change indicators constrained to at most
//! one per transition, which makes `K` comparable with Definition 3 and
//! with the Bennett step count.

use std::sync::Arc;
use std::time::Instant;

use revpebble_graph::{Dag, NodeId};
use revpebble_sat::card::{self, CardEncoding, IncrementalTotalizer};
use revpebble_sat::{
    CancelReason, CancelToken, Lit, SharedClausePool, SolveResult, Solver, SolverConfig, Var,
};

use crate::strategy::{Move, Strategy};

/// How the pebble budget `P` is attached to the formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// `at_most_k(P)` clauses are added per time point at encoding time.
    /// Simplest and smallest formula, but the budget is frozen — changing
    /// it means rebuilding the encoding (and rediscovering every learnt
    /// clause). The default.
    #[default]
    Baked,
    /// Every time point gets a persistent [`IncrementalTotalizer`] whose
    /// unary outputs stay unconstrained; each query *assumes* `!out[P]`
    /// instead. One encoding (and one solver with all its learnt clauses,
    /// activities and saved phases) then serves every budget — the engine
    /// behind [`PebbleSolver::resolve_with_budget`] and the incremental
    /// [`minimize`] search.
    ///
    /// [`PebbleSolver::resolve_with_budget`]: crate::solver::PebbleSolver::resolve_with_budget
    /// [`minimize`]: crate::session::PebblingSession::minimize
    Assumed,
}

/// Move semantics of the encoding (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MoveMode {
    /// At most one pebble changes per step — the game of the paper's
    /// Definition 3, whose step counts are comparable with Bennett's
    /// `2n − |O|`. The default.
    #[default]
    Sequential,
    /// Any number of pebbles may change per step, provided each flipped
    /// node has its children pebbled on both sides of the step. This is
    /// what the paper's clause set admits and it shortens `K`
    /// substantially on wide DAGs.
    Parallel,
}

/// Options controlling the encoding.
///
/// Equality matters for clause sharing: two encodings of the same DAG
/// built with equal options create variables in an identical deterministic
/// order, which is what makes exchanging learnt clauses between portfolio
/// workers sound (see [`revpebble_sat::pool`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodingOptions {
    /// Pebble budget `P`; `None` leaves the pebble count unconstrained.
    pub max_pebbles: Option<usize>,
    /// Move semantics.
    pub move_mode: MoveMode,
    /// Cardinality encoding for the per-step pebble bound.
    pub card_encoding: CardEncoding,
    /// When `true`, the pebble budget bounds the total *weight* of pebbled
    /// nodes ([`revpebble_graph::Node::weight`]) instead of their count.
    pub weighted: bool,
    /// Whether the budget is baked into clauses or activated per query by
    /// assumption (see [`BoundMode`]).
    pub bound_mode: BoundMode,
}

/// An incrementally extensible SAT encoding of one pebbling instance.
#[derive(Debug)]
pub struct PebbleEncoding<'a> {
    dag: &'a Dag,
    options: EncodingOptions,
    solver: Solver,
    /// `vars[i][v]` = `p_{v,i}`.
    vars: Vec<Vec<Var>>,
    weights: Vec<u32>,
    /// [`BoundMode::Assumed`]: one persistent unary counter per time point
    /// `i ≥ 1` (`counters[0]` stays `None`; time 0 is all-unpebbled).
    /// The budget the counters currently enforce is `options.max_pebbles`
    /// — the single source of truth [`set_bound`](Self::set_bound) writes.
    counters: Vec<Option<IncrementalTotalizer>>,
    /// The budget assumptions passed to the last [`solve_at`](Self::solve_at)
    /// call, kept so an UNSAT answer's core can be classified as
    /// budget-dependent or budget-free.
    last_budget_assumptions: Vec<Lit>,
    /// Ambient cancellation (session/race scope). Each
    /// [`solve_at`](Self::solve_at) query installs a *child* of this token
    /// carrying the per-query deadline, so caller cancellation and query
    /// timeouts travel on one carrier.
    cancel: Option<CancelToken>,
}

impl<'a> PebbleEncoding<'a> {
    /// Creates the encoding with the initial time point 0 (all unpebbled).
    pub fn new(dag: &'a Dag, options: EncodingOptions) -> Self {
        Self::with_solver_config(dag, options, SolverConfig::default())
    }

    /// [`new`](Self::new) with an explicit CDCL [`SolverConfig`] for the
    /// underlying solver (e.g. a low
    /// [`min_learnts`](SolverConfig::min_learnts) to force frequent
    /// clause-database reductions and arena garbage collections in tests).
    pub fn with_solver_config(
        dag: &'a Dag,
        options: EncodingOptions,
        config: SolverConfig,
    ) -> Self {
        let mut encoding = PebbleEncoding {
            dag,
            options,
            solver: Solver::with_config(config),
            vars: Vec::new(),
            weights: dag.node_ids().map(|n| dag.node(n).weight).collect(),
            counters: Vec::new(),
            last_budget_assumptions: Vec::new(),
            cancel: None,
        };
        encoding.push_time_point();
        // Initial clauses: nothing is pebbled at time 0.
        for v in dag.node_ids() {
            let lit = encoding.lit(0, v);
            encoding.solver.add_clause([!lit]);
        }
        encoding
    }

    /// The literal `p_{v,i}`.
    ///
    /// # Panics
    ///
    /// Panics if time point `i` has not been created yet.
    pub fn lit(&self, i: usize, v: NodeId) -> Lit {
        self.vars[i][v.index()].positive()
    }

    /// Number of encoded steps (`K`): time points − 1.
    pub fn num_steps(&self) -> usize {
        self.vars.len() - 1
    }

    /// Access to the underlying solver (e.g. for statistics).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Drops the stale half of the solver's learnt-clause database (see
    /// [`Solver::forget_stale_learnts`]). The incremental outer search
    /// calls this between budget probes so earlier probes' residue does
    /// not tax every later propagation.
    pub fn forget_stale_learnts(&mut self) {
        self.solver.forget_stale_learnts();
    }

    /// Installs the ambient cooperative [`CancelToken`] (see
    /// [`Solver::set_cancel_token`]); fired by portfolio rivals or a
    /// session caller to cancel this encoding's queries. Per-query
    /// deadlines are attached as children of this token by
    /// [`solve_at`](Self::solve_at).
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        self.solver.set_cancel_token(cancel.clone());
        self.cancel = cancel;
    }

    /// Connects the underlying solver to a portfolio clause-sharing pool
    /// (see [`Solver::attach_clause_pool`]). Sound between encodings of
    /// the *same DAG* with *equal* [`EncodingOptions`]: variable creation
    /// is deterministic, so such encodings agree on the meaning of every
    /// variable no matter how far each has been extended.
    pub fn attach_clause_pool(&mut self, pool: Arc<SharedClausePool>) {
        self.solver.attach_clause_pool(pool);
    }

    /// Whether the last [`solve_at`](Self::solve_at) refutation holds at
    /// *every* pebble budget: the solver's unsat core is non-empty and
    /// names no budget assumption. Because a step-`k` instance extends
    /// conservatively to any `k' > k` and solvability is monotone in the
    /// step count, such a refutation certifies that **no** strategy with
    /// ≤ `k` steps exists regardless of the budget.
    pub fn last_refutation_is_budget_free(&self) -> bool {
        let core = self.solver.unsat_core();
        !core.is_empty()
            && core
                .iter()
                .all(|lit| !self.last_budget_assumptions.contains(lit))
    }

    fn push_time_point(&mut self) {
        let i = self.vars.len();
        let column: Vec<Var> = (0..self.dag.num_nodes())
            .map(|_| self.solver.new_var())
            .collect();
        self.vars.push(column);
        // Cardinality at this time point (time 0 is all-false anyway).
        if i == 0 {
            self.counters.push(None);
            return;
        }
        let items: Vec<(Lit, usize)> = self
            .dag
            .node_ids()
            .map(|v| {
                let weight = if self.options.weighted {
                    self.weights[v.index()] as usize
                } else {
                    1
                };
                (self.lit(i, v), weight)
            })
            .collect();
        match self.options.bound_mode {
            BoundMode::Assumed => {
                // Full unary counter, bound chosen per query by assumption.
                self.counters.push(Some(IncrementalTotalizer::new_weighted(
                    &mut self.solver,
                    &items,
                )));
            }
            BoundMode::Baked => {
                self.counters.push(None);
                let Some(p) = self.options.max_pebbles else {
                    return;
                };
                if self.options.weighted {
                    // A node of weight w contributes w to the unary count;
                    // the weighted totalizer kills a weight-overflowing
                    // node with a unit clause instead of the degenerate
                    // duplicated-literal clauses of the plain encoders.
                    card::weighted_at_most_k(&mut self.solver, &items, p);
                } else {
                    let lits: Vec<Lit> = items.iter().map(|&(lit, _)| lit).collect();
                    card::at_most_k(&mut self.solver, &lits, p, self.options.card_encoding);
                }
            }
        }
    }

    fn push_transition(&mut self) {
        let i = self.vars.len() - 1; // transition i -> i+1
        self.push_time_point();
        for v in self.dag.node_ids() {
            let pv_now = self.lit(i, v);
            let pv_next = self.lit(i + 1, v);
            for w in self.dag.children(v) {
                let pw_now = self.lit(i, w);
                let pw_next = self.lit(i + 1, w);
                // (p_{v,i} ⊕ p_{v,i+1}) → p_{w,i} ∧ p_{w,i+1}
                self.solver.add_clause([!pv_now, pv_next, pw_now]);
                self.solver.add_clause([!pv_now, pv_next, pw_next]);
                self.solver.add_clause([pv_now, !pv_next, pw_now]);
                self.solver.add_clause([pv_now, !pv_next, pw_next]);
            }
        }
        if self.options.move_mode == MoveMode::Sequential {
            // Change indicators: c_v ⟺ p_{v,i} ⊕ p_{v,i+1}; at most one.
            let mut changes = Vec::with_capacity(self.dag.num_nodes());
            for v in self.dag.node_ids() {
                let c = self.solver.new_var().positive();
                let now = self.lit(i, v);
                let next = self.lit(i + 1, v);
                self.solver.add_clause([!now, next, c]);
                self.solver.add_clause([now, !next, c]);
                self.solver.add_clause([!c, now, next]);
                self.solver.add_clause([!c, !now, !next]);
                changes.push(c);
            }
            card::at_most_k(&mut self.solver, &changes, 1, self.options.card_encoding);
        }
    }

    /// Extends the encoding to `k` steps (no-op if already that long).
    pub fn extend_to(&mut self, k: usize) {
        while self.num_steps() < k {
            self.push_transition();
        }
    }

    /// The final-state assumptions at time `k`: outputs pebbled, all other
    /// nodes unpebbled.
    ///
    /// # Panics
    ///
    /// Panics if the encoding has fewer than `k` steps.
    pub fn final_assumptions(&self, k: usize) -> Vec<Lit> {
        self.dag
            .node_ids()
            .map(|v| {
                let lit = self.lit(k, v);
                if self.dag.is_output(v) {
                    lit
                } else {
                    !lit
                }
            })
            .collect()
    }

    /// The budget assumptions activating "≤ `p` pebbles" (weight units in
    /// weighted mode) at every encoded time point: one `!out[p]` literal
    /// per per-time-point counter that can exceed `p`. Empty in
    /// [`BoundMode::Baked`] (the bound is already in the clause database)
    /// and for budgets no configuration can exceed.
    pub fn bound_assumptions(&self, p: usize) -> Vec<Lit> {
        self.counters
            .iter()
            .flatten()
            .filter_map(|counter| counter.at_most_assumption(p))
            .collect()
    }

    /// Switches the budget that [`solve_at`](Self::solve_at) assumes from
    /// now on (`None` removes the bound). Cheap: no clauses are added or
    /// invalidated, and everything the solver learnt under other budgets
    /// is kept.
    ///
    /// # Panics
    ///
    /// Panics in [`BoundMode::Baked`] — a baked budget cannot be changed.
    pub fn set_bound(&mut self, p: Option<usize>) {
        assert_eq!(
            self.options.bound_mode,
            BoundMode::Assumed,
            "a baked pebble bound cannot be re-chosen; encode with BoundMode::Assumed"
        );
        self.options.max_pebbles = p;
    }

    /// The budget [`solve_at`](Self::solve_at) currently enforces.
    pub fn bound(&self) -> Option<usize> {
        self.options.max_pebbles
    }

    /// Asks: does a strategy with (at most) `k` steps exist? Extends the
    /// encoding as needed. `conflict_budget`/`time_budget` bound this
    /// single query.
    pub fn solve_at(
        &mut self,
        k: usize,
        conflict_budget: Option<u64>,
        time_budget: Option<std::time::Duration>,
    ) -> SolveResult {
        self.extend_to(k);
        // Budget assumptions go first: they are the strongest pruners, and
        // assumption-order is decision-order, so the counter outputs are
        // pinned before the final-state literals branch.
        let mut assumptions = Vec::new();
        if self.options.bound_mode == BoundMode::Assumed {
            if let Some(p) = self.options.max_pebbles {
                assumptions = self.bound_assumptions(p);
            }
        }
        self.last_budget_assumptions = assumptions.clone();
        assumptions.extend(self.final_assumptions(k));
        self.solver.set_conflict_budget(conflict_budget);
        // The query's deadline rides a child of the ambient token, so one
        // poll in the search loop observes both the per-query timeout and
        // any session/race cancellation.
        let query = match (&self.cancel, time_budget) {
            (Some(ambient), Some(t)) => {
                Some(ambient.child_with_limits(Some(Instant::now() + t), None))
            }
            (Some(ambient), None) => Some(ambient.clone()),
            (None, Some(t)) => Some(CancelToken::with_limits(Some(Instant::now() + t), None)),
            (None, None) => None,
        };
        self.solver.set_cancel_token(query.clone());
        let result = self.solver.solve_with(&assumptions);
        // The per-query child is invisible to callers, so an explicit
        // `Cancelled` latched on it (an in-solver fault degrading to a
        // spurious cancellation — never the deadline it carries) has to
        // be surfaced on the ambient token, where the probe-level retry
        // can see it. Without this hop the query dies as a silent
        // `Unknown` and the minimize schedule mistakes it for evidence.
        // (When the query ran on the ambient token itself — no time
        // budget — the two reasons coincide and this arm cannot fire.)
        if let (Some(ambient), Some(query)) = (&self.cancel, &query) {
            if ambient.reason().is_none() && query.reason() == Some(CancelReason::Cancelled) {
                ambient.cancel();
            }
        }
        result
    }

    /// Extracts the strategy from the current model (after a successful
    /// [`solve_at`](Self::solve_at) with the same `k`). Idle transitions
    /// are dropped; each remaining transition becomes one step with its
    /// unpebble moves first.
    ///
    /// # Panics
    ///
    /// Panics if no model is available.
    pub fn extract(&self, k: usize) -> Strategy {
        let mut strategy = Strategy::default();
        for i in 0..k {
            let mut unpebbles = Vec::new();
            let mut pebbles = Vec::new();
            for v in self.dag.node_ids() {
                let now = self
                    .solver
                    .model_value(self.lit(i, v))
                    .expect("model available");
                let next = self
                    .solver
                    .model_value(self.lit(i + 1, v))
                    .expect("model available");
                match (now, next) {
                    (false, true) => pebbles.push(Move::Pebble(v)),
                    (true, false) => unpebbles.push(Move::Unpebble(v)),
                    _ => {}
                }
            }
            if unpebbles.is_empty() && pebbles.is_empty() {
                continue; // idle transition
            }
            let mut step = unpebbles;
            step.extend(pebbles);
            strategy.push_step(step);
        }
        strategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::paper_example;

    #[test]
    fn paper_example_sequential_10_steps_6_pebbles() {
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(6),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        assert_eq!(enc.solve_at(10, None, None), SolveResult::Sat);
        let strategy = enc.extract(10);
        strategy.validate(&dag, Some(6)).expect("valid");
        assert!(strategy.num_steps() <= 10);
    }

    #[test]
    fn paper_example_sequential_9_steps_unsat() {
        // 2n − |O| = 10 moves are necessary; 9 steps cannot suffice.
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: None,
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        assert_eq!(enc.solve_at(9, None, None), SolveResult::Unsat);
        // Incremental extension to 10 then succeeds on the same encoding.
        assert_eq!(enc.solve_at(10, None, None), SolveResult::Sat);
    }

    #[test]
    fn paper_example_4_pebbles_needs_12_steps() {
        // With 4 pebbles the true step optimum is 12 — two fewer than the
        // paper's illustrative Fig. 4 strategy, e.g.
        // +A +C -A +B +D +E -D -B +A -C +F -A. 10 and 11 steps are
        // impossible: 10 admits no recomputation and 11 has wrong parity.
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(4),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        for k in 10..12 {
            assert_eq!(enc.solve_at(k, None, None), SolveResult::Unsat, "k={k}");
        }
        assert_eq!(enc.solve_at(12, None, None), SolveResult::Sat);
        let strategy = enc.extract(12);
        strategy.validate(&dag, Some(4)).expect("valid");
        assert_eq!(strategy.num_steps(), 12);
        assert_eq!(strategy.max_pebbles(&dag), 4);
    }

    #[test]
    fn paper_example_3_pebbles_insufficient_even_with_many_steps() {
        // E needs C and D pebbled simultaneously, plus E itself = 3, but F
        // must also end pebbled ⇒ with 3 pebbles the final config {E,F}
        // leaves one pebble for C and D — impossible.
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(3),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        for k in [10, 20, 30] {
            assert_eq!(enc.solve_at(k, None, None), SolveResult::Unsat, "k={k}");
        }
    }

    #[test]
    fn parallel_mode_needs_fewer_steps() {
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(6),
                move_mode: MoveMode::Parallel,
                ..EncodingOptions::default()
            },
        );
        // Levels are 1,1,2,2,3,2: compute in 3 parallel steps, then clean
        // up C, D (step 4) and A, B (step 5).
        let result = enc.solve_at(5, None, None);
        assert_eq!(result, SolveResult::Sat);
        let strategy = enc.extract(5);
        strategy
            .validate(&dag, Some(6))
            .expect("valid parallel strategy");
        assert!(strategy.num_steps() <= 5);
        assert!(strategy.num_moves() >= 10);
    }

    #[test]
    fn weighted_bound_uses_node_weights() {
        use revpebble_graph::{Dag, Op};
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        // Weight budget 4 < 3 + 2: impossible (b needs a pebbled while
        // being pebbled).
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(4),
                weighted: true,
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        assert_eq!(enc.solve_at(8, None, None), SolveResult::Unsat);
        // Weight budget 5 works: pebble a, pebble b, unpebble a.
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(5),
                weighted: true,
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        assert_eq!(enc.solve_at(3, None, None), SolveResult::Sat);
        let strategy = enc.extract(3);
        strategy.validate_weighted(&dag, Some(5)).expect("valid");
    }

    #[test]
    fn assumed_bound_matches_baked_bound() {
        // Same K, every budget: the assumption-activated bound must accept
        // and refute exactly what the baked encoding does.
        let dag = paper_example();
        let mut assumed = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: None,
                move_mode: MoveMode::Sequential,
                bound_mode: BoundMode::Assumed,
                ..EncodingOptions::default()
            },
        );
        for p in 3..=6 {
            assumed.set_bound(Some(p));
            for k in [10, 12] {
                let mut baked = PebbleEncoding::new(
                    &dag,
                    EncodingOptions {
                        max_pebbles: Some(p),
                        move_mode: MoveMode::Sequential,
                        ..EncodingOptions::default()
                    },
                );
                assert_eq!(
                    assumed.solve_at(k, None, None),
                    baked.solve_at(k, None, None),
                    "p={p} k={k}"
                );
            }
        }
        // The single assumed instance answered every (p, k) probe.
        assert_eq!(assumed.solver().stats().solves, 8);
    }

    #[test]
    fn assumed_bound_extracts_valid_strategies_after_budget_switches() {
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(6),
                move_mode: MoveMode::Sequential,
                bound_mode: BoundMode::Assumed,
                ..EncodingOptions::default()
            },
        );
        assert_eq!(enc.solve_at(10, None, None), SolveResult::Sat);
        enc.extract(10).validate(&dag, Some(6)).expect("valid at 6");
        // Tighten to 4 on the same instance: 10 and 11 steps refuted, 12
        // solved, and the extracted strategy honours the *new* bound.
        enc.set_bound(Some(4));
        assert_eq!(enc.solve_at(10, None, None), SolveResult::Unsat);
        assert_eq!(enc.solve_at(12, None, None), SolveResult::Sat);
        let strategy = enc.extract(12);
        strategy.validate(&dag, Some(4)).expect("valid at 4");
        assert_eq!(strategy.max_pebbles(&dag), 4);
        // Loosen again: the learnt clauses conditioned on the tight bound
        // must not leak into the looser query.
        enc.set_bound(Some(6));
        assert_eq!(enc.solve_at(10, None, None), SolveResult::Sat);
    }

    #[test]
    fn weighted_baked_bound_is_exact_under_every_card_encoding() {
        // Regression for the duplicated-literal expansion: a weight-3 node
        // under budget 2 must be force-killed (unit), not left satisfiable
        // by a degenerate (!x ∨ !x) pairwise clause — and the weighted
        // semantics must not depend on the configured CardEncoding.
        use revpebble_graph::{Dag, Op};
        for card in [
            CardEncoding::Pairwise,
            CardEncoding::SequentialCounter,
            CardEncoding::Totalizer,
        ] {
            let mut dag = Dag::new();
            let x = dag.add_input("x");
            let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
            let b = dag
                .add_node_weighted("b", Op::Buf, [a.into()], 2)
                .expect("valid");
            dag.mark_output(b);
            // Budget 2 < weight(a): a can never be pebbled, so b cannot be
            // computed — UNSAT at any depth.
            let mut enc = PebbleEncoding::new(
                &dag,
                EncodingOptions {
                    max_pebbles: Some(2),
                    weighted: true,
                    move_mode: MoveMode::Sequential,
                    card_encoding: card,
                    ..EncodingOptions::default()
                },
            );
            assert_eq!(enc.solve_at(8, None, None), SolveResult::Unsat, "{card:?}");
            // Budget 5 = w(a) + w(b) is exactly enough.
            let mut enc = PebbleEncoding::new(
                &dag,
                EncodingOptions {
                    max_pebbles: Some(5),
                    weighted: true,
                    move_mode: MoveMode::Sequential,
                    card_encoding: card,
                    ..EncodingOptions::default()
                },
            );
            assert_eq!(enc.solve_at(3, None, None), SolveResult::Sat, "{card:?}");
            let strategy = enc.extract(3);
            strategy.validate_weighted(&dag, Some(5)).expect("valid");
        }
    }

    #[test]
    fn weighted_assumed_bound_probes_weight_budgets() {
        use revpebble_graph::{Dag, Op};
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: None,
                weighted: true,
                move_mode: MoveMode::Sequential,
                bound_mode: BoundMode::Assumed,
                ..EncodingOptions::default()
            },
        );
        // One instance, three weight budgets.
        enc.set_bound(Some(4));
        assert_eq!(enc.solve_at(8, None, None), SolveResult::Unsat);
        enc.set_bound(Some(5));
        assert_eq!(enc.solve_at(8, None, None), SolveResult::Sat);
        enc.extract(8)
            .validate_weighted(&dag, Some(5))
            .expect("valid");
        enc.set_bound(Some(6));
        assert_eq!(enc.solve_at(3, None, None), SolveResult::Sat);
    }

    #[test]
    fn extraction_compresses_idle_steps() {
        let dag = paper_example();
        let mut enc = PebbleEncoding::new(
            &dag,
            EncodingOptions {
                max_pebbles: Some(6),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
        );
        // 12 steps allowed, only 10 needed: extraction must not contain
        // empty steps.
        assert_eq!(enc.solve_at(12, None, None), SolveResult::Sat);
        let strategy = enc.extract(12);
        assert!(strategy.steps().iter().all(|s| !s.is_empty()));
        strategy.validate(&dag, Some(6)).expect("valid");
    }
}
