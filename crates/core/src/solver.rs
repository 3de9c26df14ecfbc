//! The outer search loops of the paper.
//!
//! *Problem 1* (Section III): given a DAG and a pebble budget `P`, find a
//! valid strategy with the minimum number of steps — solved by iterative
//! deepening over `K` ([`PebbleSolver::solve`], the paper's loop "increase
//! the number of steps to K+1 until a satisfying solution is found").
//!
//! *Table I methodology*: find the smallest `P` for which a solution is
//! found within a time budget — the minimize engine behind
//! [`PebblingSession::minimize`](crate::session::PebblingSession::minimize).
//! Problem 1 runs on the same engine: a fixed budget `p` is the one-point
//! window `[p, p]`, and each probe's [`ProbeVerdict`] says how it ended.

use std::sync::Arc;
use std::time::{Duration, Instant};

use revpebble_graph::Dag;
use revpebble_sat::faults::{FaultPlan, FaultSite};
use revpebble_sat::{CancelToken, SharedClausePool, SolveResult, SolverConfig, SolverStats};

use crate::bounds::{budget_window, parallel_step_lower_bound, step_lower_bound};
use crate::encoding::{BoundMode, EncodingOptions, MoveMode, PebbleEncoding};
use crate::session::{ProbeEvent, ProbeEventSender};
use crate::sharing::SharedSearchState;
use crate::strategy::Strategy;

/// How the deepening over `K` is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepSchedule {
    /// Increase `K` by `step_stride` after every refutation — the paper's
    /// loop. The first satisfiable `K` is minimal (for stride 1), but
    /// every intermediate UNSAT proof near the boundary must be paid for.
    #[default]
    Linear,
    /// Double `K` after every failed probe (each probe individually
    /// budgeted), then binary-refine between the last failure and the
    /// first success. Much faster on hard instances because satisfiable
    /// queries with slack are cheap; the result is step-minimal only up
    /// to probe budgets.
    ExponentialRefine,
}

/// Options for [`PebbleSolver`].
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// The encoding options (pebble budget, move semantics, …).
    pub encoding: EncodingOptions,
    /// Abort once `K` exceeds this many steps.
    pub max_steps: usize,
    /// Additive step increment between deepening rounds (the paper uses
    /// `K + 1`; larger strides trade `K`-optimality for speed).
    pub step_stride: usize,
    /// Deepening schedule (see [`StepSchedule`]).
    pub schedule: StepSchedule,
    /// Wall-clock budget for the whole search (`None` = unlimited).
    /// [`StepSchedule::Linear`] lets each SAT query run until it expires;
    /// [`StepSchedule::ExponentialRefine`] budgets each query at a
    /// sixteenth of it.
    pub timeout: Option<Duration>,
    /// Conflict budget per SAT query (`None` = unlimited).
    pub query_conflicts: Option<u64>,
    /// Initial `K`; defaults to the appropriate lower bound when `None`.
    pub initial_steps: Option<usize>,
    /// Configuration of the underlying CDCL solver. The default is right
    /// for production; tests lower
    /// [`min_learnts`](SolverConfig::min_learnts) to force frequent
    /// clause-database reductions and arena garbage collections.
    pub sat: SolverConfig,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            encoding: EncodingOptions::default(),
            max_steps: 10_000,
            step_stride: 1,
            schedule: StepSchedule::Linear,
            timeout: None,
            query_conflicts: None,
            initial_steps: None,
            sat: SolverConfig::default(),
        }
    }
}

/// The outcome of a pebbling search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PebbleOutcome {
    /// A valid strategy was found (for the first satisfiable `K` reached).
    Solved(Strategy),
    /// The instance is infeasible for structural reasons (pebble budget
    /// below the lower bound) — no number of steps can help.
    Infeasible {
        /// The structural pebble lower bound that was violated.
        lower_bound: usize,
    },
    /// Every `K ≤ max_steps` was refuted; larger `K` might still work.
    StepLimit {
        /// Largest `K` refuted.
        steps_checked: usize,
    },
    /// The time or conflict budget ran out.
    Timeout {
        /// The `K` being attempted when the budget expired.
        steps_reached: usize,
    },
}

impl PebbleOutcome {
    /// The strategy, if one was found.
    pub fn strategy(&self) -> Option<&Strategy> {
        match self {
            PebbleOutcome::Solved(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the outcome and returns the strategy, if any.
    pub fn into_strategy(self) -> Option<Strategy> {
        match self {
            PebbleOutcome::Solved(s) => Some(s),
            _ => None,
        }
    }
}

/// How one budget probe ended: its [`PebbleOutcome`] without the
/// strategy. Variants are ordered from least to most definite, so the
/// most definite of several verdicts is their maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProbeVerdict {
    /// The time or conflict budget ran out, or the probe was cancelled.
    Timeout {
        /// The `K` being attempted when the probe stopped.
        steps_reached: usize,
    },
    /// Every `K ≤ max_steps` was refuted.
    StepLimit {
        /// Largest `K` refuted.
        steps_checked: usize,
    },
    /// The budget is below the structural lower bound or a certified
    /// floor.
    Infeasible {
        /// The bound the budget violated.
        lower_bound: usize,
    },
    /// A valid strategy was found.
    Solved,
}

impl From<&PebbleOutcome> for ProbeVerdict {
    fn from(outcome: &PebbleOutcome) -> Self {
        match *outcome {
            PebbleOutcome::Solved(_) => ProbeVerdict::Solved,
            PebbleOutcome::Infeasible { lower_bound } => ProbeVerdict::Infeasible { lower_bound },
            PebbleOutcome::StepLimit { steps_checked } => ProbeVerdict::StepLimit { steps_checked },
            PebbleOutcome::Timeout { steps_reached } => ProbeVerdict::Timeout { steps_reached },
        }
    }
}

/// Statistics about one pebbling search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of SAT queries issued.
    pub queries: usize,
    /// Largest `K` encoded.
    pub max_k: usize,
}

/// Iterative-deepening solver for one pebbling instance.
#[derive(Debug)]
pub struct PebbleSolver<'a> {
    dag: &'a Dag,
    options: SolverOptions,
    stats: SearchStats,
    sat_stats: SolverStats,
    cancel: Option<CancelToken>,
    /// In [`BoundMode::Assumed`] the encoding survives between [`solve`]
    /// calls, so [`resolve_with_budget`] re-enters with every learnt
    /// clause, variable activity and saved phase intact.
    ///
    /// [`solve`]: Self::solve
    /// [`resolve_with_budget`]: Self::resolve_with_budget
    encoding: Option<PebbleEncoding<'a>>,
    /// Certified refutations and the budget floor. Solvability is monotone
    /// in both axes — more steps and more pebbles only help — so a probe
    /// at budget `p` restarts its deepening *above* any `k` refuted under
    /// an equal-or-looser budget. Privately owned by default; a minimize
    /// portfolio installs one blackboard on every worker
    /// ([`set_shared_state`](Self::set_shared_state)) so each prunes with
    /// everything any rival has proven.
    shared: Arc<SharedSearchState>,
    /// Clause-sharing pool, attached to the encoding's solver when the
    /// encoding is (re)built.
    pool: Option<Arc<SharedClausePool>>,
}

impl<'a> PebbleSolver<'a> {
    /// Creates a solver for `dag`.
    ///
    /// # Panics
    ///
    /// Panics if the DAG fails [`Dag::validate_for_pebbling`] (a non-output
    /// sink makes the game unwinnable) or has no nodes.
    pub fn new(dag: &'a Dag, options: SolverOptions) -> Self {
        assert!(dag.num_nodes() > 0, "cannot pebble an empty DAG");
        dag.validate_for_pebbling()
            .expect("every sink must be an output");
        PebbleSolver {
            dag,
            options,
            stats: SearchStats::default(),
            sat_stats: SolverStats::default(),
            cancel: None,
            encoding: None,
            shared: Arc::new(SharedSearchState::new()),
            pool: None,
        }
    }

    /// Search statistics accumulated so far — cumulative over *every*
    /// [`solve`](Self::solve)/[`resolve_with_budget`](Self::resolve_with_budget)
    /// call on this instance, never reset.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Statistics of the underlying SAT solver, as of the last query.
    pub fn sat_stats(&self) -> SolverStats {
        self.sat_stats
    }

    /// Installs a cooperative [`CancelToken`], checked between and inside
    /// SAT queries. When it fires — a caller cancels the session, the
    /// portfolio's first winner stops its rivals, or an ancestor's
    /// deadline or conflict quota runs out — the search unwinds with
    /// [`PebbleOutcome::Timeout`] promptly.
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        if let Some(encoding) = self.encoding.as_mut() {
            encoding.set_cancel_token(cancel.clone());
        }
        self.cancel = cancel;
    }

    /// Replaces the solver's private refutation blackboard with a shared
    /// one, so certified facts flow between portfolio workers. Install
    /// before the first [`solve`](Self::solve) call. All solvers sharing a
    /// blackboard must agree on the DAG, the move mode, the weighted flag
    /// and `max_steps` (the portfolio wiring enforces this).
    pub(crate) fn set_shared_state(&mut self, shared: Arc<SharedSearchState>) {
        self.shared = shared;
    }

    /// The refutation blackboard this solver records into.
    pub(crate) fn shared_state(&self) -> &Arc<SharedSearchState> {
        &self.shared
    }

    /// Connects this solver's (current and future) encoding to a portfolio
    /// clause-sharing pool. Sound between workers encoding the same DAG
    /// with equal [`EncodingOptions`] (see
    /// [`PebbleEncoding::attach_clause_pool`]).
    pub(crate) fn set_clause_pool(&mut self, pool: Option<Arc<SharedClausePool>>) {
        if let (Some(encoding), Some(pool)) = (self.encoding.as_mut(), pool.clone()) {
            encoding.attach_clause_pool(pool);
        }
        self.pool = pool;
    }

    fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|token| token.poll().is_some())
    }

    /// Whether a rival's certified floor has ruled out this solver's
    /// current budget mid-search.
    fn budget_ruled_out(&self) -> bool {
        self.options
            .encoding
            .max_pebbles
            .is_some_and(|p| p < self.shared.floor())
    }

    /// The structural pebble lower bound in the units the options use:
    /// weight units in weighted mode, node counts otherwise.
    fn budget_lower_bound(&self) -> usize {
        budget_window(self.dag, self.options.encoding.weighted).0
    }

    /// Runs the search (see the [module docs](self) and [`StepSchedule`]).
    ///
    /// With [`BoundMode::Assumed`] encoding options the instance is
    /// incremental: the encoding and solver persist, and later
    /// [`resolve_with_budget`](Self::resolve_with_budget) calls reuse them.
    pub fn solve(&mut self) -> PebbleOutcome {
        // The structural bound and the certified floor (raised by this
        // solver's own exhausted probes, or a portfolio rival's) both rule
        // budgets out before a single query is issued.
        let lower_bound = self.budget_lower_bound().max(self.shared.floor());
        if let Some(p) = self.options.encoding.max_pebbles {
            if p < lower_bound {
                return PebbleOutcome::Infeasible { lower_bound };
            }
        }
        let start = Instant::now();
        let step_floor = match self.options.encoding.move_mode {
            MoveMode::Sequential => step_lower_bound(self.dag),
            MoveMode::Parallel => parallel_step_lower_bound(self.dag),
        };
        let mut k0 = self.options.initial_steps.unwrap_or(step_floor).max(1);
        if let Some(k) = self.known_refuted_k() {
            // Every k' ≤ k is already refuted for this (or a looser)
            // budget on this instance; resume the deepening above it.
            if k >= self.options.max_steps {
                if let Some(p) = self.options.encoding.max_pebbles {
                    self.shared.raise_floor(p + 1);
                }
                return PebbleOutcome::StepLimit {
                    steps_checked: self.options.max_steps,
                };
            }
            k0 = k0.max(k + 1);
        }
        let mut encoding = match self.encoding.take() {
            Some(mut encoding) => {
                // Re-entering the persistent instance: only the assumed
                // budget changes, all learnt state carries over — minus
                // the stale tail. Earlier probes' low-value learnt
                // clauses would otherwise pile up query over query and
                // tax every propagation of this one (the incremental
                // b3_m4 bench paid 4.6× the fresh baseline's conflicts
                // before this forgetting pass existed).
                encoding.forget_stale_learnts();
                encoding.set_bound(self.options.encoding.max_pebbles);
                encoding
            }
            None => {
                let mut encoding = PebbleEncoding::with_solver_config(
                    self.dag,
                    self.options.encoding,
                    self.options.sat,
                );
                encoding.set_cancel_token(self.cancel.clone());
                if let Some(pool) = self.pool.clone() {
                    encoding.attach_clause_pool(pool);
                }
                encoding
            }
        };
        let outcome = match self.options.schedule {
            StepSchedule::Linear => self.solve_linear(&mut encoding, k0, start),
            StepSchedule::ExponentialRefine => self.solve_exponential(&mut encoding, k0, start),
        };
        if self.options.encoding.bound_mode == BoundMode::Assumed {
            self.encoding = Some(encoding);
        }
        // A probe that refuted the entire step range certifies a budget
        // floor: no strategy with ≤ max_steps steps fits this budget, so
        // the minimize schedules (of every worker sharing this state) skip
        // everything below it.
        if let (PebbleOutcome::StepLimit { .. }, Some(p)) =
            (&outcome, self.options.encoding.max_pebbles)
        {
            if self
                .shared
                .known_refuted_k(p)
                .is_some_and(|k| k >= self.options.max_steps)
            {
                self.shared.raise_floor(p + 1);
            }
        }
        outcome
    }

    /// Re-runs the search with pebble budget `p` on the *same* encoding
    /// and solver instance: the budget is assumption-activated
    /// ([`BoundMode::Assumed`]), so probes at different budgets share the
    /// transition relation, all learnt clauses, VSIDS activities and saved
    /// phases. This is the per-probe engine of the incremental minimize
    /// search; statistics accumulate across calls.
    ///
    /// The first call switches the options to [`BoundMode::Assumed`]
    /// (subsequent [`solve`](Self::solve) calls stay incremental too).
    pub fn resolve_with_budget(&mut self, p: usize) -> PebbleOutcome {
        self.options.encoding.bound_mode = BoundMode::Assumed;
        self.options.encoding.max_pebbles = Some(p);
        self.solve()
    }

    /// Remaining wall-clock for one query; `None` = unlimited, `Err` when
    /// the total budget is exhausted.
    fn query_budget(
        &self,
        start: Instant,
        per_query: Option<Duration>,
    ) -> Result<Option<Duration>, ()> {
        let remaining = match self.options.timeout {
            Some(total) => {
                let elapsed = start.elapsed();
                if elapsed >= total {
                    return Err(());
                }
                Some(total - elapsed)
            }
            None => None,
        };
        Ok(match (remaining, per_query) {
            (Some(r), Some(q)) => Some(r.min(q)),
            (Some(r), None) => Some(r),
            (None, q) => q,
        })
    }

    fn query(
        &mut self,
        encoding: &mut PebbleEncoding<'_>,
        k: usize,
        budget: Option<Duration>,
    ) -> SolveResult {
        self.stats.queries += 1;
        let result = encoding.solve_at(k, self.options.query_conflicts, budget);
        self.stats.max_k = self.stats.max_k.max(k);
        self.sat_stats = encoding.solver().stats();
        if result == SolveResult::Unsat {
            let p = self.options.encoding.max_pebbles.unwrap_or(usize::MAX);
            self.shared.record_refuted(p, k);
            // When the budget is assumption-activated and the unsat core
            // names no budget assumption, the refutation holds at *every*
            // budget: record it universally so no worker at any budget
            // re-proves `k' ≤ k` again. (In `Baked` mode the budget lives
            // in clauses, so core inspection proves nothing.)
            if self.options.encoding.bound_mode == BoundMode::Assumed
                && self.options.encoding.max_pebbles.is_some()
                && encoding.last_refutation_is_budget_free()
            {
                self.shared.record_universal_refuted(k);
            }
        }
        result
    }

    /// Largest `k` already refuted for the current budget, combining
    /// refutations recorded under equal or larger budgets (possibly by
    /// portfolio rivals, via the shared blackboard).
    fn known_refuted_k(&self) -> Option<usize> {
        let p = self.options.encoding.max_pebbles.unwrap_or(usize::MAX);
        self.shared.known_refuted_k(p)
    }

    fn solve_linear(
        &mut self,
        encoding: &mut PebbleEncoding<'_>,
        k0: usize,
        start: Instant,
    ) -> PebbleOutcome {
        let mut k = k0;
        loop {
            if k > self.options.max_steps {
                return PebbleOutcome::StepLimit {
                    steps_checked: self.options.max_steps,
                };
            }
            if self.cancel_requested() {
                return PebbleOutcome::Timeout { steps_reached: k };
            }
            if self.budget_ruled_out() {
                // A rival certified our whole budget away mid-probe.
                return PebbleOutcome::Infeasible {
                    lower_bound: self.shared.floor(),
                };
            }
            let Ok(budget) = self.query_budget(start, None) else {
                return PebbleOutcome::Timeout { steps_reached: k };
            };
            match self.query(encoding, k, budget) {
                SolveResult::Sat => return PebbleOutcome::Solved(encoding.extract(k)),
                SolveResult::Unsat => k += self.options.step_stride.max(1),
                SolveResult::Unknown => return PebbleOutcome::Timeout { steps_reached: k },
            }
        }
    }

    fn solve_exponential(
        &mut self,
        encoding: &mut PebbleEncoding<'_>,
        k0: usize,
        start: Instant,
    ) -> PebbleOutcome {
        let mut per_query = self
            .options
            .timeout
            .map(|t| Duration::from_nanos((t.as_nanos() / 16).max(1) as u64));
        // Growth phase: double K after a refutation; after an inconclusive
        // probe (budget ran out) retry the same K with a doubled budget —
        // overshooting K makes the formula bigger, not easier.
        let mut k = k0;
        let mut last_failed = k0.saturating_sub(1);
        let (mut sat_k, mut best) = loop {
            if k > self.options.max_steps {
                k = self.options.max_steps;
            }
            if self.cancel_requested() {
                return PebbleOutcome::Timeout { steps_reached: k };
            }
            if self.budget_ruled_out() {
                return PebbleOutcome::Infeasible {
                    lower_bound: self.shared.floor(),
                };
            }
            let Ok(budget) = self.query_budget(start, per_query) else {
                return PebbleOutcome::Timeout { steps_reached: k };
            };
            match self.query(encoding, k, budget) {
                SolveResult::Sat => break (k, encoding.extract(k)),
                SolveResult::Unsat => {
                    last_failed = last_failed.max(k);
                    if k == self.options.max_steps {
                        return PebbleOutcome::StepLimit {
                            steps_checked: self.options.max_steps,
                        };
                    }
                    k = (k * 2).min(self.options.max_steps);
                }
                SolveResult::Unknown => {
                    // Inconclusive probes cluster near the SAT/UNSAT
                    // boundary. A throwaway encoding jumps past it
                    // (satisfiable queries with slack are cheap); a
                    // persistent assumption-bounded instance instead
                    // retries the same K with a doubled time budget —
                    // overshooting would permanently bloat the encoding
                    // that every later budget probe pays propagation
                    // over. When there is no time budget to grow (pure
                    // conflict-budget callers), retrying the same K could
                    // spin forever, so K must advance regardless — and
                    // once it cannot, the budget outcome is final.
                    // Saturating: when a conflict quota, not the clock,
                    // ends each query, the doubling outruns `Duration`
                    // long before the probe's own clock ends the retries.
                    per_query = per_query.map(|q| q.saturating_mul(2));
                    if self.options.encoding.bound_mode == BoundMode::Baked || per_query.is_none() {
                        if k == self.options.max_steps && per_query.is_none() {
                            return PebbleOutcome::Timeout { steps_reached: k };
                        }
                        k = (k * 2).min(self.options.max_steps);
                    }
                }
            }
        };
        // Refinement phase: binary search between the last failure and the
        // success, keeping the best strategy found.
        let mut lo = last_failed;
        while lo + 1 < sat_k {
            let mid = lo + (sat_k - lo) / 2;
            if self.cancel_requested() {
                // Cancelled mid-refinement: the growth-phase strategy is
                // already valid, just not step-minimal.
                return PebbleOutcome::Solved(best);
            }
            let Ok(budget) = self.query_budget(start, per_query) else {
                return PebbleOutcome::Solved(best);
            };
            match self.query(encoding, mid, budget) {
                SolveResult::Sat => {
                    sat_k = mid;
                    best = encoding.extract(mid);
                }
                _ => lo = mid,
            }
        }
        PebbleOutcome::Solved(best)
    }
}

/// How a minimize search walks the budget axis. Minimize-portfolio
/// workers race different schedules on the same instance (see
/// [`default_minimize_portfolio`](crate::portfolio::default_minimize_portfolio)).
///
/// Under either schedule, an unweighted search whose floor proven
/// without SAT is exact (the price of the whole DAG, on a design of at
/// most 18 nodes; see [`subdag_lower_bound`](crate::bounds::subdag_lower_bound))
/// probes that floor first. A model there certifies the minimum and ends
/// the walk; a failed floor probe is a failed probe like any other, and
/// the schedule goes on above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSchedule {
    /// Binary search over `[lower bound, full budget]` — the paper's
    /// Table I methodology. The default. Its first probe is the exact
    /// floor when there is one, else the middle of the window above the
    /// floor.
    #[default]
    Binary,
    /// Descending linear search: probe `top − stride`, `top − 2·stride`, …
    /// while probes keep succeeding, then refine the last gap with
    /// stride 1. At most one probe per stride level fails — on large
    /// instances failed probes are the expensive ones.
    Descending {
        /// Coarse step between probes (clamped to at least 1).
        stride: usize,
    },
}

/// Deterministic retry policy for *transient* failures: an injected
/// transient fault, or a probe whose own child token was cancelled while
/// the session token stayed live (a spurious cancellation). Applied
/// per-probe by the minimize engine (the shared monotonicity blackboard
/// survives, so a retried probe resumes with everything already
/// certified). A probe never re-runs a panic: the panic already unwound
/// the prober.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Base of the deterministic exponential backoff: retry `n`
    /// (1-based) sleeps `backoff_base · 2ⁿ⁻¹` first.
    pub backoff_base: Duration,
}

impl RetryPolicy {
    /// No retries at all (the default).
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::from_millis(0),
        }
    }

    /// Up to `max_attempts` total attempts with a 5 ms backoff base.
    /// `0` is treated as `1`.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base: Duration::from_millis(5),
        }
    }

    /// The deterministic sleep before retry `attempt` (1-based):
    /// `backoff_base · 2^(attempt−1)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff_base * 2u32.saturating_pow(attempt.saturating_sub(1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// The result of a minimize search.
///
/// A minimize race answers one result merged from its workers' results:
/// the fields below say how each merges. The per-worker figures are the
/// session's [`Report::workers`](crate::session::Report::workers) rows.
#[derive(Debug, Clone, Default)]
pub struct MinimizeResult {
    /// The smallest pebble budget for which a strategy was found, with the
    /// strategy itself. *Model-based upper-bound tightening*: when a probe
    /// at budget `p` extracts a strategy that actually touches only
    /// `p' < p` pebbles (weight units in weighted mode), the strategy
    /// certifies `p'` directly, so `best` records `p'` — possibly smaller
    /// than every probed budget — and the search continues below it. A
    /// race's is the smallest budget any worker certified, the first in
    /// configuration order on a tie.
    pub best: Option<(usize, Strategy)>,
    /// Every budget probed, with how its probe ended, in probe order.
    /// (The budgets *probed*; `best` can undercut them — see
    /// [`best`](Self::best).) No budget appears twice in one walk. When
    /// the floor is exact the walk opens with it, so a search whose step
    /// cap admits the minimum's strategy logs exactly one probe,
    /// `(minimum, Solved)`. A race holds each worker's log in turn, in
    /// configuration order.
    pub probes: Vec<(usize, ProbeVerdict)>,
    /// SAT-solver statistics after each probe, aligned with
    /// [`probes`](Self::probes). Incremental searches snapshot the single
    /// shared instance, so every counter is monotone across probes; fresh
    /// searches record each probe's own solver. A race's workers each run
    /// one incremental instance, so the counters are monotone within each
    /// worker's stretch of the log.
    pub probe_stats: Vec<SolverStats>,
    /// Outer-search statistics summed over all probes (a race sums its
    /// workers' queries and keeps the largest `max_k`).
    pub search: SearchStats,
    /// Final SAT-solver statistics: the shared instance's counters
    /// (incremental) or the sum over all per-probe solvers (fresh). An
    /// incremental run is auditable here: `sat.solves == search.queries`
    /// proves one solver answered every query of every probe. A race sums
    /// its workers' counters, so `sat.conflicts` is every conflict the
    /// race paid and `sat.exported_clauses` every clause it published to
    /// its pool.
    pub sat: SolverStats,
    /// The certified budget lower bound at the end of the search: the
    /// floor the run was primed with — the structural bound, or, for an
    /// unweighted search over budgets, the floor proven without SAT
    /// ([`subdag_lower_bound`](crate::bounds::subdag_lower_bound)), which
    /// holds at every step count — raised by every probe that
    /// UNSAT-refuted its whole step range. A raise is certified *relative
    /// to the step cap* (`base.max_steps`) — see [`crate::sharing`]. When
    /// [`best`](Self::best) is `Some((p, _))`, `floor ≤ p` always holds,
    /// and `floor == p` means the minimum is certified optimal (within
    /// the cap), not merely the smallest budget that happened to solve.
    ///
    /// A race's floor is its shared blackboard's, or the largest floor of
    /// the workers whose encoding and step cap equal worker 0's when it
    /// shares nothing. Every session race is of one encoding and step
    /// cap, so `floor ≤ p` holds for it too; only a hand-built list that
    /// mixes them (the crate's own race tests build such lists) could
    /// certify a `best` below this floor, since the floor says nothing
    /// about other encodings or caps.
    pub floor: usize,
    /// Universal step refutations derived from budget-free unsat cores
    /// during this search (shared runs report the blackboard's total; an
    /// isolated race sums the workers that count toward its floor).
    pub step_tightenings: u64,
    /// Times the budget floor was raised by an exhausted probe (summed
    /// like [`step_tightenings`](Self::step_tightenings)).
    pub floor_raises: u64,
    /// Probe attempts re-run under the [`RetryPolicy`] after a transient
    /// failure or spurious cancellation (summed over a race's workers).
    pub retries: u64,
}

/// The answer of a fixed-budget session, derived from its one-point
/// minimize runs: the first strategy any run found (a race passes its
/// winner first) with the budget it certifies, else no budget and the most
/// definite verdict any probe reached. A run whose token fired before its
/// probe started left no verdict; on its own it counts as a timeout at
/// `K = 0`.
pub(crate) fn fixed_outcome<'r>(
    runs: impl IntoIterator<Item = &'r MinimizeResult>,
) -> (Option<usize>, PebbleOutcome) {
    let mut most_definite = ProbeVerdict::Timeout { steps_reached: 0 };
    for run in runs {
        if let Some((p, strategy)) = &run.best {
            return (Some(*p), PebbleOutcome::Solved(strategy.clone()));
        }
        for &(_, verdict) in &run.probes {
            most_definite = most_definite.max(verdict);
        }
    }
    let outcome = match most_definite {
        ProbeVerdict::Timeout { steps_reached } => PebbleOutcome::Timeout { steps_reached },
        ProbeVerdict::StepLimit { steps_checked } => PebbleOutcome::StepLimit { steps_checked },
        ProbeVerdict::Infeasible { lower_bound } => PebbleOutcome::Infeasible { lower_bound },
        ProbeVerdict::Solved => unreachable!("a solved probe always records its strategy"),
    };
    (None, outcome)
}

/// Per-probe engine: either one persistent assumption-bounded instance or
/// a fresh solver per budget. Every budget probe — of a minimize search,
/// a fixed budget or a frontier sweep — runs through one.
enum Prober<'a> {
    Incremental(Box<PebbleSolver<'a>>),
    Fresh(Box<FreshProber<'a>>),
}

/// State of the fresh-solver-per-probe engine (the paper's methodology):
/// only accumulated statistics survive between probes.
struct FreshProber<'a> {
    dag: &'a Dag,
    base: SolverOptions,
    cancel: Option<CancelToken>,
    search: SearchStats,
    sat: SolverStats,
    last: SolverStats,
}

/// Counter-wise sum of two solver runs' statistics.
pub(crate) fn sum_stats(a: SolverStats, b: SolverStats) -> SolverStats {
    SolverStats {
        decisions: a.decisions + b.decisions,
        propagations: a.propagations + b.propagations,
        conflicts: a.conflicts + b.conflicts,
        restarts: a.restarts + b.restarts,
        deleted_clauses: a.deleted_clauses + b.deleted_clauses,
        solves: a.solves + b.solves,
        exported_clauses: a.exported_clauses + b.exported_clauses,
        imported_clauses: a.imported_clauses + b.imported_clauses,
        arena_gcs: a.arena_gcs + b.arena_gcs,
        dropped_clauses: a.dropped_clauses + b.dropped_clauses,
        // The earlier run's stop reason wins: it is the one that ended
        // the combined search.
        stop_reason: a.stop_reason.or(b.stop_reason),
    }
}

impl<'a> Prober<'a> {
    fn new(dag: &'a Dag, ctx: &MinimizeContext) -> Self {
        let mut base = ctx.base;
        base.timeout = ctx.per_query;
        if ctx.incremental {
            base.encoding.bound_mode = BoundMode::Assumed;
            let mut solver = PebbleSolver::new(dag, base);
            solver.set_cancel_token(ctx.cancel.clone());
            if let Some(shared) = ctx.shared.clone() {
                solver.set_shared_state(shared);
            }
            solver.set_clause_pool(ctx.pool.clone());
            Prober::Incremental(Box::new(solver))
        } else {
            // The fresh engine is the paper-faithful baseline: every probe
            // is isolated, so neither the blackboard nor the clause pool
            // is wired in.
            Prober::Fresh(Box::new(FreshProber {
                dag,
                base,
                cancel: ctx.cancel.clone(),
                search: SearchStats::default(),
                sat: SolverStats::default(),
                last: SolverStats::default(),
            }))
        }
    }

    /// Installs the token one probe attempt runs under — a child of the
    /// session token, so a spurious cancellation (injected or external)
    /// kills the attempt, never the session.
    fn set_probe_token(&mut self, token: Option<CancelToken>) {
        match self {
            Prober::Incremental(solver) => solver.set_cancel_token(token),
            Prober::Fresh(fresh) => fresh.cancel = token,
        }
    }

    /// The refutation blackboard driving probe pruning: the incremental
    /// solver's (possibly portfolio-shared) state, or a detached default
    /// for the fresh baseline (whose floor stays where the run primed
    /// it).
    fn shared_state(&self) -> Arc<SharedSearchState> {
        match self {
            Prober::Incremental(solver) => Arc::clone(solver.shared_state()),
            Prober::Fresh(_) => Arc::new(SharedSearchState::new()),
        }
    }

    fn probe(&mut self, p: usize) -> PebbleOutcome {
        match self {
            Prober::Incremental(solver) => solver.resolve_with_budget(p),
            Prober::Fresh(fresh) => {
                let mut options = fresh.base;
                options.encoding.max_pebbles = Some(p);
                let mut solver = PebbleSolver::new(fresh.dag, options);
                solver.set_cancel_token(fresh.cancel.clone());
                let outcome = solver.solve();
                fresh.search.queries += solver.stats().queries;
                fresh.search.max_k = fresh.search.max_k.max(solver.stats().max_k);
                fresh.last = solver.sat_stats();
                fresh.sat = sum_stats(fresh.sat, fresh.last);
                outcome
            }
        }
    }

    /// Statistics snapshot for the probe that just ran.
    fn snapshot(&self) -> SolverStats {
        match self {
            Prober::Incremental(solver) => solver.sat_stats(),
            Prober::Fresh(fresh) => fresh.last,
        }
    }

    fn totals(&self) -> (SearchStats, SolverStats) {
        match self {
            Prober::Incremental(solver) => (solver.stats(), solver.sat_stats()),
            Prober::Fresh(fresh) => (fresh.search, fresh.sat),
        }
    }
}

/// What a strategy certifies, in the units the encoding budgets:
/// weight units in weighted mode, pebble counts otherwise. Every
/// engine's `ProbeSolved { achieved }` (and the certified minimum) comes
/// from this, so the event stream never mixes units.
fn achieved_budget(dag: &Dag, weighted: bool, strategy: &Strategy) -> usize {
    if weighted {
        usize::try_from(strategy.max_weight(dag)).unwrap_or(usize::MAX)
    } else {
        strategy.max_pebbles(dag)
    }
}

/// One walk over the budget axis: the prober, its blackboard, the probe
/// log and the event sink. The minimize schedules, a fixed budget's
/// one-point window and the frontier sweep all probe through
/// [`attempt`](Self::attempt).
pub(crate) struct MinimizeRun<'a> {
    dag: &'a Dag,
    weighted: bool,
    /// The budgets the run may probe, `(low, high)`.
    pub(crate) window: (usize, usize),
    prober: Prober<'a>,
    shared: Arc<SharedSearchState>,
    best: Option<(usize, Strategy)>,
    probes: Vec<(usize, ProbeVerdict)>,
    probe_stats: Vec<SolverStats>,
    cancel: Option<CancelToken>,
    /// Probe-event sink of the owning session.
    events: ProbeEventSender,
    /// Worker index stamped on every emitted event.
    worker: usize,
    /// Emit [`ProbeEvent::ClauseSharingTick`] after each probe (set when
    /// a clause pool is wired in).
    share_ticks: bool,
    /// Last floor observed, so only actual raises emit
    /// [`ProbeEvent::FloorRaised`].
    last_floor: usize,
    /// The floor proven without SAT ([`MinimizeContext::proven_floor`]):
    /// [`attempt`](Self::attempt) answers a budget below it at once.
    proven_floor: usize,
    /// Fail-point plan (from `base.sat.faults`); polls `session.probe`
    /// at the top of every probe attempt.
    faults: FaultPlan,
    /// Per-probe retry policy for transient failures.
    retry: RetryPolicy,
    /// Probe attempts re-run under [`retry`](Self::retry).
    retries: u64,
}

impl<'a> MinimizeRun<'a> {
    /// Sets up a run over `ctx.window` (`None` = the [`budget_window`],
    /// in weight units in weighted mode): builds the prober and primes
    /// its blackboard with the structural bound, or with the floor proven
    /// without SAT when the session computed one.
    pub(crate) fn new(dag: &'a Dag, ctx: MinimizeContext) -> Self {
        let weighted = ctx.base.encoding.weighted;
        let (structural, top) = budget_window(dag, weighted);
        let window = ctx.window.unwrap_or((structural, top));
        let prober = Prober::new(dag, &ctx);
        let shared = prober.shared_state();
        // A window reaching below the structural bound still probes its low
        // end, and the probe itself reports that budget infeasible.
        shared.prime_floor(structural.min(window.0).max(ctx.proven_floor));
        let last_floor = shared.floor();
        MinimizeRun {
            dag,
            weighted,
            window,
            prober,
            shared,
            best: None,
            probes: Vec::new(),
            probe_stats: Vec::new(),
            cancel: ctx.cancel,
            events: ctx.events,
            worker: ctx.worker,
            share_ticks: ctx.pool.is_some(),
            last_floor,
            proven_floor: ctx.proven_floor,
            faults: ctx.base.sat.faults,
            retry: ctx.retry,
            retries: 0,
        }
    }

    /// Probes budget `p`: the one probe body of every engine. Each
    /// attempt polls the `session.probe` fail point under its own child
    /// token, a transient or spurious failure is retried under the
    /// [`RetryPolicy`], and the probe is logged with its verdict and a
    /// statistics snapshot and streamed as events. Returns the strategy
    /// with the budget it *actually certifies* — its own maximum pebble
    /// count (weight in weighted mode), which can undercut `p` — or the
    /// verdict of a probe that found none. A budget below the floor
    /// proven without SAT is answered `Infeasible` without a query.
    pub(crate) fn attempt(&mut self, p: usize) -> Result<(usize, Strategy), ProbeVerdict> {
        let probe = self.probes.len();
        let worker = self.worker;
        self.events.send(ProbeEvent::ProbeStarted {
            worker,
            probe,
            budget: p,
        });
        let mut attempt = 0u32;
        let outcome = loop {
            // Proven infeasible without SAT: no query, nothing to retry.
            if p < self.proven_floor {
                break PebbleOutcome::Infeasible {
                    lower_bound: self.proven_floor,
                };
            }
            attempt += 1;
            // Containment: each attempt runs under its own child of the
            // session token, so a cancellation of the *probe* (injected,
            // or an external caller holding the child) kills one attempt,
            // never the session. The child carries no extra limits; the
            // session's deadline and quota shine through it.
            let probe_token = self.cancel.as_ref().map(|token| token.child());
            self.prober.set_probe_token(probe_token.clone());
            // Fail point `session.probe`: a transient fault means this
            // attempt produces no outcome and is retried under the
            // policy; a spurious cancel latches the probe token above.
            let transient = self
                .faults
                .trip(FaultSite::SessionProbe, probe_token.as_ref());
            let outcome = if transient {
                PebbleOutcome::Timeout { steps_reached: 0 }
            } else {
                self.prober.probe(p)
            };
            // A probe token that fired while the session token stayed
            // live is by construction spurious — nothing above it asked
            // for the stop — so the attempt is retryable.
            let session_live = self.cancel.as_ref().is_none_or(|t| t.reason().is_none());
            let spurious = session_live
                && probe_token
                    .as_ref()
                    .is_some_and(|token| token.reason().is_some());
            if (transient || spurious) && session_live && attempt < self.retry.max_attempts {
                self.retries += 1;
                std::thread::sleep(self.retry.backoff_for(attempt));
                continue;
            }
            break outcome;
        };
        let verdict = ProbeVerdict::from(&outcome);
        // A valid strategy never exceeds its probe budget; the `min`
        // merely keeps a corrupt model from loosening `p`.
        let solved = outcome
            .into_strategy()
            .map(|strategy| {
                let achieved = achieved_budget(self.dag, self.weighted, &strategy).min(p);
                (achieved, strategy)
            })
            .ok_or(verdict);
        self.probes.push((p, verdict));
        self.probe_stats.push(self.prober.snapshot());
        self.events.send(match solved {
            Ok((achieved, _)) => ProbeEvent::ProbeSolved {
                worker,
                probe,
                budget: p,
                achieved,
            },
            Err(verdict) => ProbeEvent::ProbeRefuted {
                worker,
                probe,
                budget: p,
                verdict,
            },
        });
        if self.share_ticks {
            let snapshot = self.prober.snapshot();
            self.events.send(ProbeEvent::ClauseSharingTick {
                worker,
                imported: snapshot.imported_clauses,
                exported: snapshot.exported_clauses,
            });
        }
        let floor = self.shared.floor();
        if floor > self.last_floor {
            self.last_floor = floor;
            self.events.send(ProbeEvent::FloorRaised { worker, floor });
        }
        solved
    }

    /// Probes budget `p` for a minimize schedule, keeping the smallest
    /// certified budget in `best`. On success returns the budget the
    /// strategy actually certifies; the schedules use that to jump their
    /// windows below the model instead of walking budget-by-budget down
    /// to it (model-based upper-bound tightening).
    fn probe(&mut self, p: usize) -> Option<usize> {
        let (achieved, strategy) = self.attempt(p).ok()?;
        if self.best.as_ref().is_none_or(|&(b, _)| achieved < b) {
            self.best = Some((achieved, strategy));
        }
        Some(achieved)
    }

    fn probed(&self, p: usize) -> bool {
        self.probes.iter().any(|&(budget, _)| budget == p)
    }

    /// The certified budget floor, re-read before every schedule step so
    /// raises by this worker's own probes *and* by portfolio rivals prune
    /// the remaining budgets.
    fn floor(&self) -> usize {
        self.shared.floor()
    }

    pub(crate) fn stopped(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|token| token.poll().is_some())
    }

    pub(crate) fn finish(self) -> MinimizeResult {
        let (search, sat) = self.prober.totals();
        MinimizeResult {
            best: self.best,
            probes: self.probes,
            probe_stats: self.probe_stats,
            search,
            sat,
            floor: self.shared.floor(),
            step_tightenings: self.shared.step_tightenings(),
            floor_raises: self.shared.floor_raises(),
            retries: self.retries,
        }
    }
}

/// Options of one minimize run, plus its cross-cutting hooks: the
/// portfolio's cancellation token, clause-sharing pool and refutation
/// blackboard. [`Default`] hooks make a fully isolated run.
#[derive(Clone, Default)]
pub(crate) struct MinimizeContext {
    /// Options every probe shares (move mode, step schedule, `max_steps`,
    /// …); `encoding.max_pebbles` and `timeout` are overridden per probe.
    pub(crate) base: SolverOptions,
    /// Wall-clock budget per probe (`None` = unlimited); a probe that
    /// exhausts it counts as unsolvable at that budget, exactly as in the
    /// paper. A fixed-budget session passes its whole-solve timeout.
    pub(crate) per_query: Option<Duration>,
    /// The budgets the run may probe, `(low, high)`; `None` searches the
    /// [`budget_window`]. A fixed budget `p` is the one-point window
    /// `(p, p)`; a frontier sweep walks the window downward.
    pub(crate) window: Option<(usize, usize)>,
    /// How the budget axis is walked.
    pub(crate) schedule: BudgetSchedule,
    /// `true`: all probes share one assumption-bounded
    /// [`PebbleEncoding`]/solver instance, carrying learnt clauses, VSIDS
    /// activities and saved phases from probe to probe. `false`: the
    /// paper's original fresh-solver-per-probe methodology.
    pub(crate) incremental: bool,
    /// Cooperative cancellation (caller abandonment, the portfolio's
    /// first-winner broadcast, a session deadline or conflict quota):
    /// once the token fires, no further probes start and the current one
    /// unwinds promptly.
    pub(crate) cancel: Option<CancelToken>,
    /// Clause-sharing pool wired into the incremental engine's solver
    /// (ignored by the fresh baseline). All workers on one pool must use
    /// equal [`EncodingOptions`].
    pub(crate) pool: Option<Arc<SharedClausePool>>,
    /// Refutation blackboard shared with rival workers (ignored by the
    /// fresh baseline); a private one is created when absent. All workers
    /// on one blackboard must agree on move mode, weighted flag and
    /// `max_steps`.
    pub(crate) shared: Option<Arc<SharedSearchState>>,
    /// Probe-event sink of the owning
    /// [`PebblingSession`](crate::session::PebblingSession): every probe
    /// emits [`ProbeEvent`]s into it.
    pub(crate) events: ProbeEventSender,
    /// Worker index stamped on this run's events (portfolio executors
    /// number their workers; single runs use 0).
    pub(crate) worker: usize,
    /// A pebble floor proven without SAT
    /// ([`subdag_lower_bound`](crate::bounds::subdag_lower_bound)), which
    /// the session computes once for an unweighted minimize or frontier
    /// search; `0` (the default) proves nothing. Every run primes its
    /// blackboard with it and answers budgets below it without a query.
    pub(crate) proven_floor: usize,
    /// `proven_floor` is the DAG's exact minimum at every step count (the
    /// whole DAG was priced): every minimize schedule probes it first.
    pub(crate) floor_is_exact: bool,
    /// Per-probe [`RetryPolicy`] for transient failures (injected faults
    /// and spurious probe-token cancellations). The default never
    /// retries.
    pub(crate) retry: RetryPolicy,
}

/// The minimize engine under every session executor and every worker of
/// the minimize portfolio: budgets below the blackboard's certified floor
/// are skipped without a query, whether the floor was raised by this
/// worker's own exhausted probes or by a rival's. Successful probes
/// tighten from above symmetrically: the extracted strategy's *actual*
/// pebble count (not the probed budget) becomes the new upper end of the
/// search, so a slack model can collapse several budget steps into one
/// probe ([`MinimizeResult::best`]).
///
/// An exact floor ([`MinimizeContext::floor_is_exact`]) is probed first,
/// under either schedule: a model there is the minimum, certified without
/// refuting any budget, and ends the walk. A floor probe that fails
/// (step-capped or timed out) is a failed probe like any other: the
/// binary walk goes on above it and the descending refinement stops above
/// it, so no budget is probed twice.
pub(crate) fn run_minimize_with_context(dag: &Dag, ctx: MinimizeContext) -> MinimizeResult {
    let schedule = ctx.schedule;
    let exact_floor = ctx.floor_is_exact.then_some(ctx.proven_floor);
    let mut run = MinimizeRun::new(dag, ctx);
    let (lower, top) = run.window;
    let mut failed_at = None;
    if let Some(floor) = exact_floor.map(|floor| floor.max(lower)) {
        // A rival that already refuted the floor leaves it to the schedule.
        if floor <= top && floor >= run.floor() && !run.stopped() {
            if run.probe(floor).is_some() {
                return run.finish();
            }
            failed_at = Some(floor);
        }
    }
    match schedule {
        BudgetSchedule::Binary => {
            let (mut low, mut high) = (failed_at.map_or(lower, |p| p + 1), top);
            while low <= high && !run.stopped() {
                // Budgets below the certified floor cannot work; jump the
                // window past them instead of probing.
                low = low.max(run.floor());
                if low > high {
                    break;
                }
                let mid = low + (high - low) / 2;
                match run.probe(mid) {
                    Some(achieved) => {
                        // The extracted strategy certifies `achieved`
                        // (≤ mid); resume strictly below *it*.
                        if achieved == 0 {
                            break;
                        }
                        high = achieved - 1;
                    }
                    None => low = mid + 1,
                }
            }
        }
        BudgetSchedule::Descending { stride } => {
            let stride = stride.max(1);
            // Coarse descent, down to the first failed budget.
            let mut p = top.saturating_sub(stride).max(lower);
            loop {
                if run.stopped() || p < run.floor() || failed_at.is_some_and(|failed| p <= failed) {
                    break;
                }
                let Some(achieved) = run.probe(p) else {
                    failed_at = Some(p);
                    break;
                };
                if achieved <= lower {
                    break;
                }
                // Descend from the strategy's actual pebble count, which
                // may sit well below the probed budget.
                p = achieved.saturating_sub(stride).max(lower);
            }
            // Nothing certified yet (the very first probe failed): the
            // full budget admits the Bennett strategy, so certify it
            // before giving up instead of reporting `best: None` with a
            // trivially feasible budget on the table.
            if run.best.is_none() && !run.probed(top) && !run.stopped() {
                run.probe(top);
            }
            // Fine refinement below the last success, stopping at the
            // window's low end, the certified floor and above any budget
            // that already failed.
            if let Some(mut current) = run.best.as_ref().map(|&(p, _)| p) {
                let failed_floor = failed_at.map_or(lower, |p| p + 1);
                while current > run.floor().max(failed_floor) && !run.stopped() {
                    let next = current - 1;
                    match run.probe(next) {
                        Some(achieved) => current = achieved.min(next),
                        None => break,
                    }
                }
            }
        }
    }
    run.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::bennett;
    use crate::bounds::pebble_lower_bound;
    use crate::session::{PebblingSession, SessionOutcome};
    use revpebble_graph::generators::{and_tree, chain, paper_example, random_dag};

    // These unit tests drive the engine through the one front door,
    // `PebblingSession` — the helpers below unwrap the session plumbing so
    // the assertions read against the engine's own result types.

    fn solve_with_pebbles(dag: &Dag, max_pebbles: usize) -> PebbleOutcome {
        let report = PebblingSession::new(dag)
            .pebbles(max_pebbles)
            .run()
            .expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Single(outcome) => outcome,
            _ => unreachable!("a fixed-budget session drives the single engine"),
        }
    }

    fn session_minimize(session: PebblingSession<'_>) -> MinimizeResult {
        let report = session.run().expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Minimize(result) => result,
            _ => unreachable!("a single-worker minimize session drives the minimize engine"),
        }
    }

    fn minimize_pebbles(dag: &Dag, base: SolverOptions, per_query: Duration) -> MinimizeResult {
        session_minimize(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .per_query_timeout(per_query),
        )
    }

    fn minimize_pebbles_fresh(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
    ) -> MinimizeResult {
        session_minimize(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .incremental(false)
                .per_query_timeout(per_query),
        )
    }

    fn minimize_pebbles_descending(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
        stride: usize,
    ) -> MinimizeResult {
        session_minimize(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .budget(BudgetSchedule::Descending { stride })
                .per_query_timeout(per_query),
        )
    }

    #[test]
    fn paper_example_minimum_steps_with_6_pebbles() {
        let dag = paper_example();
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(6),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            ..SolverOptions::default()
        };
        let outcome = PebbleSolver::new(&dag, options).solve();
        let strategy = outcome.into_strategy().expect("solved");
        assert_eq!(strategy.num_steps(), 10); // Bennett-optimal
        strategy.validate(&dag, Some(6)).expect("valid");
    }

    #[test]
    fn paper_example_minimum_steps_with_4_pebbles_is_12() {
        // The paper's Fig. 4 shows a 14-step strategy with 4 pebbles; the
        // SAT search proves 12 steps are optimal (see encoding tests).
        let dag = paper_example();
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(4),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            ..SolverOptions::default()
        };
        let outcome = PebbleSolver::new(&dag, options).solve();
        let strategy = outcome.into_strategy().expect("solved");
        assert_eq!(strategy.num_steps(), 12);
        assert_eq!(strategy.max_pebbles(&dag), 4);
    }

    #[test]
    fn infeasible_budget_is_detected_immediately() {
        let dag = paper_example();
        for budget in [1, 2] {
            let outcome = solve_with_pebbles(&dag, budget);
            assert_eq!(outcome, PebbleOutcome::Infeasible { lower_bound: 3 });
        }
    }

    #[test]
    fn step_limit_is_reported() {
        let dag = paper_example();
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(4),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 11, // 12 needed
            ..SolverOptions::default()
        };
        let outcome = PebbleSolver::new(&dag, options).solve();
        assert!(matches!(
            outcome,
            PebbleOutcome::StepLimit { steps_checked: 11 }
        ));
    }

    #[test]
    fn timeout_is_reported() {
        let dag = random_dag(6, 40, 3);
        let options = SolverOptions {
            encoding: EncodingOptions {
                max_pebbles: Some(pebble_lower_bound(&dag)),
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            timeout: Some(Duration::from_millis(1)),
            ..SolverOptions::default()
        };
        let outcome = PebbleSolver::new(&dag, options).solve();
        assert!(matches!(
            outcome,
            PebbleOutcome::Timeout { .. } | PebbleOutcome::Solved(_)
        ));
    }

    #[test]
    fn chain_can_be_pebbled_with_logarithmic_pebbles() {
        // A chain of length 7 can be pebbled with 4 pebbles (Bennett's
        // recursive checkpointing), far below the 7 Bennett uses.
        let dag = chain(7);
        let outcome = solve_with_pebbles(&dag, 4);
        let strategy = outcome.into_strategy().expect("solved");
        strategy.validate(&dag, Some(4)).expect("valid");
        let b = bennett(&dag);
        assert!(strategy.num_moves() >= b.num_moves());
    }

    #[test]
    fn and_tree_fits_paper_fig6_budget() {
        // Fig. 6(c): the 9-input AND tree pebbled within 16 qubits total;
        // 9 inputs + 1 result leave 7 pebbles per qubit counting, but the
        // paper counts the 8th DAG node (the output h) among the 16 qubits:
        // budget = 16 − 9 = 7 pebbles including the output.
        let dag = and_tree(9);
        let outcome = solve_with_pebbles(&dag, 7);
        let strategy = outcome.into_strategy().expect("solved");
        strategy.validate(&dag, Some(7)).expect("valid");
    }

    #[test]
    fn minimize_pebbles_on_paper_example_finds_4() {
        let dag = paper_example();
        let base = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        };
        let result = minimize_pebbles(&dag, base, Duration::from_secs(20));
        let (p, strategy) = result.best.expect("some budget works");
        assert_eq!(p, 4, "4 pebbles suffice, 3 are impossible");
        strategy.validate(&dag, Some(4)).expect("valid");
        assert!(!result.probes.is_empty());
    }

    #[test]
    fn minimize_descending_matches_binary_on_paper_example() {
        // The paper example needs 12 steps at 4 pebbles and 10 at 5. Under
        // an 11-step cap the exact floor (4) sits below the cap-relative
        // minimum (5): probes go 4 (step-capped), 5 — exactly one
        // failure. Under a 60-step cap the floor is the minimum, and its
        // probe is the only one: budget 3 is never probed.
        let dag = paper_example();
        for (max_steps, minimum, failures) in [(11, 5, 1), (60, 4, 0)] {
            let base = SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps,
                ..SolverOptions::default()
            };
            let descending = minimize_pebbles_descending(&dag, base, Duration::from_secs(20), 1);
            let (p, strategy) = descending.best.expect("feasible");
            assert_eq!(p, minimum, "cap {max_steps}");
            strategy.validate(&dag, Some(minimum)).expect("valid");
            let failed = descending
                .probes
                .iter()
                .filter(|&&(_, verdict)| verdict != ProbeVerdict::Solved)
                .count();
            assert_eq!(failed, failures, "cap {max_steps}: {:?}", descending.probes);
            let binary = minimize_pebbles(&dag, base, Duration::from_secs(20));
            assert_eq!(
                binary.best.map(|(p, _)| p),
                Some(minimum),
                "cap {max_steps}"
            );
        }
    }

    #[test]
    fn resolve_with_budget_reuses_one_instance() {
        let dag = paper_example();
        let mut solver = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps: 40,
                ..SolverOptions::default()
            },
        );
        let six = solver.resolve_with_budget(6).into_strategy().expect("6 ok");
        six.validate(&dag, Some(6)).expect("valid");
        let queries_after_six = solver.stats().queries;
        let conflicts_after_six = solver.sat_stats().conflicts;
        let four = solver.resolve_with_budget(4).into_strategy().expect("4 ok");
        four.validate(&dag, Some(4)).expect("valid");
        assert!(matches!(
            solver.resolve_with_budget(3),
            PebbleOutcome::StepLimit { .. }
        ));
        // One instance: outer and SAT statistics accumulate, never reset.
        assert!(solver.stats().queries > queries_after_six);
        assert!(solver.sat_stats().conflicts >= conflicts_after_six);
        assert_eq!(solver.sat_stats().solves, solver.stats().queries as u64);
        // Budgets below the certified floor short-circuit without a query.
        // The budget-3 probe refuted every k ≤ max_steps, so the floor is
        // the *certified* 4 — stronger than the structural bound of 3.
        assert!(matches!(
            solver.resolve_with_budget(2),
            PebbleOutcome::Infeasible { lower_bound: 4 }
        ));
    }

    #[test]
    fn minimize_runs_every_probe_on_one_solver() {
        // Under an 11-step cap the exact floor's probe (4 pebbles need 12
        // steps) ends step-capped and the walk solves 5: two probes on one
        // solver. Under a 60-step cap the floor's probe solves, and is the
        // only one.
        let dag = paper_example();
        for (max_steps, minimum, probes) in [(11, 5, 2), (60, 4, 1)] {
            let base = SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps,
                ..SolverOptions::default()
            };
            let result = minimize_pebbles(&dag, base, Duration::from_secs(20));
            let (p, strategy) = result.best.expect("feasible");
            assert_eq!(p, minimum, "cap {max_steps}");
            strategy.validate(&dag, Some(minimum)).expect("valid");
            assert_eq!(result.probes[0].0, 4, "cap {max_steps}: the floor first");
            assert_eq!(result.probes.len(), probes, "cap {max_steps}");
            // Single-instance audit: one solver answered every query of
            // every probe, and its counters only ever grew.
            assert_eq!(result.sat.solves, result.search.queries as u64);
            for window in result.probe_stats.windows(2) {
                assert!(window[1].conflicts >= window[0].conflicts);
                assert!(window[1].restarts >= window[0].restarts);
                assert!(window[1].solves > window[0].solves);
            }
            // The fresh baseline agrees on the answer.
            let fresh = minimize_pebbles_fresh(&dag, base, Duration::from_secs(20));
            assert_eq!(
                fresh.best.as_ref().map(|&(p, _)| p),
                Some(minimum),
                "cap {max_steps}"
            );
            assert_eq!(fresh.sat.solves, fresh.search.queries as u64);
        }
    }

    #[test]
    fn descending_falls_back_to_the_top_budget() {
        // Under an 11-step cap the exact floor's probe at 4 ends
        // step-capped (4 pebbles need 12 steps). stride 4 then puts the
        // first coarse probe at max(6 − 4, lower 3) = 3, below that floor,
        // so the coarse descent ends before its first probe. The search
        // must certify the trivially feasible full budget instead of
        // returning best: None, then refine back down to the optimum
        // under the cap, 5, stopping above the failed floor probe.
        let dag = paper_example();
        let base = |max_steps| SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps,
            ..SolverOptions::default()
        };
        let result = minimize_pebbles_descending(&dag, base(11), Duration::from_secs(30), 4);
        let (p, strategy) = result.best.expect("fallback certifies the top budget");
        assert_eq!(p, 5, "refinement descends from 6 and stops above 4");
        strategy.validate(&dag, Some(p)).expect("valid");
        let refuted = (4, ProbeVerdict::StepLimit { steps_checked: 11 });
        assert!(result.probes.contains(&refuted), "{:?}", result.probes);
        let solved = (6, ProbeVerdict::Solved);
        assert!(result.probes.contains(&solved), "{:?}", result.probes);
        // Under a 20-step cap the floor is the optimum: its probe solves
        // and is the only one, and no probe raises the floor.
        let result = minimize_pebbles_descending(&dag, base(20), Duration::from_secs(30), 4);
        assert_eq!(result.best.as_ref().map(|&(p, _)| p), Some(4));
        assert_eq!(result.probes, [(4, ProbeVerdict::Solved)]);
        assert_eq!((result.floor, result.floor_raises), (4, 0));
    }

    #[test]
    fn minimize_weighted_searches_weight_units() {
        use revpebble_graph::{Dag, Op};
        // Minimum weighted budget is 5 (a and b live simultaneously), yet
        // the DAG has only 2 nodes — the old unweighted search range
        // [lower, num_nodes] could not even represent the answer and
        // returned best: None.
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        let base = SolverOptions {
            encoding: EncodingOptions {
                weighted: true,
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 20,
            ..SolverOptions::default()
        };
        let result = minimize_pebbles(&dag, base, Duration::from_secs(30));
        let (p, strategy) = result.best.expect("feasible weight budgets exist");
        assert_eq!(p, 5);
        strategy.validate_weighted(&dag, Some(5)).expect("valid");
        // The descending schedule searches the same weighted range.
        let descending = minimize_pebbles_descending(&dag, base, Duration::from_secs(30), 1);
        assert_eq!(descending.best.as_ref().map(|&(p, _)| p), Some(5));
    }

    #[test]
    fn budget_free_cores_prune_every_budget_via_the_shared_table() {
        use crate::sharing::SharedSearchState;
        let dag = paper_example();
        let shared = Arc::new(SharedSearchState::new());
        // Solver A probes the full budget (6 = every node): its counters
        // can never exceed 6, so no budget assumptions exist and every
        // UNSAT core is budget-free. Starting the deepening at 5 forces
        // refutations of k = 5..9 — certified at *every* budget.
        let mut a = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    bound_mode: BoundMode::Assumed,
                    ..EncodingOptions::default()
                },
                initial_steps: Some(5),
                max_steps: 40,
                ..SolverOptions::default()
            },
        );
        a.set_shared_state(Arc::clone(&shared));
        let strategy = a.resolve_with_budget(6).into_strategy().expect("solved");
        strategy.validate(&dag, Some(6)).expect("valid");
        assert!(
            shared.step_tightenings() > 0,
            "k = 5..9 refutations must land as universal entries"
        );
        assert_eq!(shared.known_refuted_k(1), Some(9));

        // Solver B at the tight budget 4 starts its deepening at 10: the
        // universal entries spare it every k < 10 probe.
        let mut b = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    bound_mode: BoundMode::Assumed,
                    ..EncodingOptions::default()
                },
                initial_steps: Some(5),
                max_steps: 40,
                ..SolverOptions::default()
            },
        );
        b.set_shared_state(Arc::clone(&shared));
        let strategy = b.resolve_with_budget(4).into_strategy().expect("solved");
        strategy.validate(&dag, Some(4)).expect("valid");
        assert_eq!(
            b.stats().queries,
            3,
            "k = 10, 11 refuted, 12 solved — nothing below 10 re-probed"
        );
    }

    #[test]
    fn rival_floor_raise_rules_a_budget_out_without_queries() {
        use crate::sharing::SharedSearchState;
        let dag = paper_example();
        let shared = Arc::new(SharedSearchState::new());
        shared.raise_floor(5);
        let mut solver = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    bound_mode: BoundMode::Assumed,
                    ..EncodingOptions::default()
                },
                ..SolverOptions::default()
            },
        );
        solver.set_shared_state(shared);
        assert!(matches!(
            solver.resolve_with_budget(4),
            PebbleOutcome::Infeasible { lower_bound: 5 }
        ));
        assert_eq!(solver.stats().queries, 0);
    }

    #[test]
    fn minimize_certifies_the_floor_at_the_optimum() {
        // Under an 11-step cap the floor proven without SAT (4) sits below
        // the cap-relative minimum: the budget-4 probe ends in StepLimit
        // (4 pebbles need 12 steps) and raises the certified floor to 5 —
        // exactly the minimum found. Under a cap comfortably above every
        // optimum the floor proven without SAT is the minimum already,
        // and no probe raises it. The certified bound can never exceed
        // the certified best.
        let dag = paper_example();
        for (max_steps, minimum, raises) in [(11, 5, 1), (60, 4, 0)] {
            let base = SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps,
                ..SolverOptions::default()
            };
            let result = minimize_pebbles(&dag, base, Duration::from_secs(30));
            let (best, _) = result.best.clone().expect("feasible");
            assert_eq!(best, minimum, "cap {max_steps}");
            assert_eq!(result.floor, minimum, "floor certifies the optimum");
            assert_eq!(result.floor_raises, raises, "cap {max_steps}");
            assert!(
                result.floor <= best,
                "a certified bound never exceeds the minimum"
            );
        }
    }

    #[test]
    fn minimize_best_budget_is_the_strategys_own_pebble_count() {
        // Model-based upper-bound tightening: `best` records what the
        // extracted strategy actually certifies, never just the budget
        // that happened to be probed.
        let dag = paper_example();
        let base = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        };
        let binary = minimize_pebbles(&dag, base, Duration::from_secs(20));
        let descending = minimize_pebbles_descending(&dag, base, Duration::from_secs(20), 2);
        for result in [binary, descending] {
            let (p, strategy) = result.best.expect("feasible");
            assert_eq!(p, strategy.max_pebbles(&dag));
            assert_eq!(p, 4);
            // A solved probe's budget is never undercut by `best` by more
            // than the model allows; failed probes sit at or above it.
            for &(budget, verdict) in &result.probes {
                if verdict == ProbeVerdict::Solved {
                    assert!(p <= budget);
                }
            }
        }
    }

    #[test]
    fn tightening_jumps_the_descending_refinement_past_slack_budgets() {
        // Descending with an oversized stride: the coarse probe at the
        // structural bound 3 fails, the fallback certifies the full
        // budget 6, and refinement + model tightening must land on 4
        // without ever walking below a certified strategy's own count.
        let dag = paper_example();
        let base = SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 20,
            ..SolverOptions::default()
        };
        let result = minimize_pebbles_descending(&dag, base, Duration::from_secs(30), 10);
        let (p, strategy) = result.best.expect("feasible");
        assert_eq!(p, 4);
        assert_eq!(p, strategy.max_pebbles(&dag));
        // Worst case (every model pebble-maximal): probes 3, 6, 5, 4.
        // Model tightening can only shorten that.
        assert!(result.probes.len() <= 4, "{:?}", result.probes);
    }

    #[test]
    fn weighted_minimize_best_uses_weight_units_for_tightening() {
        use revpebble_graph::{Dag, Op};
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        let b = dag
            .add_node_weighted("b", Op::Buf, [a.into()], 2)
            .expect("valid");
        dag.mark_output(b);
        let base = SolverOptions {
            encoding: EncodingOptions {
                weighted: true,
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 20,
            ..SolverOptions::default()
        };
        let result = minimize_pebbles(&dag, base, Duration::from_secs(30));
        let (p, strategy) = result.best.expect("feasible");
        assert_eq!(p as u64, strategy.max_weight(&dag));
        assert_eq!(p, 5);
    }

    #[test]
    fn sat_strategies_validate_on_random_dags() {
        for seed in 0..8 {
            let dag = random_dag(4, 12, seed);
            let p = pebble_lower_bound(&dag) + 2;
            if let PebbleOutcome::Solved(strategy) = solve_with_pebbles(&dag, p) {
                strategy
                    .validate(&dag, Some(p))
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }

    #[test]
    fn parallel_mode_solves_with_fewer_steps_than_sequential() {
        let dag = and_tree(8);
        let seq = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    max_pebbles: Some(7),
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                ..SolverOptions::default()
            },
        )
        .solve()
        .into_strategy()
        .expect("solved");
        let par = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    max_pebbles: Some(7),
                    move_mode: MoveMode::Parallel,
                    ..EncodingOptions::default()
                },
                ..SolverOptions::default()
            },
        )
        .solve()
        .into_strategy()
        .expect("solved");
        assert!(par.num_steps() < seq.num_steps());
        par.validate(&dag, Some(7)).expect("valid");
    }

    #[test]
    fn stats_are_populated() {
        let dag = paper_example();
        let mut solver = PebbleSolver::new(
            &dag,
            SolverOptions {
                encoding: EncodingOptions {
                    max_pebbles: Some(4),
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                ..SolverOptions::default()
            },
        );
        let _ = solver.solve();
        assert!(solver.stats().queries >= 3); // K = 10, 11, 12
        assert_eq!(solver.stats().max_k, 12);
    }

    #[test]
    fn a_conflict_bounded_exponential_probe_retries_until_its_clock() {
        // One conflict per query: queries return in microseconds, and an
        // assumption-bounded probe retries each inconclusive one with a
        // doubled per-query clock until its own clock ends it. The
        // doubling must saturate: from a sixteenth of 3 s it overflows
        // `Duration` at the 67th retry, which an unoptimized build
        // reaches about 1 s into the probe.
        let dag = paper_example();
        let clock = Duration::from_secs(3);
        let options = SolverOptions {
            schedule: StepSchedule::ExponentialRefine,
            query_conflicts: Some(1),
            ..SolverOptions::default()
        };
        std::thread::scope(|scope| {
            let solo = scope.spawn(|| {
                let mut solver = PebbleSolver::new(
                    &dag,
                    SolverOptions {
                        encoding: EncodingOptions {
                            max_pebbles: Some(3),
                            bound_mode: BoundMode::Assumed,
                            ..EncodingOptions::default()
                        },
                        timeout: Some(clock),
                        ..options
                    },
                );
                solver.solve()
            });
            let report = PebblingSession::new(&dag)
                .solver_options(options)
                .minimize()
                .incremental(true)
                .per_query_timeout(clock)
                .run()
                .expect("valid pebbling configuration");
            assert_eq!(report.stop_reason, None);
            let strategy = report.strategy().expect("a certified budget");
            strategy.validate(&dag, report.minimum).expect("valid");
            let outcome = solo.join().expect("no overflow");
            assert!(!matches!(outcome, PebbleOutcome::Solved(_)));
        });
    }
}
