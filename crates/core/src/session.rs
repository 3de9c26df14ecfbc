//! The one front door to every pebbling engine: [`PebblingSession`].
//!
//! The paper describes *one* conceptual operation — "find the smallest
//! pebble budget for this DAG within a timeout" — but the engines that
//! grew around it (single-budget solve, incremental and fresh budget
//! minimization, descending schedules, racing portfolios, cooperative
//! clause-sharing portfolios, the trade-off frontier) each sprouted their
//! own free function and options struct. This module folds them behind a
//! single builder:
//!
//! ```
//! use revpebble_core::session::PebblingSession;
//! use revpebble_graph::generators::paper_example;
//!
//! let dag = paper_example();
//! let report = PebblingSession::new(&dag)
//!     .minimize()
//!     .run()
//!     .expect("a valid configuration");
//! assert_eq!(report.minimum, Some(4));
//! ```
//!
//! The builder walks three stages:
//!
//! 1. **builder** — fluent setters collect *intent* without validating;
//! 2. **plan** — [`PebblingSession::plan`] checks every cross-field
//!    invariant (sharing requires a minimize portfolio, a fixed budget
//!    conflicts with minimization, weighted budgets must fit the total
//!    weight, …) and rejects bad combinations with a typed
//!    [`SessionError`] *before* any solver is built;
//! 3. **executor** — [`PebblingSession::run`] drives the engine named by
//!    the validated [`SessionPlan`] and unifies the result into one
//!    [`Report`].
//!
//! While an engine runs, it streams [`ProbeEvent`]s: the callback
//! installed with [`PebblingSession::on_event`] observes each one live, on
//! the thread that emitted it, one call at a time (the CLI prints
//! progress lines from it, benches collect structured traces). The
//! terminal [`ProbeEvent::BudgetCertified`] event
//! is emitted exactly once per session, after every worker has finished —
//! even when a portfolio cancels rivals mid-probe — *unless* the
//! session's own cancel token fired first: a cancelled session ends its
//! stream without certifying anything.
//!
//! ## The session runtime
//!
//! [`run`](PebblingSession::run) solves on the caller's thread;
//! [`SessionRuntime::spawn`] is the one way off it:
//!
//! - [`PebblingSession::cancel_token`] installs an ambient
//!   [`CancelToken`] every solver in the session polls;
//!   [`PebblingSession::quota`] caps the session's total SAT conflicts.
//!   A fired token ends the run promptly with a partial [`Report`] whose
//!   [`stop_reason`](Report::stop_reason) names the cause.
//! - A [`SessionRuntime`] is one fixed [`Executor`] pool, one
//!   [`ResultCache`] keyed by [`Dag::canonical_fingerprint`] (repeated
//!   instances skip the solver) and one root token. Its
//!   [`spawn`](SessionRuntime::spawn) answers a question the cache holds
//!   at once and submits any other session to the pool as one job;
//!   either way it returns a [`SessionHandle`] (join / cancel /
//!   try_report) instead of blocking.
//!
//! Many DAGs, one pool: spawn each session, then join the handles in
//! submit order (see [`SessionRuntime`] for an example).

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use revpebble_graph::{Dag, DagError};
use revpebble_sat::faults::FaultSite;
use revpebble_sat::{CancelReason, CancelToken};

use crate::bounds::budget_window;
use crate::cache::{CacheKey, CachedReport, ResultCache};
use crate::encoding::MoveMode;
use crate::exec::Executor;
use crate::frontier::{frontier_on, FrontierPoint};
use crate::portfolio::{
    default_minimize_portfolio, default_portfolio, describe_minimize_config, describe_options,
    diversify_minimize_portfolio, race_minimize, MinimizeConfig, MinimizePortfolioOutcome,
    MinimizeWorkerReport,
};
use crate::solver::{
    fixed_outcome, run_minimize_with_context, BudgetSchedule, MinimizeContext, MinimizeResult,
    PebbleOutcome, ProbeVerdict, RetryPolicy, SolverOptions, StepSchedule,
};
use crate::strategy::Strategy;

/// The sink engines push [`ProbeEvent`]s into. Workers share clones of
/// one sink; each event is counted and handed to the
/// [`PebblingSession::on_event`] callback on the emitting thread, one
/// call at a time.
#[derive(Clone, Default)]
pub(crate) struct ProbeEventSender(Arc<Mutex<EventTally>>);

#[derive(Default)]
struct EventTally {
    emitted: u64,
    callback: Option<SessionCallback>,
}

impl ProbeEventSender {
    fn new(callback: Option<SessionCallback>) -> Self {
        ProbeEventSender(Arc::new(Mutex::new(EventTally {
            emitted: 0,
            callback,
        })))
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, EventTally> {
        // A panicking callback poisons the lock; the count stays exact.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts `event` and hands it to the callback, if any.
    pub(crate) fn send(&self, event: ProbeEvent) {
        let mut tally = self.tally();
        tally.emitted += 1;
        if let Some(callback) = tally.callback.as_mut() {
            callback(event);
        }
    }

    fn emitted(&self) -> u64 {
        self.tally().emitted
    }
}

/// One structured progress event from a running session.
///
/// Events are delivered on the worker threads that emit them, one at a
/// time. Within one `worker`, `probe` indices are monotone
/// (non-decreasing); [`BudgetCertified`](Self::BudgetCertified) is the
/// terminal event — emitted exactly once per session, after every worker
/// has finished, even when a portfolio cancels rivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProbeEvent {
    /// A worker is about to probe a pebble budget.
    ProbeStarted {
        /// Worker index (0 for single-worker engines).
        worker: usize,
        /// The worker's own probe counter, monotone per worker.
        probe: usize,
        /// The pebble budget being probed.
        budget: usize,
    },
    /// A probe found a valid strategy.
    ProbeSolved {
        /// Worker index.
        worker: usize,
        /// The worker's own probe counter.
        probe: usize,
        /// The pebble budget that was probed.
        budget: usize,
        /// What the extracted strategy actually certifies (its own
        /// pebble count — possibly below `budget`).
        achieved: usize,
    },
    /// A probe ended without a strategy: refuted, step-capped or timed
    /// out, as its `verdict` says.
    ProbeRefuted {
        /// Worker index.
        worker: usize,
        /// The worker's own probe counter.
        probe: usize,
        /// The pebble budget that was probed.
        budget: usize,
        /// How the probe ended (never [`ProbeVerdict::Solved`]).
        verdict: ProbeVerdict,
    },
    /// The certified budget floor rose (an exhausted probe, possibly a
    /// rival worker's, proved every smaller budget infeasible within the
    /// step cap).
    FloorRaised {
        /// Worker whose probe observed the raise.
        worker: usize,
        /// The new certified floor.
        floor: usize,
    },
    /// Clause-sharing counters after a probe of a cooperative portfolio
    /// worker (cumulative for that worker's solver).
    ClauseSharingTick {
        /// Worker index.
        worker: usize,
        /// Rivals' clauses imported so far.
        imported: u64,
        /// Learnt clauses exported to the pool so far.
        exported: u64,
    },
    /// Terminal event: the session finished. Emitted exactly once, after
    /// all workers joined; no event follows it.
    BudgetCertified {
        /// The smallest certified budget, or `None` when no budget was
        /// certified (infeasible instance or exhausted timeout).
        minimum: Option<usize>,
    },
}

impl fmt::Display for ProbeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProbeEvent::ProbeStarted {
                worker,
                probe,
                budget,
            } => write!(f, "worker {worker} probe {probe}: trying budget {budget}"),
            ProbeEvent::ProbeSolved {
                worker,
                probe,
                budget,
                achieved,
            } => write!(
                f,
                "worker {worker} probe {probe}: budget {budget} solved (certifies {achieved})"
            ),
            ProbeEvent::ProbeRefuted {
                worker,
                probe,
                budget,
                verdict,
            } => {
                write!(f, "worker {worker} probe {probe}: budget {budget} ")?;
                match verdict {
                    ProbeVerdict::Timeout { steps_reached } => {
                        write!(f, "timed out at {steps_reached} steps")
                    }
                    ProbeVerdict::StepLimit { steps_checked } => {
                        write!(f, "step-capped (refuted up to {steps_checked} steps)")
                    }
                    ProbeVerdict::Infeasible { lower_bound } => {
                        write!(f, "refuted (lower bound {lower_bound})")
                    }
                    ProbeVerdict::Solved => write!(f, "solved"),
                }
            }
            ProbeEvent::FloorRaised { worker, floor } => {
                write!(f, "worker {worker}: certified floor raised to {floor}")
            }
            ProbeEvent::ClauseSharingTick {
                worker,
                imported,
                exported,
            } => write!(
                f,
                "worker {worker}: clause sharing imported={imported} exported={exported}"
            ),
            ProbeEvent::BudgetCertified { minimum: Some(p) } => {
                write!(f, "certified minimum budget: {p}")
            }
            ProbeEvent::BudgetCertified { minimum: None } => {
                write!(f, "no budget certified")
            }
        }
    }
}

/// A configuration the session builder rejects at plan time.
///
/// Every invalid combination of setters maps to a variant here — the
/// library and the CLI reject identically, with no panics and no
/// stringly-typed errors. The enum is `#[non_exhaustive]`: future
/// engines may add variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// The DAG has no nodes; there is nothing to pebble.
    EmptyDag,
    /// The DAG fails [`Dag::validate_for_pebbling`] (a sink is not
    /// marked as an output, so the game is unwinnable).
    UnpebblableDag(DagError),
    /// Neither a fixed budget ([`PebblingSession::pebbles`]) nor a search
    /// mode ([`PebblingSession::minimize`] /
    /// [`PebblingSession::sweep_frontier`]) was selected.
    MissingBudget,
    /// A fixed pebble budget conflicts with budget minimization — the
    /// search picks the budget itself.
    BudgetWithMinimize {
        /// The conflicting fixed budget.
        budget: usize,
    },
    /// A fixed pebble budget conflicts with a frontier sweep, which
    /// probes the whole budget range.
    BudgetWithFrontier {
        /// The conflicting fixed budget.
        budget: usize,
    },
    /// A frontier sweep conflicts with budget minimization.
    FrontierWithMinimize,
    /// The frontier sweep is single-threaded; it cannot race a portfolio.
    FrontierWithPortfolio,
    /// Clause sharing needs portfolio workers to share with.
    ShareClausesWithoutPortfolio,
    /// Clause sharing only applies to the minimize search.
    ShareClausesWithoutMinimize,
    /// Diversification jitters portfolio workers against each other; a
    /// single run has nobody to diverge from.
    DiversifyWithoutPortfolio,
    /// Minimize-portfolio workers always run incrementally; a fresh
    /// solver per probe cannot share clauses or certified bounds.
    FreshPortfolio,
    /// In weighted mode the budget counts weight units; a budget above
    /// the DAG's total weight is meaningless.
    WeightedBudgetOutOfRange {
        /// The requested budget (weight units).
        budget: usize,
        /// The DAG's total weight.
        total_weight: usize,
    },
    /// A step cap of zero admits no strategy on any DAG.
    ZeroStepCap,
    /// A conflict quota of zero is exhausted before the first probe; no
    /// session can do anything under it.
    QuotaExceeded {
        /// The rejected quota.
        quota: u64,
    },
    /// A worker pool of zero threads can never run a job.
    ZeroWorkerPool,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::EmptyDag => write!(f, "cannot pebble an empty DAG"),
            SessionError::UnpebblableDag(err) => {
                write!(f, "the DAG is unfit for pebbling: {err}")
            }
            SessionError::MissingBudget => write!(
                f,
                "no budget given: set a fixed budget (--pebbles / .pebbles(p)) or search for one \
                 (--minimize / .minimize())"
            ),
            SessionError::BudgetWithMinimize { budget } => write!(
                f,
                "--minimize searches for the budget; it conflicts with --pebbles {budget}"
            ),
            SessionError::BudgetWithFrontier { budget } => write!(
                f,
                "the frontier sweeps a budget range; it conflicts with --pebbles {budget}"
            ),
            SessionError::FrontierWithMinimize => {
                write!(f, "the frontier sweep conflicts with --minimize")
            }
            SessionError::FrontierWithPortfolio => {
                write!(f, "the frontier sweep is single-threaded; drop --portfolio")
            }
            SessionError::ShareClausesWithoutPortfolio => write!(
                f,
                "--share-clauses needs --portfolio N workers to share with"
            ),
            SessionError::ShareClausesWithoutMinimize => {
                write!(f, "--share-clauses only applies to the minimize search")
            }
            SessionError::DiversifyWithoutPortfolio => write!(
                f,
                "--diversify only applies to the minimize portfolio (--minimize --portfolio N)"
            ),
            SessionError::FreshPortfolio => write!(
                f,
                "minimize-portfolio workers always run incrementally; drop the fresh-per-probe \
                 request or the portfolio"
            ),
            SessionError::WeightedBudgetOutOfRange {
                budget,
                total_weight,
            } => write!(
                f,
                "weighted budget {budget} exceeds the DAG's total weight {total_weight}"
            ),
            SessionError::ZeroStepCap => write!(f, "a step cap of 0 admits no strategy"),
            SessionError::QuotaExceeded { quota } => write!(
                f,
                "a conflict quota of {quota} is exhausted before the first probe"
            ),
            SessionError::ZeroWorkerPool => {
                write!(f, "a worker pool needs at least one worker")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::UnpebblableDag(err) => Some(err),
            _ => None,
        }
    }
}

/// Which engine a validated [`SessionPlan`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Engine {
    /// One fixed-budget search on one thread: the minimize engine on the
    /// one-point window `[p, p]`.
    Single,
    /// A fixed-budget race over diverse solver configurations, each
    /// worker on the one-point window `[p, p]`.
    SinglePortfolio,
    /// Budget minimization with a fresh solver per probe (the paper's
    /// Table I methodology).
    MinimizeFresh,
    /// Budget minimization on one assumption-bounded incremental
    /// encoding/solver instance.
    MinimizeIncremental,
    /// A race of incremental minimize workers over budget schedules,
    /// sharing nothing but first-winner cancellation.
    MinimizePortfolio,
    /// The cooperative race: minimize workers on one learnt-clause pool
    /// and one certified-refutation blackboard.
    MinimizePortfolioShared,
    /// The pebble/step trade-off frontier sweep.
    Frontier,
}

impl Engine {
    /// A stable machine-readable name (the `engine` key of
    /// [`Report::to_json`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Single => "single",
            Engine::SinglePortfolio => "portfolio",
            Engine::MinimizeFresh => "fresh",
            Engine::MinimizeIncremental => "incremental",
            Engine::MinimizePortfolio => "minimize-portfolio",
            Engine::MinimizePortfolioShared => "minimize-portfolio-shared",
            Engine::Frontier => "frontier",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a session stopped before certifying on its own. The first three
/// variants mirror [`CancelReason`] (the session's token fired); the
/// rest are fault-containment outcomes: worker panics survived as
/// degraded reports, or a wedged session the watchdog detached from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StopReason {
    /// The session's [`CancelToken`] was cancelled explicitly.
    Cancelled,
    /// The session's deadline passed.
    Deadline,
    /// The session's conflict quota ran out.
    QuotaExhausted,
    /// `count` workers (or the engine job itself) panicked and nothing
    /// was certified from the survivors. When survivors certify, the
    /// run counts as clean and the panics show up only as
    /// [`WorkerSummary::failed`] rows.
    WorkerPanicked {
        /// How many workers panicked.
        count: usize,
    },
    /// [`SessionHandle::join`] cancelled a wedged session and detached
    /// from it: its token had fired but its conflict count stood still
    /// for the whole detach grace period.
    Detached,
}

impl StopReason {
    /// A stable machine-readable name (the `stop_reason` key of
    /// [`Report::to_json`]). The first three match
    /// [`CancelReason::as_str`] exactly, so existing consumers keep
    /// parsing.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::Deadline => "deadline",
            StopReason::QuotaExhausted => "quota",
            StopReason::WorkerPanicked { .. } => "worker-panicked",
            StopReason::Detached => "detached",
        }
    }
}

impl From<CancelReason> for StopReason {
    fn from(reason: CancelReason) -> Self {
        match reason {
            CancelReason::Cancelled => StopReason::Cancelled,
            CancelReason::Deadline => StopReason::Deadline,
            CancelReason::QuotaExhausted => StopReason::QuotaExhausted,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A validated execution plan: what [`PebblingSession::run`] will do,
/// with every invariant already checked. Produced by
/// [`PebblingSession::plan`]; useful on its own to validate a
/// configuration (the CLI does) without paying for the run.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionPlan {
    /// The engine the plan drives.
    pub engine: Engine,
    /// Solver options every probe shares (encoding, deepening schedule,
    /// step cap, SAT configuration).
    pub base: SolverOptions,
    /// Wall-clock budget per probe (minimize engines) or per budget
    /// point (frontier).
    pub per_query: Duration,
    /// How minimize engines walk the budget axis.
    pub budget_schedule: BudgetSchedule,
    /// The fixed budget of the single engines.
    pub pebbles: Option<usize>,
    /// Requested worker count for the portfolio engines (`0` = one per
    /// available core).
    pub workers: usize,
    /// Whether the minimize portfolio's workers run jittered CDCL
    /// heuristics (see [`PebblingSession::diversify`]).
    pub diversify: bool,
    /// Whether minimize probes reuse one assumption-bounded instance.
    pub incremental: bool,
    /// How transiently failed probes are re-run.
    pub retry: RetryPolicy,
}

/// What one worker of a session did — a uniform per-worker view across
/// all engines, for reports and the JSON output.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WorkerSummary {
    /// Compact description of the worker's configuration.
    pub config: String,
    /// Budget probes this worker issued.
    pub probes: usize,
    /// SAT queries this worker issued.
    pub queries: usize,
    /// SAT conflicts this worker paid.
    pub conflicts: u64,
    /// Clauses imported from the shared pool.
    pub imported: u64,
    /// Clauses exported to the shared pool.
    pub exported: u64,
    /// `true` when a rival finished first and cancelled this worker.
    pub cancelled: bool,
    /// `true` when this worker's result decided the session.
    pub winner: bool,
    /// Wall-clock from spawn to return.
    pub elapsed: Duration,
    /// `true` when this worker's job panicked; its row is a placeholder
    /// (zero stats) and the session certified from the survivors.
    pub failed: bool,
    /// Probe attempts this worker re-ran after transient failures.
    pub retries: u64,
}

/// The engine-specific artifact behind a [`Report`], for callers that
/// need more than the unified fields (per-probe stats snapshots, the
/// full frontier, per-worker minimize results). `Clone` so a
/// [`ResultCache`] can hold finished outcomes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SessionOutcome {
    /// [`Engine::Single`] / [`Engine::SinglePortfolio`]: the strategy
    /// found (a race's winner's), else the most definite failure any
    /// probe reached (a timeout at `K = 0` when the token fired before
    /// any probe started). A race's workers are the [`Report::workers`]
    /// rows.
    Single(PebbleOutcome),
    /// [`Engine::MinimizeFresh`] / [`Engine::MinimizeIncremental`]: the
    /// raw minimize result.
    Minimize(MinimizeResult),
    /// [`Engine::MinimizePortfolio`] /
    /// [`Engine::MinimizePortfolioShared`]: the raw race outcome.
    MinimizePortfolio(MinimizePortfolioOutcome),
    /// [`Engine::Frontier`]: the swept trade-off points.
    Frontier(Vec<FrontierPoint>),
    /// The engine job died (panicked or was detached) before producing
    /// an outcome; the surrounding [`Report`] is a partial placeholder
    /// whose [`stop_reason`](Report::stop_reason) names the failure.
    Aborted,
}

/// The unified result of a session: what every engine reports, in one
/// shape, with a serde-free [`to_json`](Self::to_json) for machine
/// consumers.
#[derive(Debug)]
#[non_exhaustive]
pub struct Report {
    /// The engine that ran.
    pub engine: Engine,
    /// The smallest certified budget (weight units in weighted mode), or
    /// `None` when nothing was certified.
    pub minimum: Option<usize>,
    /// The certified budget floor at the end of the run — step-cap
    /// relative for the minimize and frontier engines (see
    /// [`crate::sharing`]; a fresh run's stays structural), the
    /// structural lower bound for a fixed budget.
    pub floor: usize,
    /// One summary per worker, in configuration order.
    pub workers: Vec<WorkerSummary>,
    /// Events the session emitted (including the terminal
    /// [`ProbeEvent::BudgetCertified`], which a cancelled session never
    /// emits).
    pub events_emitted: u64,
    /// Why the session stopped early: its token fired (cancel /
    /// deadline / quota), workers panicked with nothing certified from
    /// the survivors, or the watchdog detached from a wedged run.
    /// `None` for a run that completed on its own — only such runs
    /// certify budgets and populate the result cache.
    pub stop_reason: Option<StopReason>,
    /// Probe attempts re-run after transient failures, summed across
    /// workers (plus whole-session re-runs a caller adds when it
    /// re-spawns a failed session, as `revpebble batch --retries` does).
    pub retries: u64,
    /// Result-cache lookups this run answered from the cache (`1` when
    /// the whole session was served without solving). Zero when no cache
    /// is installed.
    pub cache_hits: u64,
    /// Result-cache lookups this run had to solve for. Zero when no
    /// cache is installed.
    pub cache_misses: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// The engine-specific artifact (probe logs, per-worker results,
    /// frontier points).
    pub outcome: SessionOutcome,
}

impl Report {
    /// The best strategy the session found, if any.
    pub fn strategy(&self) -> Option<&Strategy> {
        match &self.outcome {
            SessionOutcome::Single(outcome) => outcome.strategy(),
            SessionOutcome::Minimize(result) => result.best.as_ref().map(|(_, s)| s),
            SessionOutcome::MinimizePortfolio(outcome) => outcome.best.as_ref().map(|(_, s)| s),
            SessionOutcome::Frontier(points) => {
                points.iter().find_map(|point| point.strategy.as_ref())
            }
            SessionOutcome::Aborted => None,
        }
    }

    /// Consumes the report and returns the best strategy, if any.
    pub fn into_strategy(self) -> Option<Strategy> {
        match self.outcome {
            SessionOutcome::Single(outcome) => outcome.into_strategy(),
            SessionOutcome::Minimize(result) => result.best.map(|(_, s)| s),
            SessionOutcome::MinimizePortfolio(outcome) => outcome.best.map(|(_, s)| s),
            SessionOutcome::Frontier(points) => points.into_iter().find_map(|point| point.strategy),
            SessionOutcome::Aborted => None,
        }
    }

    /// Total budget probes across all workers.
    pub fn probes(&self) -> usize {
        self.workers.iter().map(|w| w.probes).sum()
    }

    /// The report as one JSON object (no external serialization crate;
    /// the one free-form string — each worker's `config` line — is
    /// escaped with [`revpebble_graph::json::json_escape`], so the
    /// output stays valid JSON even for hostile names arriving over the
    /// wire).
    ///
    /// Keys, in order: `engine`, `minimum` (number or `null`), `floor`,
    /// `workers` (array of per-worker objects), `events_emitted`,
    /// `probes`, `stop_reason` (string or `null`), `retries`,
    /// `cache_hits`, `cache_misses`, `wall_s`, `strategy` (object or
    /// `null`), and for frontier runs `frontier`.
    pub fn to_json(&self) -> String {
        use revpebble_graph::json::json_escape;
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"engine\":\"{}\"", self.engine.as_str());
        match self.minimum {
            Some(p) => {
                let _ = write!(out, ",\"minimum\":{p}");
            }
            None => out.push_str(",\"minimum\":null"),
        }
        let _ = write!(out, ",\"floor\":{}", self.floor);
        out.push_str(",\"workers\":[");
        for (index, worker) in self.workers.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"config\":\"{}\",\"probes\":{},\"queries\":{},\"conflicts\":{},\
                 \"imported\":{},\"exported\":{},\"cancelled\":{},\"winner\":{},\
                 \"failed\":{},\"retries\":{},\"elapsed_s\":{:.6}}}",
                json_escape(&worker.config),
                worker.probes,
                worker.queries,
                worker.conflicts,
                worker.imported,
                worker.exported,
                worker.cancelled,
                worker.winner,
                worker.failed,
                worker.retries,
                worker.elapsed.as_secs_f64(),
            );
        }
        out.push(']');
        let _ = write!(out, ",\"events_emitted\":{}", self.events_emitted);
        let _ = write!(out, ",\"probes\":{}", self.probes());
        match self.stop_reason {
            Some(reason) => {
                let _ = write!(out, ",\"stop_reason\":\"{}\"", reason.as_str());
            }
            None => out.push_str(",\"stop_reason\":null"),
        }
        let _ = write!(out, ",\"retries\":{}", self.retries);
        let _ = write!(
            out,
            ",\"cache_hits\":{},\"cache_misses\":{}",
            self.cache_hits, self.cache_misses
        );
        let _ = write!(out, ",\"wall_s\":{:.6}", self.wall.as_secs_f64());
        match self.strategy() {
            Some(strategy) => {
                let _ = write!(
                    out,
                    ",\"strategy\":{{\"steps\":{},\"moves\":{}}}",
                    strategy.num_steps(),
                    strategy.num_moves()
                );
            }
            None => out.push_str(",\"strategy\":null"),
        }
        if let SessionOutcome::Frontier(points) = &self.outcome {
            out.push_str(",\"frontier\":[");
            for (index, point) in points.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                match &point.strategy {
                    Some(s) => {
                        let _ = write!(out, "[{},{}]", point.pebbles, s.num_steps());
                    }
                    None => {
                        let _ = write!(out, "[{},null]", point.pebbles);
                    }
                }
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// Builder for one pebbling run — the single entry point the CLI, the
/// bench harnesses and library consumers all drive. See the
/// [module docs](self) for the builder → plan → executor pipeline and
/// the crate docs for a worked example.
pub struct PebblingSession<'a> {
    dag: &'a Dag,
    base: SolverOptions,
    pebbles: Option<usize>,
    minimize: bool,
    frontier: bool,
    budget_schedule: BudgetSchedule,
    incremental: Option<bool>,
    portfolio: Option<usize>,
    share_clauses: bool,
    diversify: bool,
    per_query: Option<Duration>,
    cancel: Option<CancelToken>,
    quota: Option<u64>,
    retry: RetryPolicy,
    executor: Option<Arc<Executor>>,
    on_event: Option<SessionCallback>,
}

/// The observer installed with [`PebblingSession::on_event`]. `'static`
/// (+ `Send`) so a session can be handed to an [`Executor`] whole; borrow
/// state through an `Arc` to collect events.
type SessionCallback = Box<dyn FnMut(ProbeEvent) + Send + 'static>;

impl fmt::Debug for PebblingSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PebblingSession")
            .field("base", &self.base)
            .field("pebbles", &self.pebbles)
            .field("minimize", &self.minimize)
            .field("frontier", &self.frontier)
            .field("budget_schedule", &self.budget_schedule)
            .field("incremental", &self.incremental)
            .field("portfolio", &self.portfolio)
            .field("share_clauses", &self.share_clauses)
            .field("diversify", &self.diversify)
            .field("per_query", &self.per_query)
            .field("cancel", &self.cancel)
            .field("quota", &self.quota)
            .field("retry", &self.retry)
            .field("executor", &self.executor.is_some())
            .field("on_event", &self.on_event.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> PebblingSession<'a> {
    /// Starts a session on `dag` with paper-faithful defaults: sequential
    /// moves, linear deepening, default SAT configuration. Nothing is
    /// validated until [`plan`](Self::plan) / [`run`](Self::run).
    pub fn new(dag: &'a Dag) -> Self {
        PebblingSession {
            dag,
            base: SolverOptions::default(),
            pebbles: None,
            minimize: false,
            frontier: false,
            budget_schedule: BudgetSchedule::Binary,
            incremental: None,
            portfolio: None,
            share_clauses: false,
            diversify: false,
            per_query: None,
            cancel: None,
            quota: None,
            retry: RetryPolicy::none(),
            executor: None,
            on_event: None,
        }
    }

    /// Solve with this fixed pebble budget (weight units in weighted
    /// mode). Conflicts with [`minimize`](Self::minimize) and
    /// [`sweep_frontier`](Self::sweep_frontier).
    pub fn pebbles(mut self, budget: usize) -> Self {
        self.pebbles = Some(budget);
        self.base.encoding.max_pebbles = Some(budget);
        self
    }

    /// Search for the smallest certifiable pebble budget (the paper's
    /// Table I methodology) instead of solving one fixed budget.
    pub fn minimize(mut self) -> Self {
        self.minimize = true;
        self
    }

    /// Sweep the pebble/step trade-off frontier: probe every budget from
    /// the full budget (the node count, or the total weight in weighted
    /// mode) down to the structural lower bound, and report the best step
    /// count per feasible budget.
    pub fn sweep_frontier(mut self) -> Self {
        self.frontier = true;
        self
    }

    /// How the deepening over the step count `K` is scheduled.
    pub fn steps(mut self, schedule: StepSchedule) -> Self {
        self.base.schedule = schedule;
        self
    }

    /// How a minimize search walks the budget axis.
    pub fn budget(mut self, schedule: BudgetSchedule) -> Self {
        self.budget_schedule = schedule;
        self
    }

    /// `true` (the default): every minimize probe reuses one
    /// assumption-bounded encoding/solver instance. `false`: the paper's
    /// fresh-solver-per-probe methodology, as its Table I runs did.
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = Some(incremental);
        self
    }

    /// Race `n` workers (`0` = one per available core): diverse solver
    /// configurations for a fixed budget, incremental budget schedules
    /// for a minimize search.
    pub fn portfolio(mut self, n: usize) -> Self {
        self.portfolio = Some(n);
        self
    }

    /// Makes a minimize portfolio cooperative: workers exchange short
    /// learnt clauses through one clause pool and certified refutations
    /// through one blackboard. Requires [`minimize`](Self::minimize) +
    /// [`portfolio`](Self::portfolio).
    pub fn share_clauses(mut self) -> Self {
        self.share_clauses = true;
        self
    }

    /// Jitters the CDCL heuristics of every minimize-portfolio worker but
    /// the first (HordeSat-style diversification: per-worker RNG seeds,
    /// restart-interval jitter, VSIDS-decay jitter, polarity inversion,
    /// variable-bump noise — see
    /// [`diversify_minimize_portfolio`]).
    /// Works with or without [`share_clauses`](Self::share_clauses);
    /// requires [`minimize`](Self::minimize) +
    /// [`portfolio`](Self::portfolio).
    pub fn diversify(mut self) -> Self {
        self.diversify = true;
        self
    }

    /// Wall-clock budget per budget probe: each minimize probe, each
    /// frontier point (default 10 s, as the CLI uses), and the one probe
    /// of a fixed budget, which runs under the smaller of this and
    /// [`timeout`](Self::timeout).
    pub fn per_query_timeout(mut self, per_query: Duration) -> Self {
        self.per_query = Some(per_query);
        self
    }

    /// Wall-clock budget for a whole fixed-budget solve.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.base.timeout = Some(timeout);
        self
    }

    /// Move semantics of the encoding (sequential vs. parallel).
    pub fn move_mode(mut self, mode: MoveMode) -> Self {
        self.base.encoding.move_mode = mode;
        self
    }

    /// Bound the total *weight* of pebbled nodes instead of their count.
    pub fn weighted(mut self, weighted: bool) -> Self {
        self.base.encoding.weighted = weighted;
        self
    }

    /// Abort the deepening once `K` exceeds this step cap.
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.base.max_steps = max_steps;
        self
    }

    /// Replaces the whole base [`SolverOptions`] at once (power users;
    /// the individual setters cover the common axes). A fixed budget
    /// already set via [`pebbles`](Self::pebbles) is preserved.
    pub fn solver_options(mut self, base: SolverOptions) -> Self {
        self.base = base;
        if let Some(budget) = self.pebbles {
            self.base.encoding.max_pebbles = Some(budget);
        }
        self
    }

    /// Installs a live observer for [`ProbeEvent`]s. The callback runs on
    /// the thread that emits each event — a portfolio's worker threads
    /// while they solve — one call at a time, in emission order; the
    /// terminal [`ProbeEvent::BudgetCertified`] arrives last
    /// — unless the session's cancel token fired, in which case the
    /// stream ends without certifying. Keep it brief: the emitting worker
    /// waits for each call to return. `'static` + `Send` so the whole
    /// session can be handed to an [`Executor`]; collect events through
    /// an `Arc<Mutex<_>>` or a channel sender.
    pub fn on_event(mut self, callback: impl FnMut(ProbeEvent) + Send + 'static) -> Self {
        self.on_event = Some(Box::new(callback));
        self
    }

    /// Installs an ambient [`CancelToken`] every solver in the session
    /// polls: cancel it (or let its deadline pass) and the run ends
    /// promptly with a partial [`Report`] whose
    /// [`stop_reason`](Report::stop_reason) names the cause.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the session's total SAT conflicts. The cap is enforced
    /// through a child of the session's [`cancel_token`](Self::cancel_token)
    /// (or a private token when none is installed): once exhausted, the
    /// run stops with [`Report::stop_reason`] =
    /// [`CancelReason::QuotaExhausted`]. A quota of zero is rejected at
    /// [`plan`](Self::plan) time.
    pub fn quota(mut self, conflicts: u64) -> Self {
        self.quota = Some(conflicts);
        self
    }

    /// Re-runs a transiently failed minimize probe up to `extra` times on
    /// top of the first attempt (so `retries(0)` is the default
    /// fail-fast behavior), with the monotonicity table intact, after a
    /// deterministic exponential backoff ([`RetryPolicy::attempts`]).
    pub fn retries(mut self, extra: u32) -> Self {
        self.retry = RetryPolicy::attempts(extra.saturating_add(1));
        self
    }

    /// Runs this session's portfolio workers as jobs on a shared
    /// [`Executor`] instead of a private per-race worker pool.
    /// Single-threaded engines ignore it.
    pub fn executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Validates the configuration and names the engine it will drive,
    /// without running anything. Every cross-field invariant is checked
    /// here; [`run`](Self::run) cannot panic on configuration errors.
    pub fn plan(&self) -> Result<SessionPlan, SessionError> {
        if self.dag.num_nodes() == 0 {
            return Err(SessionError::EmptyDag);
        }
        if let Err(err) = self.dag.validate_for_pebbling() {
            return Err(SessionError::UnpebblableDag(err));
        }
        if self.base.max_steps == 0 {
            return Err(SessionError::ZeroStepCap);
        }
        if self.quota == Some(0) {
            return Err(SessionError::QuotaExceeded { quota: 0 });
        }
        if let (true, Some(budget)) = (self.base.encoding.weighted, self.pebbles) {
            let total_weight = usize::try_from(self.dag.total_weight()).unwrap_or(usize::MAX);
            if budget > total_weight {
                return Err(SessionError::WeightedBudgetOutOfRange {
                    budget,
                    total_weight,
                });
            }
        }
        let engine = if self.frontier {
            if self.minimize {
                return Err(SessionError::FrontierWithMinimize);
            }
            if let Some(budget) = self.pebbles {
                return Err(SessionError::BudgetWithFrontier { budget });
            }
            if self.portfolio.is_some() {
                return Err(SessionError::FrontierWithPortfolio);
            }
            if self.share_clauses {
                return Err(SessionError::ShareClausesWithoutMinimize);
            }
            if self.diversify {
                return Err(SessionError::DiversifyWithoutPortfolio);
            }
            Engine::Frontier
        } else if self.minimize {
            if let Some(budget) = self.pebbles {
                return Err(SessionError::BudgetWithMinimize { budget });
            }
            match self.portfolio {
                Some(_) => {
                    if self.incremental == Some(false) {
                        return Err(SessionError::FreshPortfolio);
                    }
                    if self.share_clauses {
                        Engine::MinimizePortfolioShared
                    } else {
                        Engine::MinimizePortfolio
                    }
                }
                None => {
                    if self.share_clauses {
                        return Err(SessionError::ShareClausesWithoutPortfolio);
                    }
                    if self.diversify {
                        return Err(SessionError::DiversifyWithoutPortfolio);
                    }
                    if self.incremental.unwrap_or(true) {
                        Engine::MinimizeIncremental
                    } else {
                        Engine::MinimizeFresh
                    }
                }
            }
        } else {
            if self.share_clauses {
                return Err(SessionError::ShareClausesWithoutMinimize);
            }
            if self.diversify {
                return Err(SessionError::DiversifyWithoutPortfolio);
            }
            let Some(_) = self.pebbles else {
                return Err(SessionError::MissingBudget);
            };
            if self.portfolio.is_some() {
                Engine::SinglePortfolio
            } else {
                Engine::Single
            }
        };
        let mut base = self.base;
        // A fixed budget is one probe, so an explicit per-probe bound
        // bounds the whole solve.
        if let (Some(_), Some(per_query)) = (self.pebbles, self.per_query) {
            base.timeout = Some(base.timeout.map_or(per_query, |t| t.min(per_query)));
        }
        Ok(SessionPlan {
            engine,
            base,
            per_query: self.per_query.unwrap_or(Duration::from_secs(10)),
            budget_schedule: self.budget_schedule,
            pebbles: self.pebbles,
            workers: self.portfolio.unwrap_or(0),
            diversify: self.diversify,
            incremental: self.incremental.unwrap_or(true),
            retry: self.retry,
        })
    }

    /// Validates ([`plan`](Self::plan)) and runs the session, streaming
    /// [`ProbeEvent`]s to the [`on_event`](Self::on_event) callback while
    /// workers solve, and returns the unified [`Report`].
    pub fn run(mut self) -> Result<Report, SessionError> {
        let plan = self.plan()?;
        let token = self.compose_token();
        let callback = self.on_event.take();
        Ok(run_with_runtime(
            self.dag,
            &plan,
            callback,
            token,
            None,
            self.executor.as_ref(),
        ))
    }

    /// The session token the run polls: the installed
    /// [`cancel_token`](Self::cancel_token), wrapped in a quota-carrying
    /// child when [`quota`](Self::quota) is set, or `None` when neither
    /// was requested (the default — no token overhead at all).
    fn compose_token(&self) -> Option<CancelToken> {
        match (&self.cancel, self.quota) {
            (None, None) => None,
            (Some(token), None) => Some(token.clone()),
            (Some(token), Some(quota)) => Some(token.child_with_limits(None, Some(quota))),
            (None, Some(quota)) => Some(CancelToken::with_limits(None, Some(quota))),
        }
    }
}

/// Hash of every plan field that can change a session's answer — the
/// plan half of a [`CacheKey`]. [`SessionPlan`] aggregates plain-data
/// option structs that all derive `Debug`, so the debug rendering is a
/// faithful digest of the whole configuration that cannot silently miss
/// a newly added field.
fn plan_hash(plan: &SessionPlan) -> u64 {
    let mut hasher = DefaultHasher::new();
    format!("{plan:?}").hash(&mut hasher);
    hasher.finish()
}

/// The report of a session served whole from the result cache: no
/// solver runs and no worker reports; the stream is the terminal event
/// alone. [`SessionRuntime::spawn`] builds it for a hit at spawn, and
/// the session job for a twin that finished while the job was queued.
fn cached_report(
    plan: &SessionPlan,
    hit: CachedReport,
    events: &ProbeEventSender,
    start: Instant,
) -> Report {
    events.send(ProbeEvent::BudgetCertified {
        minimum: hit.minimum,
    });
    Report {
        engine: plan.engine,
        minimum: hit.minimum,
        floor: hit.floor,
        workers: Vec::new(),
        events_emitted: events.emitted(),
        stop_reason: None,
        retries: 0,
        cache_hits: 1,
        cache_misses: 0,
        wall: start.elapsed(),
        outcome: hit.outcome,
    }
}

/// The one engine driver behind [`PebblingSession::run`] and
/// [`SessionRuntime::spawn`]: consult the result cache under `key`,
/// drive the planned engine under the composed cancel token, suppress
/// certification when the token fired, and populate the cache on a clean
/// finish.
fn run_with_runtime(
    dag: &Dag,
    plan: &SessionPlan,
    callback: Option<SessionCallback>,
    token: Option<CancelToken>,
    cache: Option<(&ResultCache, CacheKey)>,
    executor: Option<&Arc<Executor>>,
) -> Report {
    let start = Instant::now();
    let events = ProbeEventSender::new(callback);
    if let Some((cache, key)) = &cache {
        if let Some(hit) = cache.lookup(key) {
            return cached_report(plan, hit, &events, start);
        }
    }
    // The engine job is a panic containment boundary: an escaping panic
    // (injected or real) becomes an `Aborted` partial report instead of
    // unwinding through the caller.
    let (engine_result, engine_panicked) = match catch_unwind(AssertUnwindSafe(|| {
        execute_plan(dag, plan, &events, token.as_ref(), executor)
    })) {
        Ok(result) => (result, false),
        // Nothing certified beyond what the DAG's structure guarantees.
        Err(_) => {
            let floor = budget_window(dag, plan.base.encoding.weighted).0;
            (((None, floor), SessionOutcome::Aborted, Vec::new()), true)
        }
    };
    let ((minimum, floor), outcome, workers) = engine_result;
    let failed_workers = workers.iter().filter(|worker| worker.failed).count();
    // Token verdicts win; otherwise a run that lost workers *and* has
    // nothing certified from the survivors stopped because of the
    // panics. Survivor-certified runs stay clean — the panics remain
    // visible as `failed` worker rows.
    let stop_reason = token
        .as_ref()
        .and_then(|token| token.poll())
        .map(StopReason::from)
        .or_else(|| {
            if engine_panicked {
                Some(StopReason::WorkerPanicked {
                    count: failed_workers.max(1),
                })
            } else if failed_workers > 0 && minimum.is_none() {
                Some(StopReason::WorkerPanicked {
                    count: failed_workers,
                })
            } else {
                None
            }
        });
    // The terminal event: exactly once per session, after every worker
    // joined — but never after the session's own token fired. A
    // cancelled session ends its stream without certifying anything.
    if stop_reason.is_none() {
        events.send(ProbeEvent::BudgetCertified { minimum });
    }
    let mut cache_misses = 0;
    if let Some((cache, key)) = cache {
        cache_misses = 1;
        // Only clean finishes with a full complement of workers are
        // answers; a cancelled run's partial result — or one certified
        // over a quarantined (panicked) worker's hole — must never be
        // served as the instance's answer. Fail point `cache.insert`:
        // a transient failure skips the insert (the report is
        // unaffected; the next identical run solves again).
        if stop_reason.is_none()
            && failed_workers == 0
            && !plan.base.sat.faults.trip(FaultSite::CacheInsert, None)
        {
            cache.insert(
                key,
                CachedReport {
                    minimum,
                    floor,
                    outcome: outcome.clone(),
                },
            );
        }
    }
    Report {
        engine: plan.engine,
        minimum,
        floor,
        retries: workers.iter().map(|worker| worker.retries).sum(),
        workers,
        events_emitted: events.emitted(),
        stop_reason,
        cache_hits: 0,
        cache_misses,
        wall: start.elapsed(),
        outcome,
    }
}

/// A non-blocking handle to a session submitted to a runtime's pool with
/// [`SessionRuntime::spawn`]: poll it ([`try_report`](Self::try_report)),
/// stop it ([`cancel`](Self::cancel) — [`join`](Self::join) then returns
/// the partial [`Report`] with its [`stop_reason`](Report::stop_reason)
/// set), or block for the result ([`join`](Self::join)).
#[derive(Debug)]
pub struct SessionHandle {
    token: CancelToken,
    receiver: mpsc::Receiver<Report>,
    report: Option<Report>,
    engine: Engine,
    detach_grace: Duration,
    started: Instant,
}

/// How often [`SessionHandle::join`]'s watchdog wakes to check the
/// session's token and its conflict count while blocking on the report
/// channel.
const WATCHDOG_POLL: Duration = Duration::from_millis(25);

impl SessionHandle {
    /// Fires the session's cancel token. The running session stops at
    /// its next poll point and [`join`](Self::join) returns a partial
    /// [`Report`] promptly.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// How long [`join`](Self::join) keeps waiting after the session's
    /// token fired while its conflict count stands still, before it
    /// detaches with a [`StopReason::Detached`] report (default 5s).
    pub fn detach_grace(mut self, grace: Duration) -> Self {
        self.detach_grace = grace;
        self
    }

    /// The finished [`Report`], or `None` while the session still runs.
    /// Never blocks. A session [`SessionRuntime::spawn`] answered from
    /// the result cache has its report from the start, so the first call
    /// returns it. A session job that died without reporting yields the
    /// same [`StopReason::WorkerPanicked`] placeholder
    /// [`join`](Self::join) returns.
    pub fn try_report(&mut self) -> Option<&Report> {
        if self.report.is_none() {
            self.report = match self.receiver.try_recv() {
                Ok(report) => Some(report),
                Err(mpsc::TryRecvError::Disconnected) => {
                    Some(self.placeholder(StopReason::WorkerPanicked { count: 1 }))
                }
                Err(mpsc::TryRecvError::Empty) => None,
            };
        }
        self.report.as_ref()
    }

    /// Blocks until the session finishes and returns its [`Report`] — a
    /// partial one, with [`Report::stop_reason`] set, when the session
    /// was cancelled.
    ///
    /// `join` never unwinds: a session job that panicked past its own
    /// containment yields a [`StopReason::WorkerPanicked`] placeholder
    /// report. While the session's token is quiet, `join` waits as long
    /// as the job runs. Once the token has fired, it never blocks
    /// forever: a watchdog tracks the session token's conflict count
    /// ([`CancelToken::used`], charged on every SAT conflict) — if it
    /// stands still for the whole detach grace period, the wedged job is
    /// cancelled (again) and *detached*: join returns a
    /// [`StopReason::Detached`] placeholder and the job's thread is left
    /// to die on its own.
    pub fn join(mut self) -> Report {
        if let Some(report) = self.report.take() {
            return report;
        }
        // `None` until the token fires; then the conflict count last
        // seen and when it was seen, to measure stalls.
        let mut stalled: Option<(u64, Instant)> = None;
        loop {
            match self.receiver.recv_timeout(WATCHDOG_POLL) {
                Ok(report) => return report,
                // The job died without reporting: its panic escaped
                // every containment layer below.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return self.placeholder(StopReason::WorkerPanicked { count: 1 })
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
            }
            if self.token.poll().is_none() {
                continue;
            }
            // Escalation, step 1: the token fired (deadline / quota /
            // explicit) — make sure the latch is set so every child
            // poll sees it.
            self.token.cancel();
            let used = self.token.used();
            let now = Instant::now();
            match stalled {
                Some((seen, _)) if seen != used => stalled = Some((used, now)),
                Some((_, since)) if now.duration_since(since) >= self.detach_grace => {
                    // Escalation, step 2: cancelled, and no conflict in
                    // a whole grace period — the job is wedged
                    // somewhere that polls nothing. Detach.
                    return self.placeholder(StopReason::Detached);
                }
                Some(_) => {}
                None => stalled = Some((used, now)),
            }
        }
    }

    /// The partial report `join` synthesizes when the session job can
    /// no longer produce one itself.
    fn placeholder(&self, reason: StopReason) -> Report {
        Report {
            engine: self.engine,
            minimum: None,
            floor: 0,
            workers: Vec::new(),
            events_emitted: 0,
            stop_reason: Some(reason),
            retries: 0,
            cache_hits: 0,
            cache_misses: 0,
            wall: self.started.elapsed(),
            outcome: SessionOutcome::Aborted,
        }
    }
}

/// The shared substrate one process multiplexes many sessions onto: a
/// fixed [`Executor`] pool, a fingerprint-keyed [`ResultCache`], one
/// root [`CancelToken`] and a default per-session conflict quota.
///
/// [`spawn`](Self::spawn) is the one way a session leaves the caller's
/// thread. The CLI `batch` command spawns every input on one runtime and
/// joins in submit order; the `revpebble-serve` daemon shares one runtime
/// across every client connection so repeated DAGs hit one cache and all
/// clients draw from one pool. The runtime is `Clone` — clones share the
/// same pool, cache and token — so a connection handler can own a handle
/// to it.
///
/// ```
/// use revpebble_core::session::{PebblingSession, SessionRuntime};
/// use revpebble_graph::generators::paper_example;
///
/// let dag = paper_example();
/// let runtime = SessionRuntime::new(2).expect("workers");
/// let handles: Vec<_> = (0..2)
///     .map(|_| {
///         runtime
///             .spawn(PebblingSession::new(&dag).pebbles(4), runtime.root().child())
///             .expect("valid configuration")
///     })
///     .collect();
/// for handle in handles {
///     assert_eq!(handle.join().minimum, Some(4));
/// }
/// assert_eq!(runtime.cache().hits() + runtime.cache().misses(), 2);
/// ```
#[derive(Clone)]
pub struct SessionRuntime {
    executor: Arc<Executor>,
    cache: Arc<ResultCache>,
    root: CancelToken,
    quota: Option<u64>,
}

impl fmt::Debug for SessionRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionRuntime")
            .field("quota", &self.quota)
            .finish_non_exhaustive()
    }
}

impl SessionRuntime {
    /// A runtime served by `workers` pool threads (rejects zero), with
    /// no quota.
    pub fn new(workers: usize) -> Result<Self, SessionError> {
        if workers == 0 {
            return Err(SessionError::ZeroWorkerPool);
        }
        Ok(SessionRuntime {
            executor: Arc::new(Executor::new(workers)),
            cache: Arc::new(ResultCache::default()),
            root: CancelToken::new(),
            quota: None,
        })
    }

    /// Caps every session spawned through the runtime at `conflicts`
    /// SAT conflicts (rides the token tree as a quota-carrying child).
    pub fn per_session_quota(mut self, conflicts: u64) -> Self {
        self.quota = Some(conflicts);
        self
    }

    /// The shared result cache.
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The runtime's root token; children of it are what per-session
    /// tokens should descend from, so cancelling the root stops every
    /// running and queued session.
    pub fn root(&self) -> &CancelToken {
        &self.root
    }

    /// Wires a configured session into the runtime and submits it to the
    /// pool. The session always runs under a quota-carrying child of
    /// `token` (a descendant of [`root`](Self::root)), which replaces
    /// any [`cancel_token`](PebblingSession::cancel_token) set on the
    /// session. The child's quota is the tighter of the session's own
    /// [`quota`](PebblingSession::quota) and the runtime's
    /// [`per_session_quota`](Self::per_session_quota), `u64::MAX` when
    /// neither caps it, so the child counts every conflict the session
    /// pays: that count is what [`SessionHandle::join`]'s watchdog
    /// reads.
    ///
    /// `spawn` validates the session ([`PebblingSession::plan`]); a bad
    /// configuration comes back as a typed [`SessionError`] without
    /// consuming a pool slot. It then looks the question up in the
    /// shared result cache. A hit is answered here, on the caller's
    /// thread: the returned handle already holds the cached [`Report`]
    /// (its terminal [`ProbeEvent::BudgetCertified`] has reached the
    /// [`on_event`](PebblingSession::on_event) callback), and no job is
    /// queued. A miss clones the DAG into an owned job and returns a
    /// non-blocking [`SessionHandle`] at once. The job looks the
    /// question up again when it starts, so a repeat queued behind its
    /// twin is still served from the cache. The cache counts every
    /// session once, as a hit or a miss. The session's engines fan their
    /// own sub-jobs onto the same pool (workers help while waiting, so
    /// nested fan-out cannot deadlock it).
    pub fn spawn(
        &self,
        session: PebblingSession<'_>,
        token: CancelToken,
    ) -> Result<SessionHandle, SessionError> {
        // The tighter quota; an uncapped child still counts conflicts.
        let quota = session.quota.into_iter().chain(self.quota).min();
        let mut session = session.cancel_token(token).quota(quota.unwrap_or(u64::MAX));
        let plan = session.plan()?;
        let started = Instant::now();
        // Always `Some`: the cancel token and quota installed above.
        let token = session.compose_token().unwrap_or_default();
        let callback = session.on_event.take();
        let key = CacheKey {
            fingerprint: session.dag.canonical_fingerprint(),
            plan: plan_hash(&plan),
        };
        let (report_tx, receiver) = mpsc::channel();
        let mut handle = SessionHandle {
            token: token.clone(),
            receiver,
            report: None,
            engine: plan.engine,
            detach_grace: Duration::from_secs(5),
            started,
        };
        if let Some(hit) = self.cache.hit(&key) {
            // A callback that panics on the terminal event is contained
            // as a session job that died unreported would be.
            let events = ProbeEventSender::new(callback);
            let report = catch_unwind(AssertUnwindSafe(|| {
                cached_report(&plan, hit, &events, started)
            }))
            .unwrap_or_else(|_| handle.placeholder(StopReason::WorkerPanicked { count: 1 }));
            handle.report = Some(report);
            return Ok(handle);
        }
        let cache = Arc::clone(&self.cache);
        let dag = session.dag.clone();
        let executor = Arc::clone(&self.executor);
        self.executor.submit(move || {
            // Fail point `exec.job`: the whole session is one executor
            // job. A transient failure here degrades to cancelling the
            // session's own token.
            if plan.base.sat.faults.trip(FaultSite::ExecJob, Some(&token)) {
                token.cancel();
            }
            let report = run_with_runtime(
                &dag,
                &plan,
                callback,
                Some(token),
                Some((&cache, key)),
                Some(&executor),
            );
            let _ = report_tx.send(report);
        });
        Ok(handle)
    }
}

/// The one place a [`WorkerSummary`] row is built, from a worker's run.
fn summarize(
    config: String,
    run: &MinimizeResult,
    winner: bool,
    elapsed: Duration,
) -> WorkerSummary {
    WorkerSummary {
        config,
        probes: run.probes.len(),
        queries: run.search.queries,
        conflicts: run.sat.conflicts,
        imported: run.sat.imported_clauses,
        exported: run.sat.exported_clauses,
        cancelled: false,
        winner,
        elapsed,
        failed: false,
        retries: run.retries,
    }
}

/// One [`WorkerSummary`] row per race worker, in configuration order.
fn race_rows(
    workers: &[MinimizeWorkerReport],
    winner: Option<usize>,
    describe: fn(&MinimizeConfig) -> String,
) -> Vec<WorkerSummary> {
    workers
        .iter()
        .enumerate()
        .map(|(index, worker)| {
            let config = describe(&worker.config);
            let mut row = summarize(
                config,
                &worker.result,
                winner == Some(index),
                worker.elapsed,
            );
            row.cancelled = worker.cancelled;
            row.failed = worker.panicked.is_some();
            row
        })
        .collect()
}

/// Runs a race of `workers` on the session's executor or, when none is
/// installed, on a private pool with one thread per worker.
fn on_pool<T>(
    executor: Option<&Arc<Executor>>,
    workers: usize,
    race: impl FnOnce(&Executor) -> T,
) -> T {
    match executor {
        Some(executor) => race(executor),
        None => race(&Executor::new(workers.max(1))),
    }
}

/// Runs the engine a validated plan names, pushing progress events into
/// `events`, and returns the certified `(minimum, floor)`, the artifact
/// and one row per worker. Every engine is the minimize engine, run once,
/// raced or swept: a fixed budget `p` is the one-point window `[p, p]` on
/// the fresh (baked-budget) prober under the whole-solve timeout, its race
/// runs the [`default_portfolio`] configurations, and the frontier walks
/// the window downward through the same probe body.
fn execute_plan(
    dag: &Dag,
    plan: &SessionPlan,
    events: &ProbeEventSender,
    cancel: Option<&CancelToken>,
    executor: Option<&Arc<Executor>>,
) -> ((Option<usize>, usize), SessionOutcome, Vec<WorkerSummary>) {
    let start = Instant::now();
    let fixed = plan.pebbles.is_some();
    let run = MinimizeContext {
        base: plan.base,
        per_query: if fixed {
            plan.base.timeout
        } else {
            Some(plan.per_query)
        },
        window: plan.pebbles.map(|p| (p, p)),
        schedule: plan.budget_schedule,
        incremental: plan.incremental && !fixed,
        cancel: cancel.cloned(),
        events: events.clone(),
        retry: plan.retry,
        ..MinimizeContext::default()
    };
    let describe: fn(&MinimizeConfig) -> String = if fixed {
        |config| describe_options(&config.base)
    } else {
        describe_minimize_config
    };
    // A fixed budget's one probe proves nothing below the budget, so it
    // certifies its strategy's own budget over the structural floor.
    let answer = |(minimum, outcome), rows| {
        let floor = budget_window(dag, plan.base.encoding.weighted).0;
        ((minimum, floor), SessionOutcome::Single(outcome), rows)
    };
    match plan.engine {
        Engine::Single | Engine::MinimizeFresh | Engine::MinimizeIncremental => {
            let config = MinimizeConfig {
                base: plan.base,
                schedule: plan.budget_schedule,
            };
            let result = run_minimize_with_context(dag, run);
            let row = summarize(
                describe(&config),
                &result,
                result.best.is_some(),
                start.elapsed(),
            );
            if fixed {
                return answer(fixed_outcome([&result]), vec![row]);
            }
            let certified = (result.best.as_ref().map(|&(p, _)| p), result.floor);
            (certified, SessionOutcome::Minimize(result), vec![row])
        }
        Engine::SinglePortfolio | Engine::MinimizePortfolio | Engine::MinimizePortfolioShared => {
            let mut configs = if fixed {
                default_portfolio(plan.base, plan.workers)
                    .into_iter()
                    .map(|base| MinimizeConfig {
                        base,
                        schedule: plan.budget_schedule,
                    })
                    .collect()
            } else {
                default_minimize_portfolio(plan.base, plan.workers)
            };
            // Jitter needs no pool, only distinct worker configs, so an
            // isolated race diversifies too.
            if plan.diversify {
                diversify_minimize_portfolio(&mut configs);
            }
            let shared = plan.engine == Engine::MinimizePortfolioShared;
            let race = on_pool(executor, configs.len(), |executor| {
                race_minimize(dag, configs, run, shared, executor)
            });
            let rows = race_rows(&race.workers, race.winner, describe);
            if fixed {
                let winner = race.winner.map(|index| &race.workers[index]);
                let runs = winner.into_iter().chain(&race.workers).map(|w| &w.result);
                return answer(fixed_outcome(runs), rows);
            }
            let certified = (race.best.as_ref().map(|&(p, _)| p), race.sharing.floor);
            (certified, SessionOutcome::MinimizePortfolio(race), rows)
        }
        Engine::Frontier => {
            let (result, points) = frontier_on(dag, run);
            let minimum = points
                .iter()
                .filter(|point| point.strategy.is_some())
                .map(|point| point.pebbles)
                .min();
            let row = summarize(
                format!("frontier/{}", describe_options(&plan.base)),
                &result,
                minimum.is_some(),
                start.elapsed(),
            );
            let certified = (minimum, result.floor);
            (certified, SessionOutcome::Frontier(points), vec![row])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::paper_example;
    use revpebble_graph::{Dag, Op};
    use revpebble_sat::faults::{FaultKind, FaultPlan};

    #[test]
    fn plan_names_every_engine() {
        let dag = paper_example();
        let engine = |session: PebblingSession<'_>| session.plan().expect("valid").engine;
        assert_eq!(
            engine(PebblingSession::new(&dag).pebbles(4)),
            Engine::Single
        );
        assert_eq!(
            engine(PebblingSession::new(&dag).pebbles(4).portfolio(2)),
            Engine::SinglePortfolio
        );
        assert_eq!(
            engine(PebblingSession::new(&dag).minimize()),
            Engine::MinimizeIncremental
        );
        assert_eq!(
            engine(PebblingSession::new(&dag).minimize().incremental(false)),
            Engine::MinimizeFresh
        );
        assert_eq!(
            engine(PebblingSession::new(&dag).minimize().portfolio(2)),
            Engine::MinimizePortfolio
        );
        assert_eq!(
            engine(
                PebblingSession::new(&dag)
                    .minimize()
                    .portfolio(2)
                    .share_clauses()
            ),
            Engine::MinimizePortfolioShared
        );
        assert_eq!(
            engine(PebblingSession::new(&dag).sweep_frontier()),
            Engine::Frontier
        );
    }

    #[test]
    fn diversify_folds_into_the_share_plan() {
        let dag = paper_example();
        let plan = PebblingSession::new(&dag)
            .minimize()
            .portfolio(2)
            .diversify()
            .plan()
            .expect("valid");
        assert!(plan.diversify);
        assert_eq!(
            plan.engine,
            Engine::MinimizePortfolio,
            "diversify alone shares nothing"
        );
        let plan = PebblingSession::new(&dag)
            .minimize()
            .portfolio(2)
            .share_clauses()
            .diversify()
            .plan()
            .expect("valid");
        assert_eq!(plan.engine, Engine::MinimizePortfolioShared);
        assert!(plan.diversify);
    }

    #[test]
    fn report_json_survives_hostile_worker_configs() {
        use revpebble_graph::json::parse_json;
        let hostile = "cfg \"quoted\" back\\slash\nnewline\ttab \u{1} ctrl";
        let report = Report {
            engine: Engine::Single,
            minimum: Some(4),
            floor: 2,
            workers: vec![WorkerSummary {
                config: hostile.to_owned(),
                probes: 1,
                queries: 1,
                conflicts: 0,
                imported: 0,
                exported: 0,
                cancelled: false,
                winner: true,
                elapsed: Duration::from_millis(3),
                failed: false,
                retries: 0,
            }],
            events_emitted: 0,
            stop_reason: None,
            retries: 0,
            cache_hits: 0,
            cache_misses: 0,
            wall: Duration::from_millis(5),
            outcome: SessionOutcome::Aborted,
        };
        let value = parse_json(&report.to_json()).expect("hostile config must stay valid JSON");
        let workers = value.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers[0].get("config").unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn a_spawned_session_token_counts_every_worker_conflict() {
        let dag = paper_example();
        let sessions = [
            PebblingSession::new(&dag).minimize(),
            PebblingSession::new(&dag).minimize().incremental(false),
            PebblingSession::new(&dag).minimize().portfolio(2),
            PebblingSession::new(&dag).pebbles(4).portfolio(2),
            PebblingSession::new(&dag).sweep_frontier(),
            PebblingSession::new(&dag)
                .sweep_frontier()
                .incremental(false),
        ];
        for session in sessions {
            // A fresh runtime each time: a cache hit pays no conflicts.
            let runtime = SessionRuntime::new(2).expect("workers");
            let handle = runtime
                .spawn(session.max_steps(48), runtime.root().child())
                .expect("valid configuration");
            let token = handle.token.clone();
            let report = handle.join();
            let conflicts: u64 = report.workers.iter().map(|w| w.conflicts).sum();
            assert!(conflicts > 0, "{}: no conflicts", report.engine);
            assert_eq!(token.used(), conflicts, "{}", report.engine);
        }
    }

    /// A handle over a hand-made job: `token` plays the session's quota
    /// child and the returned sender the job's report channel.
    fn handle_over(token: &CancelToken, grace: Duration) -> (SessionHandle, mpsc::Sender<Report>) {
        let (report_tx, receiver) = mpsc::channel();
        let handle = SessionHandle {
            token: token.clone(),
            receiver,
            report: None,
            engine: Engine::Single,
            detach_grace: grace,
            started: Instant::now(),
        };
        (handle, report_tx)
    }

    #[test]
    fn join_waits_out_a_fired_job_whose_conflicts_keep_coming() {
        let dag = paper_example();
        let own = PebblingSession::new(&dag)
            .pebbles(4)
            .run()
            .expect("valid configuration");
        let token = CancelToken::new().child_with_limits(None, Some(u64::MAX));
        let grace = Duration::from_millis(250);
        let (handle, report_tx) = handle_over(&token, grace);
        token.cancel();
        // The job outlives four grace periods after its token fired,
        // but pays a conflict every millisecond, so it is slow, not
        // wedged.
        let job = std::thread::spawn(move || {
            let until = Instant::now() + 4 * grace;
            while Instant::now() < until {
                token.charge(1);
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = report_tx.send(own);
        });
        let report = handle.join();
        job.join().expect("the job thread");
        assert_eq!(report.stop_reason, None, "{report:?}");
        assert_eq!(report.minimum, Some(4));
        assert_eq!(report.workers.len(), 1, "the job's own report");
    }

    #[test]
    fn join_detaches_from_a_fired_job_whose_count_stands_still() {
        let token = CancelToken::new().child_with_limits(None, Some(u64::MAX));
        // The sender stays alive: the job is wedged, not dead.
        let (handle, _report_tx) = handle_over(&token, Duration::from_millis(250));
        token.charge(3);
        token.cancel();
        let joined_at = Instant::now();
        let report = handle.join();
        assert_eq!(report.stop_reason, Some(StopReason::Detached));
        assert!(joined_at.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn runtime_spawns_share_one_result_cache() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(2).expect("workers");
        for _ in 0..2 {
            // A decisive step cap: the budget-3 probe is refuted at once
            // instead of waiting out the default probe timeout.
            let handle = runtime
                .spawn(
                    PebblingSession::new(&dag).minimize().max_steps(60),
                    runtime.root().child(),
                )
                .expect("valid configuration");
            assert_eq!(handle.join().minimum, Some(4));
        }
        assert_eq!(runtime.cache().misses(), 1, "first run solves");
        assert_eq!(runtime.cache().hits(), 1, "second run is served from cache");
    }

    #[test]
    fn invalid_combinations_are_rejected_with_typed_errors() {
        let dag = paper_example();
        let err = |session: PebblingSession<'_>| session.plan().expect_err("invalid");
        assert_eq!(err(PebblingSession::new(&dag)), SessionError::MissingBudget);
        assert_eq!(
            err(PebblingSession::new(&dag).minimize().pebbles(4)),
            SessionError::BudgetWithMinimize { budget: 4 }
        );
        assert_eq!(
            err(PebblingSession::new(&dag).minimize().share_clauses()),
            SessionError::ShareClausesWithoutPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .pebbles(4)
                .portfolio(4)
                .share_clauses()),
            SessionError::ShareClausesWithoutMinimize
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .minimize()
                .portfolio(2)
                .incremental(false)),
            SessionError::FreshPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag).sweep_frontier().minimize()),
            SessionError::FrontierWithMinimize
        );
        assert_eq!(
            err(PebblingSession::new(&dag).sweep_frontier().pebbles(4)),
            SessionError::BudgetWithFrontier { budget: 4 }
        );
        assert_eq!(
            err(PebblingSession::new(&dag).sweep_frontier().portfolio(2)),
            SessionError::FrontierWithPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag).minimize().diversify()),
            SessionError::DiversifyWithoutPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .pebbles(4)
                .portfolio(4)
                .diversify()),
            SessionError::DiversifyWithoutPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag).pebbles(4).max_steps(0)),
            SessionError::ZeroStepCap
        );
        let empty = Dag::new();
        assert_eq!(
            err(PebblingSession::new(&empty).pebbles(1)),
            SessionError::EmptyDag
        );
    }

    #[test]
    fn weighted_budget_out_of_range_is_rejected() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node_weighted("a", Op::Buf, [x], 3).expect("valid");
        dag.mark_output(a);
        let err = PebblingSession::new(&dag)
            .weighted(true)
            .pebbles(99)
            .plan()
            .expect_err("budget exceeds total weight");
        assert_eq!(
            err,
            SessionError::WeightedBudgetOutOfRange {
                budget: 99,
                total_weight: 3
            }
        );
        // In range: fine.
        assert!(PebblingSession::new(&dag)
            .weighted(true)
            .pebbles(3)
            .plan()
            .is_ok());
    }

    #[test]
    fn unpebblable_dag_is_rejected_not_panicked() {
        let mut dag = Dag::new();
        let x = dag.add_input("x");
        let a = dag.add_node("a", Op::Buf, [x]).expect("valid");
        let _ = a; // a is a sink but not marked as an output
        let err = PebblingSession::new(&dag)
            .pebbles(2)
            .plan()
            .expect_err("unmarked sink");
        assert!(matches!(err, SessionError::UnpebblableDag(_)));
        assert!(err.to_string().contains("unfit for pebbling"));
    }

    #[test]
    fn single_run_reports_and_serializes() {
        let dag = paper_example();
        let report = PebblingSession::new(&dag)
            .pebbles(4)
            .run()
            .expect("valid configuration");
        assert_eq!(report.engine, Engine::Single);
        assert_eq!(report.minimum, Some(4));
        assert_eq!(report.workers.len(), 1);
        assert!(report.workers[0].winner);
        // Two probe events + the terminal certification.
        assert_eq!(report.events_emitted, 3);
        let strategy = report.strategy().expect("solved");
        strategy.validate(&dag, Some(4)).expect("valid");
        let json = report.to_json();
        for key in [
            "\"engine\":\"single\"",
            "\"minimum\":4",
            "\"floor\":",
            "\"workers\":[",
            "\"events_emitted\":3",
            "\"strategy\":{\"steps\":12",
        ] {
            assert!(json.contains(key), "{key} missing in {json}");
        }
    }

    #[test]
    fn minimize_run_streams_probe_events_live() {
        use std::sync::{Arc, Mutex};
        let dag = paper_example();
        let events: Arc<Mutex<Vec<ProbeEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let report = PebblingSession::new(&dag)
            .minimize()
            .max_steps(60)
            .per_query_timeout(Duration::from_secs(30))
            .on_event(move |event| sink.lock().expect("sink").push(event))
            .run()
            .expect("valid configuration");
        assert_eq!(report.minimum, Some(4));
        assert_eq!(report.floor, 4, "the budget-3 refutation certifies 4");
        let events = events.lock().expect("sink");
        assert_eq!(events.len() as u64, report.events_emitted);
        assert!(matches!(
            events.last(),
            Some(ProbeEvent::BudgetCertified { minimum: Some(4) })
        ));
        let starts = events
            .iter()
            .filter(|e| matches!(e, ProbeEvent::ProbeStarted { .. }))
            .count();
        assert_eq!(starts, report.probes());
    }

    #[test]
    fn frontier_run_reports_points_and_minimum() {
        let dag = paper_example();
        let report = PebblingSession::new(&dag)
            .sweep_frontier()
            .max_steps(60)
            .per_query_timeout(Duration::from_secs(30))
            .run()
            .expect("valid configuration");
        assert_eq!(report.engine, Engine::Frontier);
        assert_eq!(report.minimum, Some(4));
        let SessionOutcome::Frontier(points) = &report.outcome else {
            panic!("frontier outcome expected");
        };
        assert!(points.len() >= 3, "budgets 3..=6 probed: {points:?}");
        assert!(report.to_json().contains("\"frontier\":["));
    }

    /// `dag` with node `i` weighing `weights[i]`.
    fn reweighted(dag: &Dag, weights: &[u32]) -> Dag {
        let mut out = Dag::new();
        for name in dag.input_names() {
            out.add_input(name.clone());
        }
        for (v, &weight) in dag.node_ids().zip(weights) {
            let node = dag.node(v);
            out.add_node_weighted(node.name.clone(), node.op, node.fanins.clone(), weight)
                .expect("same shape as a valid DAG");
        }
        for &output in dag.outputs() {
            out.mark_output(output);
        }
        out
    }

    #[test]
    fn a_weighted_frontier_sweeps_weight_units() {
        // Every node of the paper example weighs 2 (total 12): the sweep
        // must probe weight budgets 12 down to the first failure, not the
        // node-count range 3..=6.
        let dag = reweighted(&paper_example(), &[2; 6]);
        let session = || PebblingSession::new(&dag).weighted(true).max_steps(60);
        let minimize = session().minimize().run().expect("valid configuration");
        assert_eq!(minimize.minimum, Some(8));
        let report = session()
            .sweep_frontier()
            .run()
            .expect("valid configuration");
        assert_eq!(report.minimum, Some(8));
        assert!(
            report
                .to_json()
                .contains("\"frontier\":[[7,null],[8,12],[9,12],[10,10],[11,10],[12,10]]"),
            "{}",
            report.to_json()
        );
    }

    #[test]
    fn errors_render_and_expose_sources() {
        let text = SessionError::ShareClausesWithoutPortfolio.to_string();
        assert!(text.contains("--portfolio"), "{text}");
        let err = SessionError::UnpebblableDag(DagError::UnmarkedSink {
            node: revpebble_graph::NodeId::from_index(0),
        });
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn zero_quota_is_rejected_at_plan_time() {
        let dag = paper_example();
        let err = PebblingSession::new(&dag)
            .pebbles(4)
            .quota(0)
            .plan()
            .expect_err("zero quota");
        assert_eq!(err, SessionError::QuotaExceeded { quota: 0 });
    }

    #[test]
    fn a_fired_token_ends_the_run_without_certification() {
        let dag = paper_example();
        let token = CancelToken::new();
        token.cancel();
        let report = PebblingSession::new(&dag)
            .minimize()
            .cancel_token(token)
            .run()
            .expect("valid configuration");
        assert_eq!(report.stop_reason, Some(StopReason::Cancelled));
        assert_eq!(report.minimum, None, "nothing certified under a dead token");
    }

    #[test]
    fn an_exhausted_quota_names_itself_in_the_report() {
        let dag = paper_example();
        let sessions = [
            PebblingSession::new(&dag).minimize().max_steps(60),
            PebblingSession::new(&dag).pebbles(4),
        ];
        for session in sessions {
            let report = session.quota(1).run().expect("valid configuration");
            assert_eq!(report.stop_reason, Some(StopReason::QuotaExhausted));
            assert!(report.to_json().contains("\"stop_reason\":\"quota\""));
            if let SessionOutcome::Single(outcome) = &report.outcome {
                assert!(
                    matches!(outcome, PebbleOutcome::Timeout { .. }),
                    "{outcome:?}"
                );
            }
        }
    }

    #[test]
    fn a_fixed_budget_refuted_at_every_step_count_hits_the_step_cap() {
        // hop needs 6 pebbles; 5 clears the structural bound of 4, so every
        // K up to the cap is refuted.
        let dag = revpebble_graph::builtin_dag("hop").expect("a built-in design");
        let cap = 4 * dag.num_nodes() + 20;
        let report = PebblingSession::new(&dag)
            .pebbles(5)
            .max_steps(cap)
            .run()
            .expect("valid configuration");
        assert!(
            matches!(
                report.outcome,
                SessionOutcome::Single(PebbleOutcome::StepLimit { steps_checked }) if steps_checked == cap
            ),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.stop_reason, None);
    }

    #[test]
    fn a_fixed_budget_probe_runs_under_the_per_query_bound() {
        let dag = paper_example();
        let t = Duration::from_millis(250);
        let plan = |session: PebblingSession<'_>| session.plan().expect("valid").base.timeout;
        assert_eq!(
            plan(PebblingSession::new(&dag).pebbles(4).per_query_timeout(t)),
            Some(t)
        );
        // The smaller bound wins; with neither set the solve is unbounded.
        assert_eq!(
            plan(
                PebblingSession::new(&dag)
                    .pebbles(4)
                    .timeout(Duration::from_secs(1))
                    .per_query_timeout(t)
            ),
            Some(t)
        );
        assert_eq!(plan(PebblingSession::new(&dag).pebbles(4)), None);
        // A minimize search keeps the bound per probe.
        assert_eq!(
            plan(PebblingSession::new(&dag).minimize().per_query_timeout(t)),
            None
        );
    }

    #[test]
    fn a_runtime_quota_never_widens_a_tighter_session_quota() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1)
            .expect("one worker")
            .per_session_quota(5_000_000);
        let session = runtime
            .spawn(
                PebblingSession::new(&dag).pebbles(4).quota(1),
                runtime.root().child(),
            )
            .expect("valid configuration")
            .join();
        assert_eq!(session.stop_reason, Some(StopReason::QuotaExhausted));
        assert!(session.to_json().contains("\"stop_reason\":\"quota\""));
    }

    #[test]
    fn a_spawned_session_runs_off_thread() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(2).expect("workers");
        let mut handle = runtime
            .spawn(
                PebblingSession::new(&dag).pebbles(4),
                runtime.root().child(),
            )
            .expect("valid configuration");
        // try_report never blocks; eventually the report lands.
        let report = loop {
            if handle.try_report().is_some() {
                break handle.join();
            }
            std::thread::yield_now();
        };
        assert_eq!(report.minimum, Some(4));
        assert!(report.stop_reason.is_none());
    }

    #[test]
    fn a_cancelled_handle_joins_to_a_partial_report() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1).expect("one worker");
        let handle = runtime
            .spawn(
                PebblingSession::new(&dag).minimize(),
                runtime.root().child(),
            )
            .expect("valid configuration");
        handle.cancel();
        let report = handle.join();
        // The token may have fired before the first probe or mid-run;
        // either way the join returns and names the cancellation —
        // unless the session already finished, which tiny instances may.
        if let Some(reason) = report.stop_reason {
            assert_eq!(reason, StopReason::Cancelled);
        }
    }

    #[test]
    fn a_repeated_dag_is_served_from_the_result_cache() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1).expect("one worker");
        // Spawned and joined in turn, so each lookup sees every earlier
        // insert.
        let run = |session: PebblingSession<'_>| {
            runtime
                .spawn(session, runtime.root().child())
                .expect("valid configuration")
                .join()
        };
        // A decisive step cap: the budget-3 probe is refuted at once
        // instead of waiting out the default probe timeout.
        let first = run(PebblingSession::new(&dag).minimize().max_steps(60));
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        let again = run(PebblingSession::new(&dag).minimize().max_steps(60));
        assert_eq!((again.cache_hits, again.cache_misses), (1, 0));
        assert_eq!(again.minimum, first.minimum);
        assert!(again.workers.is_empty(), "no solver ran on the hit");
        // A different plan on the same DAG is a different key.
        let other = run(PebblingSession::new(&dag).pebbles(4));
        assert_eq!((other.cache_hits, other.cache_misses), (0, 1));
        let cache = runtime.cache();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    /// `json` with its `wall_s` clock masked.
    fn mask_wall(json: &str) -> String {
        let start = json.find("\"wall_s\":").expect("a wall clock") + "\"wall_s\":".len();
        let end = start + json[start..].find([',', '}']).expect("a delimiter");
        format!("{}_{}", &json[..start], &json[end..])
    }

    #[test]
    fn a_cache_hit_is_answered_at_spawn_without_a_pool_thread() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1).expect("one worker");
        let spawn = |session: PebblingSession<'_>| {
            runtime
                .spawn(session, runtime.root().child())
                .expect("valid configuration")
        };
        let question = || PebblingSession::new(&dag).pebbles(4);
        // Both repeats queue behind a session that holds the only worker
        // until `release` drops (its callback blocks on the first
        // event), so the twin misses at spawn and its job finds the
        // first one's answer.
        let (release, gate) = mpsc::channel::<()>();
        let held = spawn(PebblingSession::new(&dag).pebbles(5).on_event(move |_| {
            let _ = gate.recv();
        }));
        let first = spawn(question());
        let mut twin = spawn(question());
        assert!(twin.try_report().is_none(), "queued behind the held worker");
        drop(release);
        assert_eq!(held.join().stop_reason, None);
        assert_eq!(first.join().cache_misses, 1);
        let job_time = twin.join();
        assert_eq!((job_time.cache_hits, job_time.cache_misses), (1, 0));

        // Wedge the only worker: a question of its own, whose fault plan
        // sleeps at `exec.job` before the session solves. The third
        // repeat needs no worker.
        let faults = FaultPlan::inject_with_delay(
            FaultSite::ExecJob,
            FaultKind::Delay,
            0,
            Duration::from_millis(500),
        );
        let sat = revpebble_sat::SolverConfig {
            faults,
            ..Default::default()
        };
        let wedge = spawn(
            PebblingSession::new(&dag)
                .pebbles(6)
                .solver_options(SolverOptions {
                    sat,
                    ..Default::default()
                }),
        );
        let mut third = spawn(question());
        assert!(third.try_report().is_some(), "answered at spawn");
        // The report is held, so this join returns at once.
        let at_spawn = third.join();
        assert_eq!((at_spawn.cache_hits, at_spawn.cache_misses), (1, 0));
        assert!(at_spawn.workers.is_empty(), "no solver ran");
        assert_eq!(at_spawn.minimum, Some(4));
        assert_eq!(
            mask_wall(&at_spawn.to_json()),
            mask_wall(&job_time.to_json())
        );
        assert_eq!(wedge.join().stop_reason, None);
        assert_eq!(faults.injected(), 1, "the wedge slept");
        // Every session counted once: the held, first and wedged
        // sessions solved, the twin and the third hit.
        let cache = runtime.cache();
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    #[test]
    fn a_spawn_time_hit_still_certifies_to_its_callback() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1).expect("one worker");
        let spawn = |session: PebblingSession<'_>| {
            runtime
                .spawn(session, runtime.root().child())
                .expect("valid configuration")
        };
        spawn(PebblingSession::new(&dag).pebbles(4)).join();
        let (event_tx, event_rx) = mpsc::channel();
        let report = spawn(
            PebblingSession::new(&dag)
                .pebbles(4)
                .on_event(move |event| {
                    let _ = event_tx.send(event);
                }),
        )
        .join();
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.events_emitted, 1);
        assert_eq!(
            event_rx.try_iter().collect::<Vec<_>>(),
            [ProbeEvent::BudgetCertified { minimum: Some(4) }]
        );
        // A callback that panics is contained, not unwound out of spawn.
        let panicked = spawn(
            PebblingSession::new(&dag)
                .pebbles(4)
                .on_event(|_| panic!("callback panics on the terminal event")),
        )
        .join();
        assert_eq!(
            panicked.stop_reason,
            Some(StopReason::WorkerPanicked { count: 1 })
        );
        assert_eq!(runtime.cache().hits(), 2);
    }

    #[test]
    fn a_zero_worker_batch_is_rejected() {
        match SessionRuntime::new(0) {
            Err(err) => assert_eq!(err, SessionError::ZeroWorkerPool),
            Ok(_) => panic!("zero workers must be rejected"),
        }
    }

    #[test]
    fn batch_runs_three_sessions_on_two_workers_with_quotas_and_cache() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(2)
            .expect("two workers")
            .per_session_quota(5_000_000);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                runtime
                    .spawn(
                        PebblingSession::new(&dag).pebbles(4),
                        runtime.root().child(),
                    )
                    .expect("valid configuration")
            })
            .collect();
        let reports: Vec<Report> = handles.into_iter().map(SessionHandle::join).collect();
        assert_eq!(reports.len(), 3);
        for (index, session) in reports.iter().enumerate() {
            assert_eq!(session.minimum, Some(4), "session {index}");
            assert!(session.stop_reason.is_none(), "session {index}");
        }
        // Two workers run the first two concurrently; the third only
        // starts after one of them finished and published its result, so
        // the repeated instance is served from the cache deterministically.
        let (hits, misses) = (runtime.cache().hits(), runtime.cache().misses());
        assert_eq!(hits + misses, 3);
        assert!(
            hits >= 1,
            "repeat served from cache: hits={hits} misses={misses}"
        );
    }

    #[test]
    fn cancel_all_stops_a_whole_batch() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(1).expect("one worker");
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let session = PebblingSession::new(&dag)
                    .minimize()
                    .per_query_timeout(Duration::from_secs(30));
                runtime
                    .spawn(session, runtime.root().child())
                    .expect("valid configuration")
            })
            .collect();
        runtime.root().cancel();
        let reports: Vec<Report> = handles.into_iter().map(SessionHandle::join).collect();
        assert_eq!(reports.len(), 2, "partial reports still join");
    }
}
