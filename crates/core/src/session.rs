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
//! Beyond the one-shot [`run`](PebblingSession::run), sessions are
//! first-class *jobs*:
//!
//! - [`PebblingSession::cancel_token`] installs an ambient
//!   [`CancelToken`] every solver in the session polls;
//!   [`PebblingSession::quota`] caps the session's total SAT conflicts.
//!   A fired token ends the run promptly with a partial [`Report`] whose
//!   [`stop_reason`](Report::stop_reason) names the cause.
//! - [`PebblingSession::spawn_on`] submits the whole session to a shared
//!   [`Executor`] and returns a [`SessionHandle`] (join / cancel /
//!   try_report) instead of blocking.
//! - [`BatchSession`] serves many DAGs over one worker pool with
//!   per-session conflict quotas and a shared [`ResultCache`] keyed by
//!   [`Dag::canonical_fingerprint`], so repeated instances skip the
//!   solver entirely.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use revpebble_graph::{Dag, DagError};
use revpebble_sat::faults::FaultSite;
use revpebble_sat::{CancelReason, CancelToken, Heartbeat, SolverConfig, SolverStats};

use revpebble_sat::card::CardEncoding;

use crate::bounds::{pebble_lower_bound, weighted_pebble_lower_bound};
use crate::cache::{CacheKey, CachedReport, ResultCache};
use crate::encoding::MoveMode;
use crate::exec::Executor;
use crate::frontier::{frontier_on, FrontierOptions, FrontierPoint};
use crate::portfolio::{
    default_minimize_portfolio, default_portfolio, describe_minimize_config, describe_options,
    race_fixed, race_minimize, MinimizeConfig, MinimizePortfolioOutcome, PortfolioOutcome,
    RaceContext, RaceWorker, ShareOptions,
};
use crate::solver::{
    run_minimize_with_context, solve_fixed, BudgetSchedule, MinimizeContext, MinimizeResult,
    PebbleOutcome, PebbleRun, RetryPolicy, SolverOptions, StepSchedule,
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

    /// Resolves probe `probe` of `worker` at `budget`: solved when the
    /// probe certified `achieved`, refuted otherwise.
    pub(crate) fn resolved(
        &self,
        worker: usize,
        probe: usize,
        budget: usize,
        achieved: Option<usize>,
    ) {
        self.send(match achieved {
            Some(achieved) => ProbeEvent::ProbeSolved {
                worker,
                probe,
                budget,
                achieved,
            },
            None => ProbeEvent::ProbeRefuted {
                worker,
                probe,
                budget,
            },
        });
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
    /// A probe was refuted or exhausted its time/step budget.
    ProbeRefuted {
        /// Worker index.
        worker: usize,
        /// The worker's own probe counter.
        probe: usize,
        /// The pebble budget that was probed.
        budget: usize,
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
            } => write!(f, "worker {worker} probe {probe}: budget {budget} refuted"),
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
    /// probes a whole budget range (use
    /// [`PebblingSession::frontier_range`] instead).
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
    /// One fixed-budget search on one thread.
    Single,
    /// A fixed-budget race over diverse solver configurations.
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
    /// from it: its token had fired but its heartbeat stayed still for
    /// the whole detach grace period.
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

    /// Whether a [`BatchSession`] governed by `policy` should re-run a
    /// session that stopped for this reason. Token-driven stops
    /// (cancel, deadline, quota) are deliberate and deterministic —
    /// never retried; panics and detaches are environmental and retry
    /// when the policy opts in.
    fn retryable_under(&self, policy: &RetryPolicy) -> bool {
        match self {
            StopReason::Cancelled | StopReason::Deadline | StopReason::QuotaExhausted => false,
            StopReason::WorkerPanicked { .. } | StopReason::Detached => policy.retry_panicked,
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
    /// What the cooperative portfolio shares.
    pub share: ShareOptions,
    /// Whether minimize probes reuse one assumption-bounded instance.
    pub incremental: bool,
    /// Budget range of a frontier sweep (`None` = structural bounds).
    pub frontier_range: (Option<usize>, Option<usize>),
    /// How transiently failed probes and batch sessions are re-run.
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
    /// [`Engine::Single`]: the raw outcome.
    Single(PebbleOutcome),
    /// [`Engine::SinglePortfolio`]: the raw race outcome.
    Portfolio(PortfolioOutcome),
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
    /// relative for minimize engines (see [`crate::sharing`]), the
    /// structural lower bound otherwise.
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
    /// Probe and session attempts re-run after transient failures,
    /// summed across workers (plus batch-level re-runs when the report
    /// comes out of a [`BatchSession`]).
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
            SessionOutcome::Portfolio(outcome) => outcome.outcome.strategy(),
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
            SessionOutcome::Portfolio(outcome) => outcome.outcome.into_strategy(),
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
    /// Keys: `engine`, `minimum` (number or `null`), `floor`, `workers`
    /// (array of per-worker objects), `events_emitted`, `probes`,
    /// `strategy` (object or `null`), and for frontier runs `frontier`.
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
    share: Option<ShareOptions>,
    diversify: Option<bool>,
    per_query: Option<Duration>,
    frontier_range: (Option<usize>, Option<usize>),
    cancel: Option<CancelToken>,
    quota: Option<u64>,
    retry: Option<RetryPolicy>,
    cache: Option<Arc<ResultCache>>,
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
            .field("share", &self.share)
            .field("per_query", &self.per_query)
            .field("cancel", &self.cancel)
            .field("quota", &self.quota)
            .field("retry", &self.retry)
            .field("cache", &self.cache.is_some())
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
            share: None,
            diversify: None,
            per_query: None,
            frontier_range: (None, None),
            cancel: None,
            quota: None,
            retry: None,
            cache: None,
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

    /// Sweep the pebble/step trade-off frontier: probe every budget in
    /// [`frontier_range`](Self::frontier_range) (default: structural
    /// bounds) and report the best step count per feasible budget.
    pub fn sweep_frontier(mut self) -> Self {
        self.frontier = true;
        self
    }

    /// Restricts a frontier sweep to `[min, max]` budgets (either side
    /// `None` = the structural default).
    pub fn frontier_range(mut self, min: Option<usize>, max: Option<usize>) -> Self {
        self.frontier_range = (min, max);
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
    /// fresh-solver-per-probe methodology.
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = Some(incremental);
        self
    }

    /// Shorthand for [`incremental(false)`](Self::incremental): rebuild
    /// the encoding for every probe, as the paper's Table I runs did.
    pub fn fresh_per_probe(self) -> Self {
        self.incremental(false)
    }

    /// Race `n` workers (`0` = one per available core): diverse solver
    /// configurations for a fixed budget, incremental budget schedules
    /// for a minimize search.
    pub fn portfolio(mut self, n: usize) -> Self {
        self.portfolio = Some(n);
        self
    }

    /// Makes a minimize portfolio cooperative: workers exchange short
    /// learnt clauses and certified refutations per `share`. Requires
    /// [`minimize`](Self::minimize) + [`portfolio`](Self::portfolio).
    pub fn share_clauses(mut self, share: ShareOptions) -> Self {
        self.share = Some(share);
        self
    }

    /// Jitters the CDCL heuristics of every minimize-portfolio worker but
    /// the first (HordeSat-style diversification: per-worker RNG seeds,
    /// restart-interval jitter, VSIDS-decay jitter, polarity inversion,
    /// variable-bump noise — see
    /// [`diversify_minimize_portfolio`](crate::portfolio::diversify_minimize_portfolio)).
    /// Works with or without [`share_clauses`](Self::share_clauses);
    /// requires [`minimize`](Self::minimize) +
    /// [`portfolio`](Self::portfolio). Overrides the
    /// [`ShareOptions::diversify`] flag of any options passed to
    /// `share_clauses`.
    pub fn diversify(mut self, diversify: bool) -> Self {
        self.diversify = Some(diversify);
        self
    }

    /// Wall-clock budget per minimize probe / frontier point (default
    /// 10 s, as the CLI uses).
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

    /// Cardinality encoding for the per-step pebble bound.
    pub fn card_encoding(mut self, encoding: CardEncoding) -> Self {
        self.base.encoding.card_encoding = encoding;
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

    /// Configuration of the underlying CDCL solver.
    pub fn solver_config(mut self, config: SolverConfig) -> Self {
        self.base.sat = config;
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

    /// Installs a full [`RetryPolicy`]: transiently failed minimize
    /// probes re-run (with the monotonicity table intact) after a
    /// deterministic exponential backoff, and a [`BatchSession`]
    /// re-submits sessions that stopped for a retryable reason.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Convenience for [`retry_policy`](Self::retry_policy): allow up
    /// to `extra` re-runs on top of the first attempt (so `retries(0)`
    /// is the default fail-fast behavior), including after worker
    /// panics.
    pub fn retries(self, extra: u32) -> Self {
        self.retry_policy(RetryPolicy::attempts(extra.saturating_add(1)))
    }

    /// Installs a shared [`ResultCache`]: before solving, the session
    /// looks itself up under (DAG fingerprint × plan hash) and returns
    /// the cached answer on a hit; after an uncancelled run, it inserts
    /// its result. Without a cache, behavior is bit-identical to older
    /// builds.
    pub fn result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs this session's portfolio / frontier fan-out as jobs on a
    /// shared [`Executor`] instead of private per-engine worker pools.
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
            if self.share.is_some() {
                return Err(SessionError::ShareClausesWithoutMinimize);
            }
            if self.diversify == Some(true) {
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
                    if self.share.is_some() {
                        Engine::MinimizePortfolioShared
                    } else {
                        Engine::MinimizePortfolio
                    }
                }
                None => {
                    if self.share.is_some() {
                        return Err(SessionError::ShareClausesWithoutPortfolio);
                    }
                    if self.diversify == Some(true) {
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
            if self.share.is_some() {
                return Err(SessionError::ShareClausesWithoutMinimize);
            }
            if self.diversify == Some(true) {
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
        Ok(SessionPlan {
            engine,
            base: self.base,
            per_query: self.per_query.unwrap_or(Duration::from_secs(10)),
            budget_schedule: self.budget_schedule,
            pebbles: self.pebbles,
            workers: self.portfolio.unwrap_or(0),
            share: {
                let mut share = self.share.unwrap_or_else(ShareOptions::isolated);
                if let Some(diversify) = self.diversify {
                    share.diversify = diversify;
                }
                share
            },
            incremental: self.incremental.unwrap_or(true),
            frontier_range: self.frontier_range,
            retry: self.retry.unwrap_or_default(),
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
            self.cache.clone(),
            self.executor.as_ref(),
            None,
        ))
    }

    /// Validates ([`plan`](Self::plan)), clones the DAG into an owned
    /// job, submits the whole session to `executor` and returns a
    /// non-blocking [`SessionHandle`] immediately. The session's engines
    /// fan their own sub-jobs onto the same pool (workers help while
    /// waiting, so nested fan-out cannot deadlock the pool).
    pub fn spawn_on(mut self, executor: &Arc<Executor>) -> Result<SessionHandle, SessionError> {
        let plan = self.plan()?;
        // The handle always has a token to cancel through, even when the
        // builder composed none.
        let token = self.compose_token().unwrap_or_default();
        let engine = plan.engine;
        let callback = self.on_event.take();
        let cache = self.cache.clone();
        let dag = Arc::new(self.dag.clone());
        let job_executor = Arc::clone(executor);
        let job_token = token.clone();
        let heartbeat = Heartbeat::new();
        let job_heartbeat = heartbeat.clone();
        let (report_tx, report_rx) = mpsc::channel();
        executor.submit(move || {
            // Fail point `exec.job`: the whole session is one executor
            // job. A transient failure here degrades to cancelling the
            // session's own token.
            if plan
                .base
                .sat
                .faults
                .trip(FaultSite::ExecJob, Some(&job_token))
            {
                job_token.cancel();
            }
            let report = run_with_runtime(
                &dag,
                &plan,
                callback,
                Some(job_token),
                cache,
                Some(&job_executor),
                Some(job_heartbeat),
            );
            let _ = report_tx.send(report);
        });
        Ok(SessionHandle {
            token,
            receiver: report_rx,
            report: None,
            engine,
            heartbeat,
            detach_grace: Duration::from_secs(5),
            started: Instant::now(),
        })
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

/// The unified `(minimum, floor)` pair for a finished engine run.
fn certified(dag: &Dag, plan: &SessionPlan, outcome: &SessionOutcome) -> (Option<usize>, usize) {
    let structural = if plan.base.encoding.weighted {
        weighted_pebble_lower_bound(dag)
    } else {
        pebble_lower_bound(dag)
    };
    let achieved =
        |strategy: &Strategy| achieved_budget(dag, plan.base.encoding.weighted, strategy);
    match outcome {
        SessionOutcome::Single(outcome) => (outcome.strategy().map(achieved), structural),
        SessionOutcome::Portfolio(outcome) => {
            (outcome.outcome.strategy().map(achieved), structural)
        }
        SessionOutcome::Minimize(result) => (result.best.as_ref().map(|&(p, _)| p), result.floor),
        SessionOutcome::MinimizePortfolio(outcome) => (
            outcome.best.as_ref().map(|&(p, _)| p),
            outcome.sharing.floor,
        ),
        SessionOutcome::Frontier(points) => (
            points
                .iter()
                .filter(|point| point.strategy.is_some())
                .map(|point| point.pebbles)
                .min(),
            structural,
        ),
        // Nothing certified beyond what the DAG's structure guarantees.
        SessionOutcome::Aborted => (None, structural),
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

/// The one engine driver behind [`PebblingSession::run`],
/// [`PebblingSession::spawn_on`] and [`BatchSession`]: consult the
/// result cache, drive the planned engine under the composed cancel
/// token, suppress certification when the token fired, and populate the
/// cache on a clean finish.
fn run_with_runtime(
    dag: &Dag,
    plan: &SessionPlan,
    callback: Option<SessionCallback>,
    token: Option<CancelToken>,
    cache: Option<Arc<ResultCache>>,
    executor: Option<&Arc<Executor>>,
    heartbeat: Option<Heartbeat>,
) -> Report {
    let start = Instant::now();
    let events = ProbeEventSender::new(callback);
    let key = cache.as_ref().map(|_| CacheKey {
        fingerprint: dag.canonical_fingerprint(),
        plan: plan_hash(plan),
    });
    if let (Some(cache), Some(key)) = (cache.as_ref(), key.as_ref()) {
        if let Some(hit) = cache.lookup(key) {
            // Served whole from the cache: no solver runs, no workers
            // report; the stream is the terminal event alone.
            events.send(ProbeEvent::BudgetCertified {
                minimum: hit.minimum,
            });
            return Report {
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
            };
        }
    }
    // The engine job is a panic containment boundary: an escaping panic
    // (injected or real) becomes an `Aborted` partial report instead of
    // unwinding through the caller.
    let (engine_result, engine_panicked) = match catch_unwind(AssertUnwindSafe(|| {
        execute_plan(dag, plan, &events, token.as_ref(), executor, heartbeat)
    })) {
        Ok(result) => (result, false),
        Err(_) => ((SessionOutcome::Aborted, Vec::new()), true),
    };
    let (outcome, workers) = engine_result;
    let (minimum, floor) = certified(dag, plan, &outcome);
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
    if let (Some(cache), Some(key)) = (cache.as_ref(), key) {
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

/// A non-blocking handle to a session submitted to an [`Executor`] with
/// [`PebblingSession::spawn_on`]: poll it ([`try_report`](Self::try_report)),
/// stop it ([`cancel`](Self::cancel) — [`join`](Self::join) then returns
/// the partial [`Report`] with its [`stop_reason`](Report::stop_reason)
/// set), or block for the result ([`join`](Self::join)).
#[derive(Debug)]
pub struct SessionHandle {
    token: CancelToken,
    receiver: mpsc::Receiver<Report>,
    report: Option<Report>,
    engine: Engine,
    heartbeat: Heartbeat,
    detach_grace: Duration,
    started: Instant,
}

/// How often [`SessionHandle::join`]'s watchdog wakes to check the
/// session's token and heartbeat while blocking on the report channel.
const WATCHDOG_POLL: Duration = Duration::from_millis(25);

impl SessionHandle {
    /// The session's own [`CancelToken`] (compose children off it, or
    /// inspect the fired reason).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Fires the session's cancel token. The running session stops at
    /// its next poll point and [`join`](Self::join) returns a partial
    /// [`Report`] promptly.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The liveness counter the session's solvers tick once per SAT
    /// conflict — what [`join`](Self::join)'s watchdog watches.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.heartbeat
    }

    /// How long [`join`](Self::join) keeps waiting after the session's
    /// token fired while the heartbeat shows no progress, before it
    /// detaches with a [`StopReason::Detached`] report (default 5s).
    pub fn detach_grace(mut self, grace: Duration) -> Self {
        self.detach_grace = grace;
        self
    }

    /// The finished [`Report`], or `None` while the session still runs.
    /// Never blocks. A session job that died without reporting yields
    /// the same [`StopReason::WorkerPanicked`] placeholder
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
    /// `join` never unwinds and never blocks forever: a session job
    /// that panicked past its own containment yields a
    /// [`StopReason::WorkerPanicked`] placeholder report, and once the
    /// session's token has fired, a watchdog tracks the heartbeat — if
    /// no solver makes progress for the whole detach grace period, the
    /// wedged job is cancelled (again) and *detached*: join returns a
    /// [`StopReason::Detached`] placeholder and the job's thread is
    /// left to die on its own.
    pub fn join(mut self) -> Report {
        if let Some(report) = self.report.take() {
            return report;
        }
        // `None` until the token fires; then the tick count last seen
        // and when it was seen, to measure heartbeat stalls.
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
            let ticks = self.heartbeat.ticks();
            let now = Instant::now();
            match stalled {
                Some((seen, _)) if seen != ticks => stalled = Some((ticks, now)),
                Some((_, since)) if now.duration_since(since) >= self.detach_grace => {
                    // Escalation, step 2: cancelled, and no conflict in
                    // a whole grace period — the job is wedged
                    // somewhere that polls nothing. Detach.
                    return self.placeholder(StopReason::Detached);
                }
                Some(_) => {}
                None => stalled = Some((ticks, now)),
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
/// root [`CancelToken`], a default per-session conflict quota, a
/// [`RetryPolicy`], and a bounded in-flight gauge for backpressure.
///
/// [`BatchSession`] composes one for its submit/finish lifecycle; the
/// `revpebble-serve` daemon shares one runtime across every client
/// connection so repeated DAGs hit one cache and all clients draw from
/// one pool. The runtime is `Clone` — clones share the same pool,
/// cache, token and gauge — so a respawn thunk or a connection handler
/// can own a handle to it.
#[derive(Clone)]
pub struct SessionRuntime {
    executor: Arc<Executor>,
    cache: Arc<ResultCache>,
    root: CancelToken,
    quota: Option<u64>,
    retry: RetryPolicy,
    max_in_flight: Option<usize>,
    in_flight: Arc<std::sync::atomic::AtomicUsize>,
}

impl fmt::Debug for SessionRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionRuntime")
            .field("quota", &self.quota)
            .field("retry", &self.retry)
            .field("max_in_flight", &self.max_in_flight)
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

/// An admission slot handed out by [`SessionRuntime::admit`]; dropping
/// it frees the slot. Hold it for the whole life of the admitted
/// session (spawn through join) so the gauge means "sessions the pool
/// has accepted responsibility for".
#[derive(Debug)]
pub struct AdmitGuard {
    in_flight: Arc<std::sync::atomic::AtomicUsize>,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }
}

impl SessionRuntime {
    /// A runtime served by `workers` pool threads (rejects zero), with
    /// an unbounded admission gauge, no quota and no retries.
    pub fn new(workers: usize) -> Result<Self, SessionError> {
        if workers == 0 {
            return Err(SessionError::ZeroWorkerPool);
        }
        Ok(SessionRuntime {
            executor: Arc::new(Executor::new(workers)),
            cache: Arc::new(ResultCache::default()),
            root: CancelToken::new(),
            quota: None,
            retry: RetryPolicy::none(),
            max_in_flight: None,
            in_flight: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
        })
    }

    /// Caps every session spawned through the runtime at `conflicts`
    /// SAT conflicts (rides the token tree as a quota-carrying child).
    pub fn per_session_quota(mut self, conflicts: u64) -> Self {
        self.quota = Some(conflicts);
        self
    }

    /// The retry policy consumers of the runtime (e.g.
    /// [`BatchSession::finish`]) apply to retryable stops.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Bounds [`admit`](Self::admit) at `sessions` concurrently admitted
    /// sessions; beyond it admission fails fast (the serve daemon turns
    /// that into an `"overloaded"` response instead of queueing without
    /// bound).
    pub fn max_in_flight(mut self, sessions: usize) -> Self {
        self.max_in_flight = Some(sessions);
        self
    }

    /// The shared worker pool.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// The shared result cache.
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.cache
    }

    /// The runtime's root token; children of it are what per-session
    /// tokens should descend from, so [`cancel_all`](Self::cancel_all)
    /// reaches everything.
    pub fn root(&self) -> &CancelToken {
        &self.root
    }

    /// The configured per-session quota, if any.
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }

    /// The configured retry policy.
    pub fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Sessions currently admitted (spawned and not yet released).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Fires the root token: every running and queued session descending
    /// from it stops promptly.
    pub fn cancel_all(&self) {
        self.root.cancel();
    }

    /// Claims an admission slot, or `None` when the runtime is already
    /// at [`max_in_flight`](Self::max_in_flight) — the caller's cue to
    /// shed load *before* spawning.
    pub fn admit(&self) -> Option<AdmitGuard> {
        use std::sync::atomic::Ordering;
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if self.max_in_flight.is_some_and(|max| current >= max) {
                return None;
            }
            match self.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Some(AdmitGuard {
                        in_flight: Arc::clone(&self.in_flight),
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Wires a configured session into the runtime — `token` (a
    /// descendant of [`root`](Self::root)), the shared cache, the
    /// default quota — and hands it to the pool. Validation happens in
    /// [`PebblingSession::spawn_on`], so a bad configuration comes back
    /// as a typed [`SessionError`] without consuming a pool slot.
    pub fn spawn(
        &self,
        session: PebblingSession<'_>,
        token: CancelToken,
    ) -> Result<SessionHandle, SessionError> {
        let mut session = session
            .cancel_token(token)
            .result_cache(Arc::clone(&self.cache));
        if let Some(quota) = self.quota {
            session = session.quota(quota);
        }
        session.spawn_on(&self.executor)
    }
}

/// Many DAGs, one worker pool: sessions submitted here share a
/// fixed-size [`Executor`], a [`ResultCache`] (repeated instances are
/// answered without solving), an optional per-session conflict quota,
/// and one root [`CancelToken`] ([`cancel_all`](Self::cancel_all)).
///
/// ```
/// use revpebble_core::session::BatchSession;
/// use revpebble_graph::generators::paper_example;
///
/// let dag = paper_example();
/// let mut batch = BatchSession::new(2).expect("workers");
/// for name in ["first", "again"] {
///     batch
///         .submit(name, &dag, |session| session.minimize())
///         .expect("valid configuration");
/// }
/// let report = batch.finish();
/// assert_eq!(report.sessions.len(), 2);
/// assert!(report.sessions.iter().all(|(_, r)| r.minimum == Some(4)));
/// ```
pub struct BatchSession {
    runtime: SessionRuntime,
    pending: Vec<PendingSession>,
}

/// One submitted, not-yet-joined batch entry: its handle plus a respawn
/// thunk [`BatchSession::finish`] can call to re-run the whole session
/// when it stops for a retryable reason.
struct PendingSession {
    name: String,
    handle: SessionHandle,
    respawn: Box<dyn Fn() -> Result<SessionHandle, SessionError>>,
}

impl fmt::Debug for BatchSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchSession")
            .field("runtime", &self.runtime)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

/// What [`BatchSession::finish`] returns: per-session reports in submit
/// order plus the shared cache's counters.
#[derive(Debug)]
#[non_exhaustive]
pub struct BatchReport {
    /// `(name, report)` per submitted session, in submit order.
    pub sessions: Vec<(String, Report)>,
    /// Sessions answered from the shared result cache.
    pub cache_hits: u64,
    /// Sessions that had to solve.
    pub cache_misses: u64,
}

impl BatchSession {
    /// A batch served by `workers` pool threads (rejects zero).
    pub fn new(workers: usize) -> Result<Self, SessionError> {
        Ok(Self::on_runtime(SessionRuntime::new(workers)?))
    }

    /// A batch over an existing [`SessionRuntime`] — sessions submitted
    /// here share that runtime's pool, cache, root token, quota and
    /// retry policy with whatever else runs on it.
    pub fn on_runtime(runtime: SessionRuntime) -> Self {
        BatchSession {
            runtime,
            pending: Vec::new(),
        }
    }

    /// Caps every *subsequently* submitted session at `conflicts` SAT
    /// conflicts; an exhausted session reports
    /// [`CancelReason::QuotaExhausted`] instead of starving its batch
    /// neighbors. Zero is rejected at
    /// submit time.
    pub fn per_session_quota(mut self, conflicts: u64) -> Self {
        self.runtime = self.runtime.per_session_quota(conflicts);
        self
    }

    /// Re-runs every *subsequently* submitted session that stops for a
    /// retryable reason (worker panics and watchdog detaches when the
    /// policy opts in — never deliberate cancels, deadlines or quota
    /// trips), waiting out the policy's deterministic exponential
    /// backoff between attempts. Re-runs are counted in each report's
    /// [`Report::retries`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.runtime = self.runtime.retry_policy(policy);
        self
    }

    /// The shared worker pool, e.g. to co-schedule other jobs on it.
    pub fn executor(&self) -> &Arc<Executor> {
        self.runtime.executor()
    }

    /// The underlying runtime (pool, cache, root token).
    pub fn runtime(&self) -> &SessionRuntime {
        &self.runtime
    }

    /// Sessions submitted and not yet joined.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Fires the batch-wide root token: every running and queued session
    /// stops promptly; [`finish`](Self::finish) returns partial reports.
    pub fn cancel_all(&self) {
        self.runtime.cancel_all();
    }

    /// Submits one session on `dag`. `configure` shapes the session
    /// (engine, schedules, observers) on the caller's thread; the batch
    /// then wires in a child of its root token, the per-session quota
    /// and the shared cache, and hands the session to the pool.
    pub fn submit<F>(
        &mut self,
        name: impl Into<String>,
        dag: &Dag,
        configure: F,
    ) -> Result<(), SessionError>
    where
        F: for<'d> Fn(PebblingSession<'d>) -> PebblingSession<'d> + 'static,
    {
        // Everything a re-run needs is owned by the thunk, so `finish`
        // can respawn the session verbatim after a retryable failure.
        let dag = Arc::new(dag.clone());
        let runtime = self.runtime.clone();
        let spawn = move || {
            // A child, not the root itself: cancelling one session's
            // handle must not take the whole batch down with it.
            let token = runtime.root().child();
            runtime.spawn(configure(PebblingSession::new(&dag)), token)
        };
        let handle = spawn()?;
        self.pending.push(PendingSession {
            name: name.into(),
            handle,
            respawn: Box::new(spawn),
        });
        Ok(())
    }

    /// Joins every submitted session, in submit order, and returns the
    /// [`BatchReport`]. Sessions that stopped for a reason the
    /// [`retry_policy`](Self::retry_policy) deems retryable are
    /// respawned (after backoff) up to the policy's attempt cap —
    /// unless the batch root token itself has fired.
    pub fn finish(mut self) -> BatchReport {
        let retry = self.runtime.retry();
        let sessions = self
            .pending
            .drain(..)
            .map(|pending| {
                let PendingSession {
                    name,
                    handle,
                    respawn,
                } = pending;
                let mut report = handle.join();
                let mut retries: u64 = 0;
                let mut attempt: u32 = 1;
                while attempt < retry.max_attempts
                    && self.runtime.root().reason().is_none()
                    && report
                        .stop_reason
                        .as_ref()
                        .is_some_and(|reason| reason.retryable_under(&retry))
                {
                    thread::sleep(retry.backoff_for(attempt));
                    attempt += 1;
                    match respawn() {
                        Ok(handle) => {
                            retries += 1;
                            report = handle.join();
                        }
                        Err(_) => break,
                    }
                }
                report.retries += retries;
                (name, report)
            })
            .collect();
        BatchReport {
            sessions,
            cache_hits: self.runtime.cache().hits(),
            cache_misses: self.runtime.cache().misses(),
        }
    }
}

/// What a strategy certifies, in the units the encoding budgets:
/// weight units in weighted mode, pebble counts otherwise. Every
/// engine's `ProbeSolved { achieved }` (and the terminal minimum) uses
/// this, so the event stream never mixes units.
pub(crate) fn achieved_budget(dag: &Dag, weighted: bool, strategy: &Strategy) -> usize {
    if weighted {
        usize::try_from(strategy.max_weight(dag)).unwrap_or(usize::MAX)
    } else {
        strategy.max_pebbles(dag)
    }
}

/// The counters a [`WorkerSummary`] row reads off an engine's
/// per-worker result: `(probes, queries, SAT statistics, retries)`.
trait Tally {
    fn tally(&self) -> (usize, usize, SolverStats, u64);
}

impl Tally for PebbleRun {
    fn tally(&self) -> (usize, usize, SolverStats, u64) {
        (1, self.search.queries, self.sat, 0)
    }
}

impl Tally for MinimizeResult {
    fn tally(&self) -> (usize, usize, SolverStats, u64) {
        (
            self.probes.len(),
            self.search.queries,
            self.sat,
            self.retries,
        )
    }
}

impl Tally for Vec<FrontierPoint> {
    fn tally(&self) -> (usize, usize, SolverStats, u64) {
        (self.len(), 0, SolverStats::default(), 0)
    }
}

/// The one place a [`WorkerSummary`] row is built.
fn summarize(config: String, tally: &impl Tally, winner: bool, elapsed: Duration) -> WorkerSummary {
    let (probes, queries, sat, retries) = tally.tally();
    WorkerSummary {
        config,
        probes,
        queries,
        conflicts: sat.conflicts,
        imported: sat.imported_clauses,
        exported: sat.exported_clauses,
        cancelled: false,
        winner,
        elapsed,
        failed: false,
        retries,
    }
}

/// One [`WorkerSummary`] row per race worker, in configuration order.
fn race_rows<C, R: Tally>(
    workers: &[RaceWorker<C, R>],
    winner: Option<usize>,
    describe: fn(&C) -> String,
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
    cancel: Option<&CancelToken>,
    events: &ProbeEventSender,
    heartbeat: Option<Heartbeat>,
    race: impl FnOnce(&RaceContext<'_>) -> T,
) -> T {
    let private;
    let executor = match executor {
        Some(executor) => executor.as_ref(),
        None => {
            private = Executor::new(workers.max(1));
            &private
        }
    };
    race(&RaceContext {
        executor,
        cancel,
        events,
        heartbeat,
    })
}

/// Runs the engine a validated plan names, pushing progress events into
/// `events`.
fn execute_plan(
    dag: &Dag,
    plan: &SessionPlan,
    events: &ProbeEventSender,
    cancel: Option<&CancelToken>,
    executor: Option<&Arc<Executor>>,
    heartbeat: Option<Heartbeat>,
) -> (SessionOutcome, Vec<WorkerSummary>) {
    let start = Instant::now();
    match plan.engine {
        Engine::Single => {
            let run = solve_fixed(dag, plan.base, 0, 0, cancel.cloned(), heartbeat, events);
            let solved = run.outcome.strategy().is_some();
            let row = summarize(describe_options(&plan.base), &run, solved, start.elapsed());
            (SessionOutcome::Single(run.outcome), vec![row])
        }
        Engine::SinglePortfolio => {
            let configs = default_portfolio(plan.base, plan.workers);
            let outcome = on_pool(executor, configs.len(), cancel, events, heartbeat, |ctx| {
                race_fixed(dag, &configs, ctx)
            });
            let rows = race_rows(&outcome.workers, outcome.winner, describe_options);
            (SessionOutcome::Portfolio(outcome), rows)
        }
        Engine::MinimizeFresh | Engine::MinimizeIncremental => {
            let ctx = MinimizeContext {
                base: plan.base,
                per_query: plan.per_query,
                schedule: plan.budget_schedule,
                incremental: plan.engine == Engine::MinimizeIncremental,
                cancel: cancel.cloned(),
                events: events.clone(),
                retry: plan.retry,
                heartbeat,
                ..MinimizeContext::default()
            };
            let result = run_minimize_with_context(dag, ctx);
            let config = MinimizeConfig {
                base: plan.base,
                schedule: plan.budget_schedule,
            };
            let row = summarize(
                describe_minimize_config(&config),
                &result,
                result.best.is_some(),
                start.elapsed(),
            );
            (SessionOutcome::Minimize(result), vec![row])
        }
        Engine::MinimizePortfolio | Engine::MinimizePortfolioShared => {
            let configs = default_minimize_portfolio(plan.base, plan.workers);
            let share = if plan.engine == Engine::MinimizePortfolioShared {
                plan.share
            } else {
                // An isolated race still honors the diversification knob:
                // jitter needs no pool, only distinct worker configs.
                ShareOptions {
                    diversify: plan.share.diversify,
                    ..ShareOptions::isolated()
                }
            };
            let workers = configs.len();
            let outcome = on_pool(executor, workers, cancel, events, heartbeat, |ctx| {
                race_minimize(dag, configs, plan.per_query, share, plan.retry, ctx)
            });
            let rows = race_rows(&outcome.workers, outcome.winner, describe_minimize_config);
            (SessionOutcome::MinimizePortfolio(outcome), rows)
        }
        Engine::Frontier => {
            let options = FrontierOptions {
                base: plan.base,
                per_budget: plan.per_query,
                min_pebbles: plan.frontier_range.0,
                max_pebbles: plan.frontier_range.1,
                incremental: plan.incremental,
            };
            let points = frontier_on(
                dag,
                options,
                events,
                executor.map(|arc| arc.as_ref()),
                cancel,
                heartbeat,
            );
            let row = summarize(
                format!("frontier/{}", describe_options(&plan.base)),
                &points,
                points.iter().any(|point| point.strategy.is_some()),
                start.elapsed(),
            );
            (SessionOutcome::Frontier(points), vec![row])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revpebble_graph::generators::paper_example;
    use revpebble_graph::{Dag, Op};

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
            engine(PebblingSession::new(&dag).minimize().fresh_per_probe()),
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
                    .share_clauses(ShareOptions::default())
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
            .diversify(true)
            .plan()
            .expect("valid");
        assert_eq!(plan.engine, Engine::MinimizePortfolio);
        assert!(plan.share.diversify);
        assert!(!plan.share.clauses, "diversify alone shares nothing");
        let plan = PebblingSession::new(&dag)
            .minimize()
            .portfolio(2)
            .share_clauses(ShareOptions::default())
            .diversify(true)
            .plan()
            .expect("valid");
        assert_eq!(plan.engine, Engine::MinimizePortfolioShared);
        assert!(plan.share.diversify && plan.share.clauses && plan.share.bounds);
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
    fn runtime_admission_is_bounded_and_released_on_drop() {
        let runtime = SessionRuntime::new(1).expect("workers").max_in_flight(2);
        let first = runtime.admit().expect("first slot");
        let _second = runtime.admit().expect("second slot");
        assert!(runtime.admit().is_none(), "third admit must shed load");
        assert_eq!(runtime.in_flight(), 2);
        drop(first);
        assert_eq!(runtime.in_flight(), 1);
        assert!(runtime.admit().is_some(), "released slot is reusable");
    }

    #[test]
    fn runtime_spawns_share_one_result_cache() {
        let dag = paper_example();
        let runtime = SessionRuntime::new(2).expect("workers");
        for _ in 0..2 {
            let handle = runtime
                .spawn(
                    PebblingSession::new(&dag).minimize(),
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
            err(PebblingSession::new(&dag)
                .minimize()
                .share_clauses(ShareOptions::default())),
            SessionError::ShareClausesWithoutPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .pebbles(4)
                .portfolio(4)
                .share_clauses(ShareOptions::default())),
            SessionError::ShareClausesWithoutMinimize
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .minimize()
                .portfolio(2)
                .fresh_per_probe()),
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
            err(PebblingSession::new(&dag).minimize().diversify(true)),
            SessionError::DiversifyWithoutPortfolio
        );
        assert_eq!(
            err(PebblingSession::new(&dag)
                .pebbles(4)
                .portfolio(4)
                .diversify(true)),
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
        let report = PebblingSession::new(&dag)
            .minimize()
            .max_steps(60)
            .quota(1)
            .run()
            .expect("valid configuration");
        assert_eq!(report.stop_reason, Some(StopReason::QuotaExhausted));
        assert!(report.to_json().contains("\"stop_reason\":\"quota\""));
    }

    #[test]
    fn spawn_on_runs_the_session_off_thread() {
        let dag = paper_example();
        let executor = Arc::new(Executor::new(2));
        let mut handle = PebblingSession::new(&dag)
            .pebbles(4)
            .spawn_on(&executor)
            .expect("valid configuration");
        // try_report never blocks; eventually the report lands.
        let report = loop {
            if handle.try_report().is_some() {
                break handle.join();
            }
            thread::yield_now();
        };
        assert_eq!(report.minimum, Some(4));
        assert!(report.stop_reason.is_none());
    }

    #[test]
    fn a_cancelled_handle_joins_to_a_partial_report() {
        let dag = paper_example();
        let executor = Arc::new(Executor::new(1));
        let handle = PebblingSession::new(&dag)
            .minimize()
            .spawn_on(&executor)
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
        let cache = Arc::new(ResultCache::default());
        let first = PebblingSession::new(&dag)
            .minimize()
            .result_cache(Arc::clone(&cache))
            .run()
            .expect("valid configuration");
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        let again = PebblingSession::new(&dag)
            .minimize()
            .result_cache(Arc::clone(&cache))
            .run()
            .expect("valid configuration");
        assert_eq!((again.cache_hits, again.cache_misses), (1, 0));
        assert_eq!(again.minimum, first.minimum);
        assert!(again.workers.is_empty(), "no solver ran on the hit");
        // A different plan on the same DAG is a different key.
        let other = PebblingSession::new(&dag)
            .pebbles(4)
            .result_cache(Arc::clone(&cache))
            .run()
            .expect("valid configuration");
        assert_eq!((other.cache_hits, other.cache_misses), (0, 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn a_zero_worker_batch_is_rejected() {
        match BatchSession::new(0) {
            Err(err) => assert_eq!(err, SessionError::ZeroWorkerPool),
            Ok(_) => panic!("zero workers must be rejected"),
        }
    }

    #[test]
    fn batch_runs_three_sessions_on_two_workers_with_quotas_and_cache() {
        let dag = paper_example();
        let mut batch = BatchSession::new(2)
            .expect("two workers")
            .per_session_quota(5_000_000);
        for name in ["a", "b", "c"] {
            batch
                .submit(name, &dag, |session| session.pebbles(4))
                .expect("valid configuration");
        }
        assert_eq!(batch.pending(), 3);
        let report = batch.finish();
        assert_eq!(report.sessions.len(), 3);
        for (name, session) in &report.sessions {
            assert_eq!(session.minimum, Some(4), "session {name}");
            assert!(session.stop_reason.is_none(), "session {name}");
        }
        // Two workers run `a` and `b` concurrently; `c` only starts
        // after one of them finished and published its result, so the
        // repeated instance is served from the cache deterministically.
        assert_eq!(report.cache_hits + report.cache_misses, 3);
        assert!(
            report.cache_hits >= 1,
            "repeat served from cache: hits={} misses={}",
            report.cache_hits,
            report.cache_misses
        );
    }

    #[test]
    fn cancel_all_stops_a_whole_batch() {
        let dag = paper_example();
        let mut batch = BatchSession::new(1).expect("one worker");
        for name in ["a", "b"] {
            batch
                .submit(name, &dag, |session| {
                    session
                        .minimize()
                        .per_query_timeout(Duration::from_secs(30))
                })
                .expect("valid configuration");
        }
        batch.cancel_all();
        let report = batch.finish();
        assert_eq!(report.sessions.len(), 2, "partial reports still join");
    }
}
