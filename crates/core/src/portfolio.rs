//! Multi-threaded portfolio races over solver configurations.
//!
//! The paper's methodology (Table I) probes one `(P, configuration)` pair
//! at a time under a wall-clock budget. But the configuration space the
//! codebase already exposes — deepening schedule, move semantics,
//! cardinality encoding, step stride — contains no single dominant
//! choice: exponential deepening wins on hard instances, linear deepening
//! on easy ones; the totalizer beats the sequential counter on wide
//! cardinality bounds and loses on narrow ones. A *portfolio* sidesteps
//! the choice: submit one job per configuration to a shared
//! [`Executor`], each on its own
//! [`PebbleEncoding`](crate::encoding::PebbleEncoding), race them on the
//! same instance, and let the first worker to finish cancel the rest
//! through a shared race [`CancelToken`] threaded all the way into the
//! CDCL search loop ([`revpebble_sat::Solver::set_cancel_token`]).
//!
//! A [`PebblingSession`](crate::session::PebblingSession) with a
//! portfolio runs one race, whose every worker is the minimize engine:
//!
//! - with [`minimize`](crate::session::PebblingSession::minimize),
//!   workers race whole budget-minimization searches
//!   ([`default_minimize_portfolio`]): each drives one incremental
//!   assumption-bounded encoding through its own [`BudgetSchedule`], and
//!   the first complete search wins — so the portfolio explores budget
//!   schedules, not just option sets;
//! - a fixed budget `p` is the one-point window `[p, p]`: workers race
//!   diverse solver configurations ([`default_portfolio`]), each probing
//!   `p` once on a fresh baked-budget solver, and the first strategy
//!   wins. The race's [`PortfolioOutcome`] reports the winner's strategy
//!   or the most definite failure.
//!
//! ```
//! use revpebble_core::{PebblingSession, SessionOutcome};
//! use revpebble_graph::generators::paper_example;
//!
//! let dag = paper_example();
//! let report = PebblingSession::new(&dag)
//!     .pebbles(4)
//!     .portfolio(4)
//!     .run()
//!     .expect("valid");
//! let SessionOutcome::Portfolio(race) = &report.outcome else {
//!     unreachable!("a fixed-budget portfolio runs the fixed-budget race");
//! };
//! assert!(race.winner.is_some());
//! let strategy = report.into_strategy().expect("solvable");
//! strategy.validate(&dag, Some(4)).expect("valid");
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use revpebble_graph::Dag;
use revpebble_sat::card::CardEncoding;
use revpebble_sat::faults::FaultSite;
use revpebble_sat::{CancelToken, PoolConfig, PoolStats, SharedClausePool};

use crate::encoding::MoveMode;
use crate::exec::{scatter_settle, Executor};
use crate::sharing::SharedSearchState;
use crate::solver::{
    run_minimize_with_context, BudgetSchedule, MinimizeContext, MinimizeResult, PebbleOutcome,
    SolverOptions, StepSchedule,
};
use crate::strategy::Strategy;

/// Sentinel for "no worker has claimed the win yet".
const NO_WINNER: usize = usize::MAX;

/// What one race worker did, for diagnostics and benchmarking.
#[derive(Debug, Clone)]
pub struct RaceWorker<C, R> {
    /// The configuration this worker ran.
    pub config: C,
    /// The worker's own result (the winner's decides the race).
    pub result: R,
    /// Wall-clock time from spawn to return.
    pub elapsed: Duration,
    /// `true` when the worker gave up because the race token fired — a
    /// rival won, or an ambient session token was cancelled — as opposed
    /// to finishing its own search.
    pub cancelled: bool,
    /// The panic payload when this worker's job panicked instead of
    /// returning. The entry is a placeholder (a default result) kept in
    /// configuration order so winner indices stay valid; the race
    /// certifies from the survivors.
    pub panicked: Option<String>,
}

/// What one race worker did.
pub type MinimizeWorkerReport = RaceWorker<MinimizeConfig, MinimizeResult>;

/// A compact single-line description of one configuration,
/// e.g. `exponential/par/totalizer/stride1`.
pub fn describe_options(options: &SolverOptions) -> String {
    let schedule = match options.schedule {
        StepSchedule::Linear => "linear",
        StepSchedule::ExponentialRefine => "exponential",
    };
    let mode = match options.encoding.move_mode {
        MoveMode::Sequential => "seq",
        MoveMode::Parallel => "par",
    };
    let card = match options.encoding.card_encoding {
        CardEncoding::Pairwise => "pairwise",
        CardEncoding::SequentialCounter => "sequential-counter",
        CardEncoding::Totalizer => "totalizer",
    };
    format!(
        "{schedule}/{mode}/{card}/stride{}",
        options.step_stride.max(1)
    )
}

/// The result of a fixed-budget race: every worker ran the one-point
/// minimize window `[p, p]` under its own solver configuration.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The portfolio's verdict: the winner's strategy, or the most
    /// definite failure among the workers (`Infeasible` over `StepLimit`
    /// over `Timeout`) when nobody solved the instance.
    pub outcome: PebbleOutcome,
    /// Index (into [`workers`](Self::workers)) of the worker whose
    /// strategy won the race, if any.
    pub winner: Option<usize>,
    /// One report per worker, in configuration order.
    pub workers: Vec<MinimizeWorkerReport>,
}

impl PortfolioOutcome {
    /// The winning worker's report, if any worker won.
    pub fn winning_report(&self) -> Option<&MinimizeWorkerReport> {
        self.winner.map(|idx| &self.workers[idx])
    }
}

/// Builds `n` diverse configurations from `base`, cycling through the
/// deepening schedules × cardinality encodings × move semantics the
/// encoding layer supports (`base`'s own combination first). Extra
/// workers beyond the 12 distinct combinations widen the step stride,
/// trading step-optimality for speed exactly like
/// [`SolverOptions::step_stride`] documents.
///
/// `n == 0` means "one worker per available core" (at least one), the
/// same convention the CLI's `--portfolio 0` uses.
pub fn default_portfolio(base: SolverOptions, n: usize) -> Vec<SolverOptions> {
    let n = if n == 0 {
        std::thread::available_parallelism().map_or(1, |cores| cores.get())
    } else {
        n
    };
    let schedules = [StepSchedule::Linear, StepSchedule::ExponentialRefine];
    let cards = [
        CardEncoding::SequentialCounter,
        CardEncoding::Totalizer,
        CardEncoding::Pairwise,
    ];
    let modes = [MoveMode::Sequential, MoveMode::Parallel];

    // Rotate each axis so base's own combination comes first.
    let rotate = |mut list: Vec<usize>, first: usize| {
        list.rotate_left(first);
        list
    };
    let schedule_order = rotate(
        (0..schedules.len()).collect(),
        schedules
            .iter()
            .position(|s| *s == base.schedule)
            .unwrap_or(0),
    );
    let card_order = rotate(
        (0..cards.len()).collect(),
        cards
            .iter()
            .position(|c| *c == base.encoding.card_encoding)
            .unwrap_or(0),
    );
    let mode_order = rotate(
        (0..modes.len()).collect(),
        modes
            .iter()
            .position(|m| *m == base.encoding.move_mode)
            .unwrap_or(0),
    );

    let mut configs = Vec::with_capacity(n);
    let mut stride_round = 0;
    'fill: loop {
        for &mode in &mode_order {
            for &card in &card_order {
                for &schedule in &schedule_order {
                    if configs.len() == n {
                        break 'fill;
                    }
                    let mut options = base;
                    options.schedule = schedules[schedule];
                    options.encoding.card_encoding = cards[card];
                    options.encoding.move_mode = modes[mode];
                    options.step_stride = base.step_stride.max(1) + stride_round;
                    configs.push(options);
                }
            }
        }
        stride_round += 1;
    }
    configs
}

/// One worker's slice of a minimize race: a solver configuration paired
/// with a budget schedule.
#[derive(Debug, Clone, Copy)]
pub struct MinimizeConfig {
    /// Options every probe of this worker shares.
    pub base: SolverOptions,
    /// How this worker walks the budget axis.
    pub schedule: BudgetSchedule,
}

/// A compact single-line description of one minimize configuration,
/// e.g. `binary/linear/seq` or `desc2/exponential/par`.
pub fn describe_minimize_config(config: &MinimizeConfig) -> String {
    let schedule = match config.schedule {
        BudgetSchedule::Binary => "binary".to_string(),
        BudgetSchedule::Descending { stride } => format!("desc{}", stride.max(1)),
    };
    format!("{schedule}/{}", describe_options(&config.base))
}

/// Jitters the CDCL heuristics of every worker but the first, HordeSat
/// style: deterministic per-worker seeds (so races are reproducible
/// modulo thread timing) drive restart-interval jitter
/// ([`restart_base`](revpebble_sat::SolverConfig::restart_base) in
/// `64..=192`), VSIDS-decay jitter
/// ([`var_decay`](revpebble_sat::SolverConfig::var_decay) in
/// `0.90..0.99`), polarity inversion
/// ([`invert_polarity`](revpebble_sat::SolverConfig::invert_polarity),
/// a fair coin) and variable-bump noise
/// ([`activity_noise`](revpebble_sat::SolverConfig::activity_noise) in
/// `0.0..0.05`). Worker 0 is left untouched so every diversified
/// portfolio still contains the stock configuration.
///
/// A session applies this to its minimize race when
/// [`diversify`](crate::session::PebblingSession::diversify) is set.
pub fn diversify_minimize_portfolio(configs: &mut [MinimizeConfig]) {
    for (worker, config) in configs.iter_mut().enumerate().skip(1) {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 ^ worker as u64);
        let sat = &mut config.base.sat;
        sat.restart_base = rng.gen_range(64u64..=192);
        sat.var_decay = 0.90 + 0.09 * rng.gen::<f64>();
        sat.invert_polarity = rng.gen_bool(0.5);
        sat.activity_noise = 0.05 * rng.gen::<f64>();
        sat.seed = rng.gen();
    }
}

/// Aggregate view of what a minimize race shared (see
/// [`MinimizePortfolioOutcome::sharing`]). For an isolated race the
/// bound fields aggregate the workers' private blackboards instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharingReport {
    /// Certified budget floor at the end of the race — step-cap-relative
    /// (see [`crate::sharing`]) and certified with respect to **worker
    /// 0's configuration**, which for the default (homogeneous)
    /// portfolios is every worker's. Never exceeds a budget certified by
    /// a worker of that configuration; a heterogeneous custom portfolio
    /// racing a different encoding or a larger step cap may certify a
    /// [`best`](MinimizePortfolioOutcome::best) *below* this floor, since
    /// the floor says nothing about other caps.
    pub floor: usize,
    /// Universal step refutations recorded from budget-free unsat cores.
    pub step_tightenings: u64,
    /// Times the budget floor was raised by an exhausted probe.
    pub floor_raises: u64,
    /// Total clauses published to / rejected by the shared pool (zeros
    /// without clause sharing).
    pub pool: PoolStats,
}

/// The result of a minimize race.
#[derive(Debug, Clone)]
pub struct MinimizePortfolioOutcome {
    /// The smallest certified budget across *all* workers (a cancelled
    /// descending worker may have certified a smaller budget than the
    /// winner completed with).
    pub best: Option<(usize, Strategy)>,
    /// Index of the first worker to complete its whole search with a
    /// certified budget, if any.
    pub winner: Option<usize>,
    /// One report per worker, in configuration order.
    pub workers: Vec<MinimizeWorkerReport>,
    /// What the race shared and what the sharing proved.
    pub sharing: SharingReport,
}

/// Builds `n` diverse minimize configurations: budget schedules (binary
/// first, then descending with widening strides) crossed with the
/// deepening schedules. Every worker runs *incrementally* — one
/// assumption-bounded encoding across all of its probes — so the race is
/// between budget schedules, not just option sets.
pub fn default_minimize_portfolio(base: SolverOptions, n: usize) -> Vec<MinimizeConfig> {
    let n = if n == 0 {
        std::thread::available_parallelism().map_or(1, |cores| cores.get())
    } else {
        n
    };
    let step_schedules = [base.schedule, other_schedule(base.schedule)];
    let mut configs = Vec::with_capacity(n);
    let mut stride = 1usize;
    'fill: loop {
        let budget_schedules = [
            BudgetSchedule::Binary,
            BudgetSchedule::Descending { stride },
        ];
        for &schedule in &budget_schedules {
            for &step_schedule in &step_schedules {
                if configs.len() == n {
                    break 'fill;
                }
                // Binary search is schedule-complete after round one; only
                // descending gains new configurations from wider strides.
                if stride > 1 && schedule == BudgetSchedule::Binary {
                    continue;
                }
                let mut options = base;
                options.schedule = step_schedule;
                configs.push(MinimizeConfig {
                    base: options,
                    schedule,
                });
            }
        }
        stride *= 2;
    }
    configs
}

fn other_schedule(schedule: StepSchedule) -> StepSchedule {
    match schedule {
        StepSchedule::Linear => StepSchedule::ExponentialRefine,
        StepSchedule::ExponentialRefine => StepSchedule::Linear,
    }
}

/// The one race driver: runs the minimize engine once per configuration
/// as jobs on `executor`, first-to-complete-takes-all. Every worker runs
/// `run` — the session's probe settings, window, token and event sink —
/// under its own configuration and its own child of the race token, and
/// the first worker to finish a *complete* search with a certified budget
/// cancels the race, which stops the rivals inside the CDCL loop. The
/// returned `best` is the smallest budget certified by anyone — a
/// cancelled rival may have descended further than the winner.
///
/// When `shared`, the workers exchange short learnt clauses verbatim
/// through one [`SharedClausePool`] and pool certified refutations and
/// the budget floor on one [`SharedSearchState`]. Both are wired only to
/// workers whose encoding options and step cap equal worker 0's (every
/// [`default_minimize_portfolio`] worker); any other worker races
/// isolated.
pub(crate) fn race_minimize(
    dag: &Dag,
    configs: Vec<MinimizeConfig>,
    run: MinimizeContext,
    shared: bool,
    executor: &Executor,
) -> MinimizePortfolioOutcome {
    let pool = shared.then(|| {
        Arc::new(SharedClausePool::with_config(PoolConfig {
            max_workers: configs.len().max(1),
            ..PoolConfig::default()
        }))
    });
    let blackboard = shared.then(|| Arc::new(SharedSearchState::new()));
    let reference = configs[0].base;
    // The pool copies literals verbatim, which is sound only between
    // identical encodings, and the blackboard certifies facts under one
    // step cap. Incompatible workers keep racing, just without either —
    // and their results are excluded from the certified figures in the
    // sharing report below.
    let compatible: Vec<bool> = configs
        .iter()
        .map(|config| {
            config.base.encoding == reference.encoding
                && config.base.max_steps == reference.max_steps
        })
        .collect();
    let race = run
        .cancel
        .as_ref()
        .map_or_else(CancelToken::new, CancelToken::child);
    let winner = Arc::new(AtomicUsize::new(NO_WINNER));
    let dag = Arc::new(dag.clone());
    let tasks: Vec<_> = configs
        .iter()
        .enumerate()
        .map(|(index, &config)| {
            let (race, winner, dag) = (race.clone(), Arc::clone(&winner), Arc::clone(&dag));
            let run = MinimizeContext {
                base: config.base,
                schedule: config.schedule,
                pool: pool.clone().filter(|_| compatible[index]),
                shared: blackboard.clone().filter(|_| compatible[index]),
                worker: index,
                ..run.clone()
            };
            move || {
                let start = Instant::now();
                // Containment: the worker runs under its own child of the
                // race token, so a spurious cancellation (injected at
                // `exec.job`, or an external child-holder) degrades this
                // one worker without stopping the race. The winner still
                // cancels the shared parent, which shines through every
                // child.
                let token = race.child();
                if config
                    .base
                    .sat
                    .faults
                    .trip(FaultSite::ExecJob, Some(&token))
                {
                    token.cancel();
                }
                let run = MinimizeContext {
                    cancel: Some(token.clone()),
                    ..run
                };
                let result = run_minimize_with_context(&dag, run);
                let finished = result.best.is_some() && !token.is_cancelled();
                if finished
                    && winner
                        .compare_exchange(NO_WINNER, index, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    race.cancel();
                }
                RaceWorker {
                    config,
                    result,
                    elapsed: start.elapsed(),
                    cancelled: !finished && token.is_cancelled(),
                    panicked: None,
                }
            }
        })
        .collect();
    // Panic isolation: a panicked worker becomes a placeholder entry (in
    // configuration order, so winner indices stay valid) and the race
    // certifies from the survivors.
    let workers: Vec<MinimizeWorkerReport> = scatter_settle(executor, tasks)
        .into_iter()
        .zip(configs)
        .map(|(slot, config)| {
            slot.unwrap_or_else(|failure| RaceWorker {
                config,
                result: MinimizeResult::default(),
                elapsed: Duration::ZERO,
                cancelled: false,
                panicked: Some(failure.message),
            })
        })
        .collect();
    let winner = match winner.load(Ordering::Acquire) {
        NO_WINNER => None,
        index => Some(index),
    };
    let best = workers
        .iter()
        .filter_map(|worker| worker.result.best.clone())
        .min_by_key(|&(p, _)| p);
    // Certified figures only ever aggregate reference-compatible workers:
    // an incompatible worker's floor is certified relative to a *different*
    // encoding or step cap, and mixing them could report a "floor" above a
    // budget some larger-cap worker legitimately certified.
    let compatible_workers = || {
        workers
            .iter()
            .zip(&compatible)
            .filter_map(|(w, &ok)| ok.then_some(w))
    };
    let sharing = match &blackboard {
        Some(state) => SharingReport {
            floor: state.floor(),
            step_tightenings: state.step_tightenings(),
            floor_raises: state.floor_raises(),
            pool: pool.as_ref().map(|p| p.stats()).unwrap_or_default(),
        },
        // Isolated race: aggregate the compatible workers' private
        // blackboards so the report stays meaningful for comparisons.
        None => SharingReport {
            floor: compatible_workers()
                .map(|w| w.result.floor)
                .max()
                .unwrap_or_default(),
            step_tightenings: compatible_workers()
                .map(|w| w.result.step_tightenings)
                .sum(),
            floor_raises: compatible_workers().map(|w| w.result.floor_raises).sum(),
            pool: pool.as_ref().map(|p| p.stats()).unwrap_or_default(),
        },
    };
    MinimizePortfolioOutcome {
        best,
        winner,
        workers,
        sharing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::EncodingOptions;
    use crate::session::{PebblingSession, SessionOutcome};
    use crate::solver::{PebbleSolver, ProbeVerdict};
    use proptest::prelude::*;
    use revpebble_graph::generators::{paper_example, random_dag};

    /// Runs an incremental minimize race the way a session without an
    /// installed executor does: on a private pool with one thread per
    /// worker, under no session token.
    fn race_minimize_configs(
        dag: &Dag,
        configs: Vec<MinimizeConfig>,
        per_query: Duration,
        shared: bool,
    ) -> MinimizePortfolioOutcome {
        let executor = Executor::new(configs.len());
        let run = MinimizeContext {
            per_query: Some(per_query),
            incremental: true,
            ..MinimizeContext::default()
        };
        race_minimize(dag, configs, run, shared, &executor)
    }

    /// Session-backed equivalents of the retired free-function shims:
    /// the tests still cover the session → engine plumbing end to end.
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

    fn solve_with_pebbles_portfolio(
        dag: &Dag,
        max_pebbles: usize,
        workers: usize,
    ) -> PortfolioOutcome {
        let report = PebblingSession::new(dag)
            .pebbles(max_pebbles)
            .portfolio(workers)
            .run()
            .expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Portfolio(outcome) => outcome,
            _ => unreachable!("a fixed-budget portfolio session drives the race engine"),
        }
    }

    fn session_minimize_portfolio(session: PebblingSession<'_>) -> MinimizePortfolioOutcome {
        let report = session.run().expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::MinimizePortfolio(outcome) => outcome,
            _ => unreachable!("a minimize-portfolio session drives the portfolio engine"),
        }
    }

    fn minimize_portfolio(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
        n: usize,
    ) -> MinimizePortfolioOutcome {
        session_minimize_portfolio(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .portfolio(n)
                .per_query_timeout(per_query),
        )
    }

    fn minimize_portfolio_shared(
        dag: &Dag,
        base: SolverOptions,
        per_query: Duration,
        n: usize,
    ) -> MinimizePortfolioOutcome {
        session_minimize_portfolio(
            PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .portfolio(n)
                .share_clauses()
                .per_query_timeout(per_query),
        )
    }

    fn minimize_single(dag: &Dag, base: SolverOptions, per_query: Duration) -> MinimizeResult {
        let report = PebblingSession::new(dag)
            .solver_options(base)
            .minimize()
            .per_query_timeout(per_query)
            .run()
            .expect("valid pebbling configuration");
        match report.outcome {
            SessionOutcome::Minimize(result) => result,
            _ => unreachable!("a minimize session drives the minimize engine"),
        }
    }

    #[test]
    fn default_portfolio_is_diverse_and_sized() {
        let configs = default_portfolio(SolverOptions::default(), 6);
        assert_eq!(configs.len(), 6);
        let descriptions: std::collections::BTreeSet<String> =
            configs.iter().map(describe_options).collect();
        assert_eq!(descriptions.len(), 6, "configurations must be distinct");
        // The base configuration itself always runs as worker 0.
        assert_eq!(configs[0].schedule, SolverOptions::default().schedule);
        assert_eq!(
            configs[0].encoding.card_encoding,
            EncodingOptions::default().card_encoding
        );
    }

    #[test]
    fn zero_workers_means_one_per_core() {
        let configs = default_portfolio(SolverOptions::default(), 0);
        assert!(!configs.is_empty());
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 4, 0);
        assert!(matches!(result.outcome, PebbleOutcome::Solved(_)));
    }

    #[test]
    fn oversized_portfolio_falls_back_to_stride_variants() {
        let configs = default_portfolio(SolverOptions::default(), 15);
        assert_eq!(configs.len(), 15);
        assert!(configs[12..].iter().all(|c| c.step_stride == 2));
    }

    #[test]
    fn portfolio_matches_single_threaded_bound_on_paper_example() {
        let dag = paper_example();
        let single = solve_with_pebbles(&dag, 4)
            .into_strategy()
            .expect("solvable");
        single
            .validate(&dag, Some(4))
            .expect("single-threaded valid");

        let result = solve_with_pebbles_portfolio(&dag, 4, 4);
        let strategy = result
            .outcome
            .into_strategy()
            .expect("portfolio solves too");
        strategy
            .validate(&dag, Some(4))
            .expect("portfolio strategy fits the same pebble bound");
        let winner = result.winner.expect("someone won");
        assert!(winner < result.workers.len());
        assert_eq!(result.workers.len(), 4);
        assert!(result.workers.iter().all(|w| w.elapsed > Duration::ZERO));
    }

    #[test]
    fn portfolio_with_two_workers_solves_and_reports_both() {
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 6, 2);
        assert!(matches!(result.outcome, PebbleOutcome::Solved(_)));
        assert_eq!(result.workers.len(), 2);
        let report = result.winning_report().expect("winner report");
        assert_eq!(report.result.probes, vec![(6, ProbeVerdict::Solved)]);
        assert!(report.result.search.queries > 0);
    }

    #[test]
    fn infeasible_budget_is_reported_not_raced_forever() {
        let dag = paper_example();
        let result = solve_with_pebbles_portfolio(&dag, 1, 3);
        assert!(matches!(
            result.outcome,
            PebbleOutcome::Infeasible { lower_bound: 3 }
        ));
        assert!(result.winner.is_none());
    }

    #[test]
    fn losing_workers_observe_the_stop_flag_and_exit_promptly() {
        // Worker 1 is doomed: its binary search reaches budget 3, which
        // passes the structural lower bound of the paper example but
        // admits no strategy at any K (the final configuration {E, F}
        // leaves one pebble for C and D), so linear deepening with an
        // effectively unbounded step cap would refute K = 10, 11, 12, …
        // forever. Only the winner's race token can end it — the whole
        // test hanging is the failure mode guarded against.
        let dag = paper_example();
        let capped = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let doomed = SolverOptions {
            max_steps: usize::MAX / 2,
            ..SolverOptions::default()
        };
        let configs = [capped, doomed]
            .map(|base| MinimizeConfig {
                base,
                schedule: BudgetSchedule::Binary,
            })
            .to_vec();
        let start = Instant::now();
        let result = race_minimize_configs(&dag, configs, Duration::from_secs(600), false);
        let elapsed = start.elapsed();

        assert_eq!(result.winner, Some(0), "only the capped worker can finish");
        let (p, strategy) = result.best.expect("winner's strategy");
        assert_eq!(p, 4);
        strategy.validate(&dag, Some(4)).expect("valid");

        let loser = &result.workers[1];
        assert!(loser.cancelled, "loser must report being cancelled");
        for &(budget, verdict) in &loser.result.probes {
            if budget == 3 {
                assert!(
                    matches!(verdict, ProbeVerdict::Timeout { .. }),
                    "cancellation surfaces as a timeout, got {verdict:?}"
                );
            }
        }
        // Generous CI bound; the race token is polled inside the CDCL
        // loop, so real latency is micro- to milliseconds.
        assert!(
            elapsed < Duration::from_secs(30),
            "losing worker took {elapsed:?} to observe the stop flag"
        );
    }

    #[test]
    fn minimize_portfolio_races_budget_schedules() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let configs = default_minimize_portfolio(base, 4);
        assert_eq!(configs.len(), 4);
        let described: std::collections::BTreeSet<String> =
            configs.iter().map(describe_minimize_config).collect();
        assert_eq!(described.len(), 4, "configurations must be distinct");
        assert!(configs.iter().any(|c| c.schedule == BudgetSchedule::Binary));
        assert!(configs
            .iter()
            .any(|c| matches!(c.schedule, BudgetSchedule::Descending { .. })));

        let outcome = race_minimize_configs(&dag, configs, Duration::from_secs(20), false);
        let (p, strategy) = outcome.best.expect("paper example is feasible");
        assert_eq!(p, 4, "all schedules agree on the minimum budget");
        strategy.validate(&dag, Some(4)).expect("valid");
        assert!(outcome.winner.is_some());
        assert_eq!(outcome.workers.len(), 4);
        // Every worker ran incrementally: its probes share one solver.
        for worker in &outcome.workers {
            if !worker.result.probes.is_empty() {
                assert_eq!(
                    worker.result.sat.solves,
                    worker.result.search.queries as u64,
                    "{}",
                    describe_minimize_config(&worker.config)
                );
            }
        }
    }

    #[test]
    fn shared_race_matches_isolated_minimum_on_c17() {
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let shared = minimize_portfolio_shared(&dag, base, Duration::from_secs(30), 4);
        let (p, strategy) = shared.best.clone().expect("c17 is feasible");
        strategy.validate(&dag, Some(p)).expect("valid");
        // The single-worker incremental engine agrees on the minimum.
        let single = minimize_single(&dag, base, Duration::from_secs(30));
        assert_eq!(Some(p), single.best.map(|(p, _)| p));
        // The cooperative layer was actually on and did something.
        let exported: u64 = shared
            .workers
            .iter()
            .map(|w| w.result.sat.exported_clauses)
            .sum();
        assert!(exported > 0, "c17 probes must learn poolable clauses");
        assert!(shared.sharing.pool.published > 0);
        assert!(
            shared.sharing.floor <= p,
            "certified floor {} must not exceed the certified minimum {p}",
            shared.sharing.floor
        );
    }

    #[test]
    fn mixed_encoding_shared_race_matches_single_worker_minimum() {
        // Workers 1 and 2 differ from worker 0 in cardinality encoding, so
        // they race isolated while worker 0 keeps the pool and blackboard;
        // the certified minimum must match the single-worker incremental
        // engine.
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut configs = default_minimize_portfolio(base, 3);
        configs[1].base.encoding.card_encoding = CardEncoding::Totalizer;
        configs[2].base.encoding.card_encoding = CardEncoding::Pairwise;
        let outcome = race_minimize_configs(&dag, configs, Duration::from_secs(30), true);
        let (p, strategy) = outcome.best.clone().expect("c17 is feasible");
        strategy.validate(&dag, Some(p)).expect("valid");
        let single = minimize_single(&dag, base, Duration::from_secs(30));
        assert_eq!(Some(p), single.best.map(|(p, _)| p));
        for (index, worker) in outcome.workers.iter().enumerate().skip(1) {
            let sat = worker.result.sat;
            assert_eq!(
                (sat.imported_clauses, sat.exported_clauses),
                (0, 0),
                "worker {index} has another encoding and must not touch the pool"
            );
        }
        assert!(outcome.sharing.floor <= p);
    }

    #[test]
    fn diversification_jitters_every_worker_but_the_first() {
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut configs = default_minimize_portfolio(base, 4);
        let before: Vec<_> = configs.clone();
        diversify_minimize_portfolio(&mut configs);
        assert_eq!(
            configs[0].base.sat, before[0].base.sat,
            "worker 0 keeps the stock heuristics"
        );
        for (worker, (jittered, stock)) in configs.iter().zip(&before).enumerate().skip(1) {
            let (j, s) = (&jittered.base.sat, &stock.base.sat);
            assert_ne!(j, s, "worker {worker} must be jittered");
            assert!((64..=192).contains(&j.restart_base), "{}", j.restart_base);
            assert!((0.90..0.99).contains(&j.var_decay), "{}", j.var_decay);
            assert!((0.0..0.05).contains(&j.activity_noise));
            // Everything outside the sat knobs is untouched.
            assert_eq!(jittered.base.encoding, stock.base.encoding);
            assert_eq!(jittered.schedule, stock.schedule);
        }
        // Deterministic: a second pass from the same inputs agrees.
        let mut again = before.clone();
        diversify_minimize_portfolio(&mut again);
        for (a, b) in again.iter().zip(&configs) {
            assert_eq!(a.base.sat, b.base.sat);
        }
        // Distinct workers draw distinct seeds.
        assert_ne!(configs[1].base.sat.seed, configs[2].base.sat.seed);
    }

    #[test]
    fn session_portfolios_share_worker_0s_encoding_and_step_cap() {
        // `race_minimize` wires the pool and the blackboard only to
        // workers matching worker 0's encoding options and step cap. A
        // session builds its race from `default_minimize_portfolio`, so
        // every worker must match — otherwise some would silently race
        // isolated.
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        for n in 0..=16 {
            let mut configs = default_minimize_portfolio(base, n);
            for diversified in [false, true] {
                if diversified {
                    diversify_minimize_portfolio(&mut configs);
                }
                let reference = configs[0].base;
                for (worker, config) in configs.iter().enumerate() {
                    assert_eq!(
                        (config.base.encoding, config.base.max_steps),
                        (reference.encoding, reference.max_steps),
                        "n={n} diversified={diversified}: worker {worker} differs from worker 0"
                    );
                }
            }
        }
    }

    #[test]
    fn diversified_shared_race_agrees_on_the_minimum() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut configs = default_minimize_portfolio(base, 3);
        diversify_minimize_portfolio(&mut configs);
        let outcome = race_minimize_configs(&dag, configs, Duration::from_secs(20), true);
        assert_eq!(outcome.best.as_ref().map(|&(p, _)| p), Some(4));
    }

    #[test]
    fn sequential_pool_handoff_imports_deterministically() {
        // Two incremental solvers with *equal* encoding options on one
        // pool, run one after the other: whatever the first learns, the
        // second must import at the start of its own queries.
        use crate::encoding::BoundMode;
        let dag = revpebble_graph::parse_bench(revpebble_graph::data::C17_BENCH).expect("parses");
        let pool = Arc::new(revpebble_sat::SharedClausePool::new());
        let options = SolverOptions {
            encoding: EncodingOptions {
                bound_mode: BoundMode::Assumed,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        };
        let mut a = PebbleSolver::new(&dag, options);
        a.set_clause_pool(Some(Arc::clone(&pool)));
        assert!(matches!(a.resolve_with_budget(4), PebbleOutcome::Solved(_)));
        assert!(
            a.sat_stats().exported_clauses > 0,
            "the budget-4 search must learn short clauses"
        );
        let mut b = PebbleSolver::new(&dag, options);
        b.set_clause_pool(Some(Arc::clone(&pool)));
        assert!(matches!(b.resolve_with_budget(4), PebbleOutcome::Solved(_)));
        assert!(
            b.sat_stats().imported_clauses > 0,
            "b must pick up a's pooled clauses"
        );
    }

    #[test]
    fn isolated_race_reports_aggregated_private_floors() {
        let dag = paper_example();
        let base = SolverOptions {
            max_steps: 60,
            ..SolverOptions::default()
        };
        let outcome = minimize_portfolio(&dag, base, Duration::from_secs(20), 2);
        assert_eq!(outcome.best.as_ref().map(|&(p, _)| p), Some(4));
        assert_eq!(outcome.sharing.pool.published, 0, "no pool exists");
        assert!(outcome.sharing.floor <= 4);
    }

    #[test]
    fn reports_preserve_configuration_order() {
        let dag = paper_example();
        let configs = default_portfolio(SolverOptions::default(), 3);
        let expected: Vec<String> = configs.iter().map(describe_options).collect();
        let result = solve_with_pebbles_portfolio(&dag, 6, 3);
        let got: Vec<String> = result
            .workers
            .iter()
            .map(|worker| describe_options(&worker.config.base))
            .collect();
        assert_eq!(got, expected);
    }

    fn decisive_base(nodes: usize) -> SolverOptions {
        SolverOptions {
            // Step caps above any optimum these little DAGs admit, so
            // every probe ends in SAT or a certified StepLimit, never a
            // timeout — the regime where engine answers are theorems.
            max_steps: 4 * nodes + 20,
            ..SolverOptions::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn mixed_encoding_diversified_race_matches_single_worker_incremental(
            inputs in 2usize..5,
            nodes in 4usize..12,
            seed in any::<u64>(),
        ) {
            // Workers with *different* cardinality encodings race isolated
            // beside a sharing worker 0, with HordeSat heuristic jitter on
            // top; the certified minimum must still match the
            // single-worker incremental engine on every random DAG.
            let dag = random_dag(inputs, nodes, seed);
            let base = decisive_base(dag.num_nodes());
            let per_query = Duration::from_secs(60);

            let mut configs = default_minimize_portfolio(base, 3);
            configs[1].base.encoding.card_encoding = CardEncoding::Totalizer;
            configs[2].base.encoding.card_encoding = CardEncoding::Pairwise;
            diversify_minimize_portfolio(&mut configs);
            let shared = race_minimize_configs(&dag, configs, per_query, true);
            let single = minimize_single(&dag, base, per_query);

            let single_min = single.best.as_ref().map(|&(p, _)| p);
            let shared_min = shared.best.as_ref().map(|&(p, _)| p);
            if shared_min != single_min {
                // A mismatch here is a soundness failure in the
                // cooperative layer; dump the per-worker view before
                // panicking, because which worker mis-certified (and via
                // which cardinality encoding) is the whole diagnosis.
                eprintln!(
                    "MISMATCH shared={shared_min:?} single={single_min:?} \
                     floor={} pool={:?}",
                    shared.sharing.floor, shared.sharing.pool
                );
                for (i, w) in shared.workers.iter().enumerate() {
                    eprintln!(
                        "worker {i}: best={:?} floor={} probes={:?} cancelled={} \
                         imports={} exports={} card={:?}",
                        w.result.best.as_ref().map(|&(p, _)| p),
                        w.result.floor,
                        w.result.probes,
                        w.cancelled,
                        w.result.sat.imported_clauses,
                        w.result.sat.exported_clauses,
                        w.config.base.encoding.card_encoding,
                    );
                }
            }
            prop_assert_eq!(
                shared_min, single_min,
                "mixed-encoding diversified race must certify the single-worker minimum"
            );
            if let Some((p, strategy)) = &shared.best {
                strategy.validate(&dag, Some(*p)).expect("winner's strategy is valid");
                prop_assert!(
                    shared.sharing.floor <= *p,
                    "floor {} exceeds certified minimum {}", shared.sharing.floor, p
                );
            }
        }
    }
}
