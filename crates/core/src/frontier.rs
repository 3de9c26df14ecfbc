//! The space/time trade-off frontier.
//!
//! The paper's central pitch is "empower the designer to exchange memory
//! for time and vice versa" (Section II-A, Fig. 3). A frontier session
//! ([`PebblingSession::sweep_frontier`](crate::session::PebblingSession::sweep_frontier))
//! sweeps the pebble budget and reports, for every feasible budget, the
//! best step count found — the full frontier behind figures like Fig. 5.
//!
//! By default the sweep rides **one** persistent assumption-bounded
//! [`PebbleEncoding`](crate::encoding::PebbleEncoding): every budget probe
//! re-enters the same solver via
//! [`PebbleSolver::resolve_with_budget`], so learnt clauses, variable
//! activities, saved phases and the refuted-steps table all carry from
//! budget to budget — the whole frontier costs one encoding instead of
//! one per point.
//!
//! A *fresh* (non-incremental) sweep has no state to carry, so when the
//! session runtime hands it an [`Executor`] the
//! per-budget probes are submitted as independent jobs and race on the
//! shared pool; the resulting points are identical to the sequential
//! sweep's (including early-stop truncation), only the wall-clock
//! differs.

use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Duration;

use revpebble_graph::Dag;
use revpebble_sat::{CancelToken, Heartbeat};

use crate::bounds::pebble_lower_bound;
use crate::encoding::BoundMode;
use crate::exec::{scatter, Executor};
use crate::session::{achieved_budget, ProbeEvent, ProbeEventSender};
use crate::solver::{solve_fixed, PebbleOutcome, PebbleSolver, SolverOptions};
use crate::strategy::Strategy;

/// One point of the trade-off frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The pebble budget probed.
    pub pebbles: usize,
    /// The strategy found (step-minimal for this budget if the probe did
    /// not time out), or `None` when the probe failed.
    pub strategy: Option<Strategy>,
    /// Whether the probe hit its time/step budget rather than proving
    /// anything.
    pub timed_out: bool,
}

impl FrontierPoint {
    fn new(pebbles: usize, outcome: PebbleOutcome) -> Self {
        let (strategy, timed_out) = match outcome {
            PebbleOutcome::Solved(s) => (Some(s), false),
            PebbleOutcome::Timeout { .. } => (None, true),
            PebbleOutcome::StepLimit { .. } | PebbleOutcome::Infeasible { .. } => (None, false),
        };
        FrontierPoint {
            pebbles,
            strategy,
            timed_out,
        }
    }
}

/// Options of one frontier sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrontierOptions {
    /// Base solver options (the pebble budget field is overridden).
    pub(crate) base: SolverOptions,
    /// Per-budget time budget.
    pub(crate) per_budget: Duration,
    /// Probe budgets from `min_pebbles` (default: the structural lower
    /// bound) …
    pub(crate) min_pebbles: Option<usize>,
    /// … to `max_pebbles` (default: the node count).
    pub(crate) max_pebbles: Option<usize>,
    /// Drive every budget probe through **one** persistent
    /// assumption-bounded encoding/solver instance instead of rebuilding
    /// per budget. The points are identical; only the work to reach them
    /// differs.
    pub(crate) incremental: bool,
}

/// Sweeps pebble budgets downward from `max` to `min`, collecting the
/// best strategy per budget, and stops at the first failure: the
/// frontier is monotone, so further probes would only confirm failures.
/// Every budget probe emits [`ProbeEvent::ProbeStarted`] and a
/// solved/refuted event. The sweep stops early once `cancel` fires.
/// Only the fresh (non-incremental) sweep fans out on `executor`, as
/// per-budget jobs: the incremental sweep stays sequential by
/// construction, its whole point being one persistent solver carrying
/// state from budget to budget.
pub(crate) fn frontier_on(
    dag: &Dag,
    options: FrontierOptions,
    events: &ProbeEventSender,
    executor: Option<&Executor>,
    cancel: Option<&CancelToken>,
    heartbeat: Option<Heartbeat>,
) -> Vec<FrontierPoint> {
    let min = options
        .min_pebbles
        .unwrap_or_else(|| pebble_lower_bound(dag));
    let max = options.max_pebbles.unwrap_or_else(|| dag.num_nodes());
    if !options.incremental {
        if let Some(executor) = executor {
            return frontier_scatter(dag, options, events, executor, cancel, heartbeat, min..=max);
        }
    }
    let mut points = Vec::new();
    // One persistent instance for the whole sweep: every probe re-enters
    // it with only the assumed budget changed, and each probe's refuted
    // step counts seed the next (tighter) budget's deepening start.
    let mut persistent = options.incremental.then(|| {
        let mut base = options.base;
        base.encoding.bound_mode = BoundMode::Assumed;
        base.timeout = Some(options.per_budget);
        let mut solver = PebbleSolver::new(dag, base);
        solver.set_cancel_token(cancel.cloned());
        solver.set_heartbeat(heartbeat.clone());
        solver
    });
    for pebbles in (min..=max).rev() {
        if cancel.is_some_and(|token| token.poll().is_some()) {
            break;
        }
        let probe = points.len();
        let outcome = match persistent.as_mut() {
            Some(solver) => {
                events.send(ProbeEvent::ProbeStarted {
                    worker: 0,
                    probe,
                    budget: pebbles,
                });
                let outcome = solver.resolve_with_budget(pebbles);
                let achieved = outcome
                    .strategy()
                    .map(|strategy| achieved_budget(dag, options.base.encoding.weighted, strategy));
                events.resolved(0, probe, pebbles, achieved);
                outcome
            }
            None => {
                let options = probe_options(&options, pebbles);
                solve_fixed(
                    dag,
                    options,
                    0,
                    probe,
                    cancel.cloned(),
                    heartbeat.clone(),
                    events,
                )
                .outcome
            }
        };
        let point = FrontierPoint::new(pebbles, outcome);
        let failed = point.strategy.is_none();
        points.push(point);
        if failed {
            break;
        }
    }
    points.reverse();
    points
}

/// The options of a fresh probe at budget `pebbles`.
fn probe_options(options: &FrontierOptions, pebbles: usize) -> SolverOptions {
    let mut probe = options.base;
    probe.encoding.max_pebbles = Some(pebbles);
    probe.timeout = Some(options.per_budget);
    probe
}

/// The fresh sweep as independent per-budget jobs on a shared pool: one
/// job per budget, descending. The result is truncated at the
/// highest-budget failure afterwards, so the returned points match the
/// sequential sweep's exactly — the probes below the cut are wasted work
/// the parallelism paid for the latency win.
fn frontier_scatter(
    dag: &Dag,
    options: FrontierOptions,
    events: &ProbeEventSender,
    executor: &Executor,
    cancel: Option<&CancelToken>,
    heartbeat: Option<Heartbeat>,
    budgets: RangeInclusive<usize>,
) -> Vec<FrontierPoint> {
    let dag = Arc::new(dag.clone());
    let tasks: Vec<_> = budgets
        .rev()
        .enumerate()
        .map(|(worker, pebbles)| {
            let dag = Arc::clone(&dag);
            let events = events.clone();
            let cancel = cancel.cloned();
            let heartbeat = heartbeat.clone();
            move || {
                let options = probe_options(&options, pebbles);
                let run = solve_fixed(&dag, options, worker, 0, cancel, heartbeat, &events);
                FrontierPoint::new(pebbles, run.outcome)
            }
        })
        .collect();
    let mut descending = scatter(executor, tasks);
    if let Some(cut) = descending.iter().position(|point| point.strategy.is_none()) {
        descending.truncate(cut + 1);
    }
    descending.reverse();
    descending
}

/// Renders a frontier as a compact table (pebbles, steps, gate total).
pub fn render_frontier(points: &[FrontierPoint], dag: &Dag) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>7} {:>6} {:>6}", "pebbles", "steps", "moves");
    for point in points {
        match &point.strategy {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{:>7} {:>6} {:>6}",
                    point.pebbles,
                    s.num_steps(),
                    s.num_moves()
                );
            }
            None => {
                let reason = if point.timed_out { "timeout" } else { "—" };
                let _ = writeln!(out, "{:>7} {reason:>6}", point.pebbles);
            }
        }
    }
    let _ = writeln!(out, "(DAG: {dag})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{EncodingOptions, MoveMode};
    use revpebble_graph::generators::paper_example;

    fn base() -> SolverOptions {
        SolverOptions {
            encoding: EncodingOptions {
                move_mode: MoveMode::Sequential,
                ..EncodingOptions::default()
            },
            max_steps: 60,
            ..SolverOptions::default()
        }
    }

    /// An incremental sweep over the structural budget range.
    fn sweep() -> FrontierOptions {
        FrontierOptions {
            base: base(),
            per_budget: Duration::from_secs(30),
            min_pebbles: None,
            max_pebbles: None,
            incremental: true,
        }
    }

    /// The sweep a session without an executor, token or observer runs.
    fn frontier(dag: &Dag, options: FrontierOptions) -> Vec<FrontierPoint> {
        frontier_on(dag, options, &ProbeEventSender::default(), None, None, None)
    }

    #[test]
    fn paper_example_frontier_is_monotone() {
        let dag = paper_example();
        let points = frontier(&dag, sweep());
        // Budgets 4..=6 are feasible, 3 fails.
        let feasible: Vec<(usize, usize)> = points
            .iter()
            .filter_map(|p| p.strategy.as_ref().map(|s| (p.pebbles, s.num_steps())))
            .collect();
        assert_eq!(feasible, vec![(4, 12), (5, 10), (6, 10)]);
        assert!(points.first().expect("nonempty").strategy.is_none()); // P = 3
                                                                       // Fewer pebbles never means fewer steps.
        for pair in feasible.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn incremental_and_fresh_sweeps_agree_point_for_point() {
        let dag = paper_example();
        let options = |incremental| FrontierOptions {
            incremental,
            ..sweep()
        };
        let persistent = frontier(&dag, options(true));
        let fresh = frontier(&dag, options(false));
        let feasible = |points: &[FrontierPoint]| -> Vec<(usize, usize)> {
            points
                .iter()
                .filter_map(|p| p.strategy.as_ref().map(|s| (p.pebbles, s.num_steps())))
                .collect()
        };
        assert_eq!(feasible(&persistent), feasible(&fresh));
        assert_eq!(persistent.len(), fresh.len());
    }

    #[test]
    fn scattered_fresh_sweep_matches_the_sequential_points() {
        let dag = paper_example();
        let options = FrontierOptions {
            incremental: false,
            ..sweep()
        };
        let sequential = frontier(&dag, options);
        let executor = Executor::new(2);
        let events = ProbeEventSender::default();
        let scattered = frontier_on(&dag, options, &events, Some(&executor), None, None);
        let shape = |points: &[FrontierPoint]| -> Vec<(usize, Option<usize>)> {
            points
                .iter()
                .map(|p| (p.pebbles, p.strategy.as_ref().map(Strategy::num_steps)))
                .collect()
        };
        assert_eq!(shape(&sequential), shape(&scattered));
    }

    #[test]
    fn cancelled_sweep_returns_no_points() {
        let dag = paper_example();
        let token = CancelToken::new();
        token.cancel();
        let events = ProbeEventSender::default();
        let points = frontier_on(&dag, sweep(), &events, None, Some(&token), None);
        assert!(points.is_empty(), "a pre-cancelled sweep probes nothing");
    }

    #[test]
    fn frontier_respects_explicit_range() {
        let dag = paper_example();
        let points = frontier(
            &dag,
            FrontierOptions {
                min_pebbles: Some(5),
                max_pebbles: Some(6),
                ..sweep()
            },
        );
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.strategy.is_some()));
    }

    #[test]
    fn render_contains_all_rows() {
        let dag = paper_example();
        let points = frontier(
            &dag,
            FrontierOptions {
                min_pebbles: Some(4),
                max_pebbles: Some(6),
                ..sweep()
            },
        );
        let table = render_frontier(&points, &dag);
        assert!(table.contains("pebbles"));
        assert_eq!(table.lines().count(), 2 + points.len());
    }
}
