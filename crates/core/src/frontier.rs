//! The space/time trade-off frontier.
//!
//! The paper's central pitch is "empower the designer to exchange memory
//! for time and vice versa" (Section II-A, Fig. 3). A frontier session
//! ([`PebblingSession::sweep_frontier`](crate::session::PebblingSession::sweep_frontier))
//! sweeps the pebble budget and reports, for every feasible budget, the
//! best step count found — the full frontier behind figures like Fig. 5.
//!
//! Every budget probe runs through the minimize engine's one probe body,
//! with the same retries, fail point, events and statistics as a minimize
//! search. By default the sweep rides **one** persistent
//! assumption-bounded [`PebbleEncoding`](crate::encoding::PebbleEncoding):
//! every budget probe re-enters the same solver via
//! [`PebbleSolver::resolve_with_budget`](crate::solver::PebbleSolver::resolve_with_budget),
//! so learnt clauses, variable activities, saved phases and the
//! refuted-steps table all carry from budget to budget — the whole
//! frontier costs one encoding instead of one per point. A *fresh* sweep
//! rebuilds the encoding for every budget; its points are identical.

use revpebble_graph::Dag;

use crate::solver::{MinimizeContext, MinimizeResult, MinimizeRun, ProbeVerdict};
use crate::strategy::Strategy;

/// One point of the trade-off frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The pebble budget probed.
    pub pebbles: usize,
    /// The strategy found (step-minimal for this budget if the probe did
    /// not time out), or `None` when the probe failed.
    pub strategy: Option<Strategy>,
    /// Whether the probe ran out of time or conflicts, or was cancelled,
    /// before deciding its budget. A refuted or step-capped point is
    /// `false`.
    pub timed_out: bool,
}

/// Sweeps pebble budgets downward through the run's window (`ctx.window`,
/// or the [`budget_window`](crate::bounds::budget_window) in the units the
/// encoding budgets), collecting the best strategy per budget, and stops
/// at the first failure: the frontier is monotone, so further probes
/// would only confirm failures. Every budget goes through
/// [`MinimizeRun::attempt`], the minimize engine's probe body, so the
/// sweep retries, polls fail points, streams events and counts exactly as
/// a minimize search does, and stops early once the token fires. Returns
/// the run's result (probe log, counters, certified floor) with the
/// points in ascending budget order.
pub(crate) fn frontier_on(dag: &Dag, ctx: MinimizeContext) -> (MinimizeResult, Vec<FrontierPoint>) {
    let mut run = MinimizeRun::new(dag, ctx);
    let (low, high) = run.window;
    let mut points = Vec::new();
    for pebbles in (low..=high).rev() {
        if run.stopped() {
            break;
        }
        let (strategy, timed_out) = match run.attempt(pebbles) {
            Ok((_, strategy)) => (Some(strategy), false),
            Err(verdict) => (None, matches!(verdict, ProbeVerdict::Timeout { .. })),
        };
        let failed = strategy.is_none();
        points.push(FrontierPoint {
            pebbles,
            strategy,
            timed_out,
        });
        if failed {
            break;
        }
    }
    points.reverse();
    (run.finish(), points)
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
    use crate::solver::SolverOptions;
    use revpebble_graph::generators::paper_example;
    use revpebble_sat::CancelToken;
    use std::time::Duration;

    /// An incremental sweep, as a session without a token or an observer
    /// runs it.
    fn sweep() -> MinimizeContext {
        MinimizeContext {
            base: SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps: 60,
                ..SolverOptions::default()
            },
            per_query: Some(Duration::from_secs(30)),
            incremental: true,
            ..MinimizeContext::default()
        }
    }

    #[test]
    fn paper_example_frontier_is_monotone() {
        let dag = paper_example();
        let (_, points) = frontier_on(&dag, sweep());
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
        let ctx = |incremental| MinimizeContext {
            incremental,
            ..sweep()
        };
        let (_, persistent) = frontier_on(&dag, ctx(true));
        let (_, fresh) = frontier_on(&dag, ctx(false));
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
    fn cancelled_sweep_returns_no_points() {
        let dag = paper_example();
        let token = CancelToken::new();
        token.cancel();
        let ctx = MinimizeContext {
            cancel: Some(token),
            ..sweep()
        };
        let (_, points) = frontier_on(&dag, ctx);
        assert!(points.is_empty(), "a pre-cancelled sweep probes nothing");
    }

    #[test]
    fn frontier_respects_explicit_range() {
        let dag = paper_example();
        let ctx = MinimizeContext {
            window: Some((5, 6)),
            ..sweep()
        };
        let (_, points) = frontier_on(&dag, ctx);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.strategy.is_some()));
    }

    #[test]
    fn render_contains_all_rows() {
        let dag = paper_example();
        let ctx = MinimizeContext {
            window: Some((4, 6)),
            ..sweep()
        };
        let (_, points) = frontier_on(&dag, ctx);
        let table = render_frontier(&points, &dag);
        assert!(table.contains("pebbles"));
        assert_eq!(table.lines().count(), 2 + points.len());
    }
}
