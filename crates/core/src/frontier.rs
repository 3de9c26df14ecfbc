//! The space/time trade-off frontier.
//!
//! The paper's central pitch is "empower the designer to exchange memory
//! for time and vice versa" (Section II-A, Fig. 3). A frontier session
//! ([`PebblingSession::sweep_frontier`](crate::session::PebblingSession::sweep_frontier))
//! sweeps the pebble budget and reports, for every feasible budget, the
//! best step count found — the full frontier behind figures like Fig. 5.
//!
//! Every budget probe runs through the minimize engine's probe path. By
//! default the sweep rides **one** persistent
//! assumption-bounded [`PebbleEncoding`](crate::encoding::PebbleEncoding):
//! every budget probe re-enters the same solver via
//! [`PebbleSolver::resolve_with_budget`](crate::solver::PebbleSolver::resolve_with_budget),
//! so learnt clauses, variable activities, saved phases and the
//! refuted-steps table all carry from budget to budget — the whole
//! frontier costs one encoding instead of one per point. A *fresh* sweep
//! rebuilds the encoding for every budget; its points are identical.

use revpebble_graph::Dag;

use crate::bounds::budget_window;
use crate::session::{achieved_budget, ProbeEvent};
use crate::solver::{MinimizeContext, PebbleOutcome, ProbeVerdict, Prober};
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

/// Sweeps pebble budgets downward through `ctx.window` (`None` = the
/// [`budget_window`], in weight units in weighted mode), collecting the
/// best strategy per budget, and stops at the first failure: the
/// frontier is monotone, so further probes would only confirm failures.
/// `ctx` also gives the probe settings (`per_query` bounds each budget),
/// the token and the event sink: every budget probe emits
/// [`ProbeEvent::ProbeStarted`] and a solved/refuted event, and the sweep
/// stops early once the token fires.
pub(crate) fn frontier_on(dag: &Dag, ctx: MinimizeContext) -> Vec<FrontierPoint> {
    let (min, max) = ctx
        .window
        .unwrap_or_else(|| budget_window(dag, ctx.base.encoding.weighted));
    let mut prober = Prober::new(dag, &ctx);
    let mut points = Vec::new();
    for pebbles in (min..=max).rev() {
        if ctx
            .cancel
            .as_ref()
            .is_some_and(|token| token.poll().is_some())
        {
            break;
        }
        let probe = points.len();
        ctx.events.send(ProbeEvent::ProbeStarted {
            worker: 0,
            probe,
            budget: pebbles,
        });
        let outcome = prober.probe(pebbles);
        let achieved = outcome
            .strategy()
            .map(|strategy| achieved_budget(dag, ctx.base.encoding.weighted, strategy));
        let verdict = ProbeVerdict::from(&outcome);
        ctx.events
            .resolved(0, probe, pebbles, achieved.ok_or(verdict));
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
        let points = frontier_on(&dag, sweep());
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
        let persistent = frontier_on(&dag, ctx(true));
        let fresh = frontier_on(&dag, ctx(false));
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
        let points = frontier_on(&dag, ctx);
        assert!(points.is_empty(), "a pre-cancelled sweep probes nothing");
    }

    #[test]
    fn frontier_respects_explicit_range() {
        let dag = paper_example();
        let ctx = MinimizeContext {
            window: Some((5, 6)),
            ..sweep()
        };
        let points = frontier_on(&dag, ctx);
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
        let points = frontier_on(&dag, ctx);
        let table = render_frontier(&points, &dag);
        assert!(table.contains("pebbles"));
        assert_eq!(table.lines().count(), 2 + points.len());
    }
}
