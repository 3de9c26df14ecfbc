//! Shared vs. isolated minimize portfolio (the cooperative layer): same
//! four workers racing budget schedules, but the shared configuration
//! exchanges short learnt clauses through one pool and certified
//! refutations (unsat-core bound tightening, budget floor) through one
//! blackboard.
//!
//! Alongside the wall-clock numbers a one-off audit asserts that the
//! shared race certifies the same minimum as the isolated race and the
//! single-worker incremental engine, and prints the cooperation counters:
//! clause imports/exports, the certified floor, and the number of
//! core-derived bound tightenings. On `b3_m4` (the smallest `H`-operator
//! row of Table I, run with the `table1` harness configuration of
//! parallel moves + exponential refine and a step cap) the audit checks
//! that clause imports are nonzero and at least one core-derived
//! lower-bound tightening fires.
//!
//! A worker-scaling sweep additionally times the diversified shared race
//! on `b3_m4` at 2/4/8/16 workers and lands each point in the
//! machine-readable `BENCH_sat.json` (wall clock plus the summed
//! imports/exports/dropped counters of the lock-free pool), giving
//! `bench_gate` a committed scaling curve to compare against: the
//! 2→16-worker speedup may not collapse relative to the baseline, and
//! sharing counters that were alive may not drop to zero.

use revpebble::core::{
    EncodingOptions, MinimizeResult, MoveMode, PebblingSession, SessionOutcome, SolverOptions,
    StepSchedule,
};
use revpebble::graph::generators::chain;
use revpebble::graph::parse_bench;
use revpebble::graph::slp::h_operator_sized;
use revpebble::graph::Dag;
use revpebble_bench::{record_bench_json, time, BenchRecord};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

/// One minimize race through the session front door, at an explicit
/// worker count (the scaling sweep varies it; the audit uses [`WORKERS`]),
/// optionally on one clause pool and with jittered worker heuristics.
fn race_with(
    dag: &Dag,
    base: SolverOptions,
    per_query: Duration,
    workers: usize,
    shared: bool,
    diversify: bool,
) -> MinimizeResult {
    let mut session = PebblingSession::new(dag)
        .solver_options(base)
        .minimize()
        .portfolio(workers)
        .per_query_timeout(per_query);
    if shared {
        session = session.share_clauses();
    }
    if diversify {
        session = session.diversify();
    }
    let report = session.run().expect("a valid bench configuration");
    match report.outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a minimize race answers one minimize result"),
    }
}

/// The audited and timed configuration: [`WORKERS`] workers, verbatim
/// pool.
fn race(dag: &Dag, base: SolverOptions, per_query: Duration, shared: bool) -> MinimizeResult {
    race_with(dag, base, per_query, WORKERS, shared, false)
}

/// The single-worker incremental reference, same front door.
fn single(dag: &Dag, base: SolverOptions, per_query: Duration) -> MinimizeResult {
    let report = PebblingSession::new(dag)
        .solver_options(base)
        .minimize()
        .per_query_timeout(per_query)
        .run()
        .expect("a valid bench configuration");
    match report.outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a single-worker minimize ran"),
    }
}

struct Workload {
    name: &'static str,
    dag: Dag,
    base: SolverOptions,
    per_query: Duration,
    /// Assert nonzero clause *exports* and ≥ 1 core tightening (set on
    /// the workloads where the probes deterministically produce them).
    assert_cooperation: bool,
    /// Additionally assert nonzero clause *imports*. Only sound where the
    /// probes are slow enough that workers provably interleave: on a
    /// single-core box a fast decisive race (c17) can be won outright by
    /// the first scheduled worker, cancelling the rivals before their
    /// first pool drain — exports flow, but nobody is left to read them.
    assert_imports: bool,
    /// Every probe ends in SAT/UNSAT within the per-query budget, so all
    /// engines must certify the *same* minimum. Timeout-bound workloads
    /// (`b3_m4` under a 2 s probe clock) legitimately disagree: which
    /// budgets get certified depends on wall-clock and core contention.
    decisive: bool,
}

fn base(mode: MoveMode, schedule: StepSchedule, max_steps: usize) -> SolverOptions {
    SolverOptions {
        encoding: EncodingOptions {
            move_mode: mode,
            ..EncodingOptions::default()
        },
        schedule,
        max_steps,
        ..SolverOptions::default()
    }
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "c17",
            // c17 needs 12 steps at 4 pebbles and 10 at 5, so under an
            // 11-step cap its minimum (5) sits above the floor of 4
            // proven without SAT: the budget-4 probe is step-capped and
            // raises the shared floor, the tightening the audit expects.
            dag: parse_bench(revpebble::graph::data::C17_BENCH).expect("parses"),
            base: base(MoveMode::Sequential, StepSchedule::Linear, 11),
            per_query: Duration::from_secs(20),
            assert_cooperation: true,
            assert_imports: false,
            decisive: true,
        },
        Workload {
            name: "b3_m4",
            // Table I's smallest H-operator row, with the `table1` harness
            // configuration: parallel moves + exponential refine. The step
            // cap sits above the paper's K = 117, so infeasible budgets
            // end in certified StepLimit refutations instead of timeouts.
            dag: h_operator_sized(59),
            base: base(MoveMode::Parallel, StepSchedule::ExponentialRefine, 150),
            per_query: Duration::from_secs(2),
            assert_cooperation: true,
            assert_imports: true,
            decisive: false,
        },
        Workload {
            name: "chain12",
            // The exponential space/time trade-off family: pebbling a
            // chain near the logarithmic budget floor needs exponentially
            // many recomputation steps, so tight budgets die by step cap —
            // exactly where the certified floor pays off.
            dag: chain(12),
            base: base(MoveMode::Sequential, StepSchedule::ExponentialRefine, 80),
            per_query: Duration::from_secs(2),
            assert_cooperation: false,
            assert_imports: false,
            decisive: false,
        },
    ]
}

/// The committed worker-scaling sweep: the diversified shared race on
/// `b3_m4` at 2/4/8/16 workers, each point recorded for `BENCH_sat.json`.
/// The probes are timeout-bound (2 s clock), so the sweep reports wall
/// clock and pool counters rather than asserting a curve shape — the
/// machine-relative comparison lives in `bench_gate`.
fn record_scaling_sweep() {
    let dag = h_operator_sized(59);
    let options = base(MoveMode::Parallel, StepSchedule::ExponentialRefine, 150);
    let per_query = Duration::from_secs(2);
    let mut records = Vec::new();
    for workers in [2usize, 4, 8, 16] {
        let start = Instant::now();
        let outcome = race_with(&dag, options, per_query, workers, true, true);
        let wall_s = start.elapsed().as_secs_f64();
        let sat = &outcome.sat;
        println!(
            "scaling b3_m4 workers={workers}: wall={wall_s:.2}s minimum={:?} \
             imports={} exports={} dropped={}",
            outcome.best.as_ref().map(|&(p, _)| p),
            sat.imported_clauses,
            sat.exported_clauses,
            sat.dropped_clauses,
        );
        records.push(BenchRecord {
            bench: "clause_sharing",
            id: format!("shared/b3_m4/workers{workers}"),
            wall_s,
            propagations: sat.propagations,
            conflicts: sat.conflicts,
            arena_gcs: sat.arena_gcs,
            imports: sat.imported_clauses,
            exports: sat.exported_clauses,
            dropped: sat.dropped_clauses,
            certified: outcome.best.as_ref().map(|&(p, _)| p as u64),
        });
    }
    record_bench_json("clause_sharing", &records);
}

fn main() {
    record_scaling_sweep();
    for workload in workloads() {
        let Workload {
            name,
            dag,
            base,
            per_query,
            assert_cooperation,
            assert_imports,
            decisive,
        } = workload;
        let shared = race(&dag, base, per_query, true);
        let isolated = race(&dag, base, per_query, false);
        let single = single(&dag, base, per_query);
        let minimum =
            |best: &Option<(usize, revpebble::core::Strategy)>| best.as_ref().map(|&(p, _)| p);
        if decisive {
            assert_eq!(
                minimum(&shared.best),
                minimum(&single.best),
                "{name}: shared-pool portfolio and single-worker incremental must agree"
            );
            assert_eq!(
                minimum(&shared.best),
                minimum(&isolated.best),
                "{name}: sharing must not change the certified minimum"
            );
        }
        let (p, strategy) = shared.best.as_ref().expect("every workload is feasible");
        strategy
            .validate(&dag, Some(*p))
            .expect("shared-race strategies stay valid");
        assert!(
            shared.floor <= *p,
            "{name}: certified floor {} exceeds certified minimum {p}",
            shared.floor
        );
        let (imports, exports) = (shared.sat.imported_clauses, shared.sat.exported_clauses);
        let tightenings = shared.step_tightenings + shared.floor_raises;
        println!(
            "{name}: minimum={:?} | imports={imports} exports={exports} \
             | floor={} core-tightenings={tightenings}",
            minimum(&shared.best),
            shared.floor,
        );
        if assert_cooperation {
            assert!(exports > 0, "{name}: expected nonzero clause exports");
            assert!(
                tightenings > 0,
                "{name}: expected at least one core-derived lower-bound tightening"
            );
        }
        if assert_imports {
            assert!(imports > 0, "{name}: expected nonzero clause imports");
        }
        for (mode, shared) in [("shared", true), ("isolated", false)] {
            time(&format!("clause_sharing/{mode}/{name}"), 10, || {
                race(&dag, base, per_query, shared)
            });
        }
    }
}
