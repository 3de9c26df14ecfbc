//! Fresh-per-probe vs. incremental pebble minimization (the Table I
//! search loop): same budgets probed, but the incremental engine drives
//! every probe through one assumption-bounded encoding/solver instance,
//! carrying learnt clauses, VSIDS activities and saved phases across
//! probes — plus the `(steps, pebbles)` monotonicity skip that never
//! re-proves a refutation a looser budget already paid for.
//!
//! Alongside the wall-clock numbers a one-off audit prints the total SAT
//! conflicts and queries of both engines; the single-instance claim
//! itself is audited via `sat.solves == search.queries`. The floor proven
//! without SAT is the exact minimum of `paper` and `c17`, so both
//! searches probe it first and certify it with that one probe, paying
//! for no refutation: on `c17` (exponential deepening, the `table1`
//! harness configuration) the incremental engine pays 60 conflicts
//! against the fresh baseline's 82, and on `paper` 59 against 67.
//!
//! Every audited run also lands in the machine-readable `BENCH_sat.json`
//! (wall-clock + propagations + conflicts + arena GCs for `paper`, `c17`
//! and the timeout-bound Table I row `b3_m4`), giving later PRs a
//! committed perf trajectory. The `b3_m4` audit additionally asserts that
//! the clause arena was garbage-collected at least once — the workload CI
//! uses to prove the mark-compact path runs in production-shaped searches.

use revpebble::core::{
    BudgetSchedule, EncodingOptions, MinimizeResult, MoveMode, PebblingSession, SessionOutcome,
    SolverOptions, StepSchedule,
};
use revpebble::graph::generators::paper_example;
use revpebble::graph::{parse_bench, Dag};
use revpebble_bench::{record_bench_json, table1_dag, time, BenchRecord, TABLE1};
use std::time::{Duration, Instant};

fn base(schedule: StepSchedule, max_steps: usize) -> SolverOptions {
    SolverOptions {
        encoding: EncodingOptions {
            move_mode: MoveMode::Sequential,
            ..EncodingOptions::default()
        },
        schedule,
        max_steps,
        ..SolverOptions::default()
    }
}

/// One minimize search through the session front door (what the bench
/// measures is exactly what the CLI and the library run).
fn minimize_session(
    dag: &Dag,
    base: SolverOptions,
    schedule: BudgetSchedule,
    incremental: bool,
    per_query: Duration,
) -> MinimizeResult {
    let report = PebblingSession::new(dag)
        .solver_options(base)
        .minimize()
        .budget(schedule)
        .incremental(incremental)
        .per_query_timeout(per_query)
        .run()
        .expect("a valid bench configuration");
    match report.outcome {
        SessionOutcome::Minimize(result) => result,
        _ => unreachable!("a single-worker minimize session ran"),
    }
}

/// One timed minimize run, recorded for `BENCH_sat.json`.
fn audit(
    name: &str,
    engine: &str,
    dag: &Dag,
    base: SolverOptions,
    schedule: BudgetSchedule,
    incremental: bool,
    per_query: Duration,
) -> (MinimizeResult, BenchRecord) {
    let start = Instant::now();
    let result = minimize_session(dag, base, schedule, incremental, per_query);
    let wall_s = start.elapsed().as_secs_f64();
    let record = BenchRecord {
        bench: "minimize_incremental",
        id: format!("{engine}/{name}"),
        wall_s,
        propagations: result.sat.propagations,
        conflicts: result.sat.conflicts,
        arena_gcs: result.sat.arena_gcs,
        imports: result.sat.imported_clauses,
        exports: result.sat.exported_clauses,
        dropped: result.sat.dropped_clauses,
        certified: result.best.as_ref().map(|&(p, _)| p as u64),
    };
    (result, record)
}

fn main() {
    let mut records = Vec::new();
    let paper = paper_example();
    let c17 = parse_bench(revpebble::graph::data::C17_BENCH).expect("parses");
    // Infeasible-budget probes terminate via max_steps (StepLimit), not
    // the clock, so the conflict comparison measures search work — the
    // generous per-probe budget never fires on these instances.
    let per_query = Duration::from_secs(120);
    let workloads = [
        ("paper", &paper, base(StepSchedule::Linear, 20)),
        ("c17", &c17, base(StepSchedule::ExponentialRefine, 30)),
    ];
    for (name, dag, options) in workloads {
        let (fresh, fresh_record) = audit(
            name,
            "fresh",
            dag,
            options,
            BudgetSchedule::Binary,
            false,
            per_query,
        );
        let (incremental, incremental_record) = audit(
            name,
            "incremental",
            dag,
            options,
            BudgetSchedule::Binary,
            true,
            per_query,
        );
        records.push(fresh_record);
        records.push(incremental_record);
        assert_eq!(
            fresh.best.as_ref().map(|&(p, _)| p),
            incremental.best.as_ref().map(|&(p, _)| p),
            "{name}: both engines must certify the same minimum budget"
        );
        assert_eq!(
            incremental.sat.solves, incremental.search.queries as u64,
            "{name}: one solver instance must answer every query"
        );
        println!(
            "{name}: total conflicts fresh={} incremental={} | queries fresh={} incremental={} \
             | minimum budget {:?}",
            fresh.sat.conflicts,
            incremental.sat.conflicts,
            fresh.search.queries,
            incremental.search.queries,
            incremental.best.as_ref().map(|&(p, _)| p),
        );
        for (engine, incremental) in [("fresh", false), ("incremental", true)] {
            time(&format!("minimize_incremental/{engine}/{name}"), 10, || {
                minimize_session(dag, options, BudgetSchedule::Binary, incremental, per_query)
            });
        }
    }

    // The timeout-bound Table I row `b3_m4`, in the `table1` harness
    // configuration (parallel moves, exponential deepening, descending
    // budget schedule, 2 s per probe). Timed once per engine — seconds,
    // not sample loops. Timeout-bound quantities (which budget each
    // engine certifies) are machine-dependent, so they are *reported*,
    // not hard-asserted; only machine-robust invariants gate CI.
    let row = TABLE1.iter().find(|r| r.name == "b3_m4").expect("present");
    let dag = table1_dag(row);
    let n = dag.num_nodes();
    let b3_options = SolverOptions {
        encoding: EncodingOptions {
            move_mode: MoveMode::Parallel,
            ..EncodingOptions::default()
        },
        schedule: StepSchedule::ExponentialRefine,
        max_steps: 16 * n,
        step_stride: (n / 16).max(1),
        sat: revpebble::sat::SolverConfig {
            // A tighter learnt cap than the default third: reductions —
            // and with them arena GCs, the invariant CI asserts below —
            // then fire after a few thousand learnt clauses, which even a
            // much slower machine accumulates inside the 2 s probes.
            learntsize_factor: 0.05,
            ..revpebble::sat::SolverConfig::default()
        },
        ..SolverOptions::default()
    };
    let b3_schedule = BudgetSchedule::Descending {
        stride: (n / 12).max(1),
    };
    let b3_per_query = Duration::from_secs(2);
    let (fresh, fresh_record) = audit(
        "b3_m4",
        "fresh",
        &dag,
        b3_options,
        b3_schedule,
        false,
        b3_per_query,
    );
    let (incremental, incremental_record) = audit(
        "b3_m4",
        "incremental",
        &dag,
        b3_options,
        b3_schedule,
        true,
        b3_per_query,
    );
    let fresh_p = fresh.best.as_ref().map(|&(p, _)| p);
    let incremental_p = incremental.best.as_ref().map(|&(p, _)| p);
    println!(
        "b3_m4: certified budget fresh={fresh_p:?} incremental={incremental_p:?} | \
         wall fresh={:.2}s incremental={:.2}s | incremental arena GCs={}",
        fresh_record.wall_s, incremental_record.wall_s, incremental.sat.arena_gcs,
    );
    // The descending schedule's fallback certifies the trivially feasible
    // full budget even when every timed probe fails, so *some* budget is
    // certified on any machine.
    let fresh_p = fresh_p.expect("b3_m4 certifies under fresh probes");
    let incremental_p = incremental_p.expect("b3_m4 certifies under incremental probes");
    if incremental_p > fresh_p {
        // Expected on every measured box (warm probes certify tighter
        // budgets — the PR-2 result); timeout-bound, so only a warning.
        println!(
            "b3_m4: WARNING warm probes certified {incremental_p} vs fresh {fresh_p} \
             (timing-dependent; not failing the bench)"
        );
    }
    assert!(
        incremental.sat.arena_gcs >= 1,
        "the b3_m4 search must reduce its clause DB and GC the arena at least once"
    );
    records.push(fresh_record);
    records.push(incremental_record);
    record_bench_json("minimize_incremental", &records);
}
