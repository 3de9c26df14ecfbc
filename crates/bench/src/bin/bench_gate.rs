//! `bench_gate` — the `BENCH_sat.json` perf-regression gate.
//!
//! Compares freshly written bench records against the committed baseline
//! and fails (exit 1) when any entry's wall-clock drifted more than
//! `--max-ratio` (default 2.0) above its baseline. Entries below the
//! noise floor (`--min-wall`, default 0.05 s on both sides) and entries
//! present on only one side are skipped; fresh entries with no baseline
//! are named in the log as `new-bench (no baseline)` rather than
//! dropped silently.
//!
//! Beyond wall clock, the gate fails when an exact row's `propagations`,
//! `conflicts` or `arena_gcs` differ from the baseline at all. The exact
//! rows are every `sat_solver` row and the `minimize_incremental` rows
//! `fresh` and `incremental` on `paper` and `c17` (see
//! [`exact_counter_row`]): they run on one thread, and no clock ends a
//! query, so their counters repeat exactly and a difference is a changed
//! search (see [`compare_exact_counters`]). It also fails when a
//! clause-sharing counter (`imports`/`exports`) that was nonzero in the
//! baseline collapses to zero, and when the `clause_sharing` 2→16-worker
//! scaling speedup falls more than `--max-ratio` below the baseline's
//! speedup. These checks skip with a note when either side lacks the
//! relevant entries/fields, so old baselines keep gating.
//!
//! Usage:
//!   cargo run -p revpebble-bench --bin bench_gate -- \
//!       [--baseline PATH] [--fresh PATH] [--max-ratio R] [--min-wall S]
//!       [--update-baseline]
//!
//! `--baseline` defaults to the committed workspace `BENCH_sat.json` —
//! deliberately *not* `$BENCH_SAT_JSON`, which CI points at the fresh
//! file while the benches run; `--fresh` is the file a
//! `BENCH_SAT_JSON=… cargo bench` run just wrote.
//!
//! `--update-baseline` is the escape hatch for deliberate perf changes:
//! instead of gating, it copies the fresh records over the baseline file
//! (commit the result). See the crate docs for the full workflow.

use std::path::PathBuf;
use std::process::ExitCode;

use revpebble_bench::{
    arg_value, compare_bench_records, compare_exact_counters, compare_sharing_fields,
    exact_counter_row, parse_bench_json, scaling_speedup, unmatched_fresh_keys,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = arg_value(&args, "--baseline")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // The committed workspace baseline (not $BENCH_SAT_JSON: CI
            // points that at the fresh file while benches run).
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sat.json")
        });
    let fresh_path = arg_value(&args, "--fresh")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("fresh_BENCH_sat.json"));
    let max_ratio: f64 = arg_value(&args, "--max-ratio")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let min_wall: f64 = arg_value(&args, "--min-wall")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let update_baseline = args.iter().any(|a| a == "--update-baseline");

    let fresh_text = match std::fs::read_to_string(&fresh_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!(
                "bench_gate: cannot read fresh {}: {err}",
                fresh_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let fresh = parse_bench_json(&fresh_text);
    if fresh.is_empty() {
        eprintln!(
            "bench_gate: {} contains no bench entries",
            fresh_path.display()
        );
        return ExitCode::FAILURE;
    }

    if update_baseline {
        // Escape hatch: adopt the fresh records as the new baseline.
        if let Err(err) = std::fs::copy(&fresh_path, &baseline_path) {
            eprintln!(
                "bench_gate: cannot update baseline {}: {err}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bench_gate: baseline {} updated from {} ({} entries) — commit it",
            baseline_path.display(),
            fresh_path.display(),
            fresh.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!(
                "bench_gate: cannot read baseline {}: {err}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_bench_json(&baseline_text);
    if baseline.is_empty() {
        eprintln!(
            "bench_gate: {} contains no bench entries",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    }

    let drifts = compare_bench_records(&baseline, &fresh, max_ratio, min_wall);
    println!(
        "bench_gate: {} fresh entries, {} compared against {} (max ratio {max_ratio}, \
         noise floor {min_wall}s)",
        fresh.len(),
        drifts.len(),
        baseline_path.display()
    );
    // Fresh entries without a baseline are exempt from gating (a new
    // bench is not a regression), but never silently: a typo'd baseline
    // key would otherwise disable its gate forever. Each one is named
    // so the next `--update-baseline` run is expected to adopt it.
    for key in unmatched_fresh_keys(&baseline, &fresh) {
        println!("  {key:<40} new-bench (no baseline)");
    }
    let mut regressions = 0;
    for drift in &drifts {
        let verdict = if drift.regressed { "REGRESSED" } else { "ok" };
        println!(
            "  {:<40} baseline {:>9.3}s fresh {:>9.3}s ratio {:>5.2}x  {verdict}",
            drift.key, drift.baseline_s, drift.fresh_s, drift.ratio
        );
        if drift.regressed {
            regressions += 1;
        }
    }
    if regressions > 0 {
        eprintln!(
            "bench_gate: {regressions} entr{} regressed more than {max_ratio}x; \
             if deliberate, re-record with --update-baseline and commit BENCH_sat.json",
            if regressions == 1 { "y" } else { "ies" }
        );
        return ExitCode::FAILURE;
    }
    println!("bench_gate: no wall-clock regressions");

    // Search identity: the deterministic rows must repeat their counters
    // exactly. A deliberate search change re-records the baseline.
    let moved = compare_exact_counters(&baseline, &fresh);
    for problem in &moved {
        eprintln!("  COUNTER {problem}");
    }
    if !moved.is_empty() {
        eprintln!(
            "bench_gate: {} exact-row {} from the baseline; \
             if the search change is deliberate, re-record with --update-baseline",
            moved.len(),
            if moved.len() == 1 {
                "counter differs"
            } else {
                "counters differ"
            }
        );
        return ExitCode::FAILURE;
    }
    let exact = fresh
        .iter()
        .filter(|e| exact_counter_row(&e.bench, &e.id))
        .filter(|e| baseline.iter().any(|b| b.bench == e.bench && b.id == e.id))
        .count();
    println!("bench_gate: the counters of {exact} exact rows match the baseline");

    // Clause-sharing health: a sharing counter that was alive in the
    // baseline (imports/exports > 0) must not collapse to zero — that
    // means the lock-free pool silently stopped moving clauses even if
    // the wall clock still looks fine.
    let collapses = compare_sharing_fields(&baseline, &fresh);
    for problem in &collapses {
        eprintln!("  SHARING {problem}");
    }
    if !collapses.is_empty() {
        eprintln!(
            "bench_gate: {} sharing counter{} collapsed to zero vs baseline",
            collapses.len(),
            if collapses.len() == 1 { "" } else { "s" }
        );
        return ExitCode::FAILURE;
    }

    // Worker-scaling health on the clause_sharing sweep: the fresh
    // 2→16-worker speedup may not fall more than `max_ratio` below the
    // baseline's. Absolute curve shapes are machine-dependent (core
    // counts differ), so the gate compares the *ratio of ratios*.
    const SCALE_BENCH: &str = "clause_sharing";
    const SCALE_LOW: &str = "shared/b3_m4/workers2";
    const SCALE_HIGH: &str = "shared/b3_m4/workers16";
    let baseline_speedup = scaling_speedup(&baseline, SCALE_BENCH, SCALE_LOW, SCALE_HIGH);
    let fresh_speedup = scaling_speedup(&fresh, SCALE_BENCH, SCALE_LOW, SCALE_HIGH);
    match (baseline_speedup, fresh_speedup) {
        (Some(base), Some(new)) => {
            println!(
                "bench_gate: {SCALE_BENCH} 2->16 worker speedup baseline {base:.2}x \
                 fresh {new:.2}x"
            );
            if new < base / max_ratio {
                eprintln!(
                    "bench_gate: worker scaling regressed — fresh speedup {new:.2}x is \
                     more than {max_ratio}x below baseline {base:.2}x"
                );
                return ExitCode::FAILURE;
            }
        }
        // One side lacks the sweep (old baseline, or a bench subset run):
        // nothing to compare, and that is not a regression.
        _ => println!("bench_gate: {SCALE_BENCH} scaling sweep absent on one side; skipped"),
    }

    println!("bench_gate: sharing counters and worker scaling healthy");
    ExitCode::SUCCESS
}
