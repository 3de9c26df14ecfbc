//! Shared helpers for the `revpebble-bench` binaries and benches: the
//! Table I workload definitions, the bench timer ([`time`]), the
//! `BENCH_sat.json` writer/parser behind the perf-regression gate, and a
//! tiny CLI-argument parser (no external dependencies).
//!
//! # Example
//!
//! ```
//! use revpebble_bench::{table1_dag, TABLE1};
//!
//! // Materialize the smallest ISCAS row of the paper's Table I.
//! let row = TABLE1.iter().find(|r| r.name == "c17").expect("present");
//! let dag = table1_dag(row);
//! assert_eq!(dag.num_inputs(), row.pi);
//! assert_eq!(dag.num_outputs(), row.po);
//! dag.validate_for_pebbling().expect("ready for the pebbling game");
//! ```
//!
//! # The `BENCH_sat.json` regression gate
//!
//! Benches that call [`record_bench_json`] land their wall-clock and SAT
//! counters in the committed `BENCH_sat.json` baseline. CI's bench-smoke
//! job re-runs those benches into a *fresh* file (`BENCH_SAT_JSON=… cargo
//! bench …`) and then runs the `bench_gate` binary, which fails when any
//! entry's fresh wall-clock drifts more than 2× above the baseline, and
//! when a deterministic row's search counters differ from it at all
//! ([`compare_exact_counters`] on the [`exact_counter_row`]s):
//!
//! ```text
//! BENCH_SAT_JSON=fresh.json cargo bench -p revpebble-bench --bench minimize_incremental
//! cargo run -p revpebble-bench --bin bench_gate -- --baseline BENCH_sat.json --fresh fresh.json
//! ```
//!
//! Entries below the gate's noise floor (50 ms by default, `--min-wall`)
//! are skipped: at millisecond scale a 2× "drift" is scheduler noise.
//! When a deliberate change moves the numbers, re-record and commit the
//! baseline with the escape hatch:
//!
//! ```text
//! cargo run -p revpebble-bench --bin bench_gate -- --fresh fresh.json --update-baseline
//! ```
//!
//! which copies the fresh records over the baseline file instead of
//! gating; commit the rewritten `BENCH_sat.json` alongside the change
//! that justified it.

#![warn(missing_docs)]

use revpebble::graph::generators::{iscas_proxy, ProxyShape};
use revpebble::graph::json::{parse_json, JsonValue};
use revpebble::graph::slp::h_operator_sized;
use revpebble::graph::{parse_bench, Dag};

/// One row of the paper's Table I: the published design shape plus the
/// paper's measured values for reference printing.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Design name as printed in the paper.
    pub name: &'static str,
    /// Primary inputs (paper's `pi`).
    pub pi: usize,
    /// Primary outputs (paper's `po`).
    pub po: usize,
    /// DAG nodes.
    pub nodes: usize,
    /// Paper: pebbles used by the SAT strategy.
    pub paper_p: usize,
    /// Paper: steps used by the SAT strategy.
    pub paper_k: usize,
}

/// All 20 rows of Table I (9 `H`-operator designs + 11 ISCAS circuits).
#[rustfmt::skip]
pub const TABLE1: [Table1Row; 20] = [
    Table1Row { name: "b2_m3", pi: 8, po: 8, nodes: 74, paper_p: 30, paper_k: 186 },
    Table1Row { name: "b3_m4", pi: 12, po: 12, nodes: 59, paper_p: 20, paper_k: 117 },
    Table1Row { name: "b4_m5", pi: 16, po: 16, nodes: 203, paper_p: 83, paper_k: 778 },
    Table1Row { name: "b5_m7", pi: 20, po: 20, nodes: 256, paper_p: 106, paper_k: 888 },
    Table1Row { name: "b6_m7", pi: 24, po: 24, nodes: 310, paper_p: 130, paper_k: 1132 },
    Table1Row { name: "b8_m7", pi: 32, po: 32, nodes: 422, paper_p: 187, paper_k: 1884 },
    Table1Row { name: "b10_m7", pi: 40, po: 40, nodes: 535, paper_p: 264, paper_k: 2938 },
    Table1Row { name: "b12_m7", pi: 48, po: 48, nodes: 646, paper_p: 331, paper_k: 4228 },
    Table1Row { name: "b16_m23", pi: 64, po: 64, nodes: 881, paper_p: 480, paper_k: 6218 },
    Table1Row { name: "c17", pi: 5, po: 2, nodes: 12, paper_p: 4, paper_k: 12 },
    Table1Row { name: "c432", pi: 36, po: 7, nodes: 208, paper_p: 60, paper_k: 685 },
    Table1Row { name: "c499", pi: 41, po: 32, nodes: 219, paper_p: 77, paper_k: 610 },
    Table1Row { name: "c880", pi: 60, po: 26, nodes: 334, paper_p: 82, paper_k: 1280 },
    Table1Row { name: "c1355", pi: 41, po: 32, nodes: 219, paper_p: 77, paper_k: 594 },
    Table1Row { name: "c1908", pi: 33, po: 25, nodes: 220, paper_p: 70, paper_k: 875 },
    Table1Row { name: "c2670", pi: 157, po: 63, nodes: 554, paper_p: 160, paper_k: 1948 },
    Table1Row { name: "c3540", pi: 50, po: 22, nodes: 856, paper_p: 416, paper_k: 5434 },
    Table1Row { name: "c5315", pi: 178, po: 123, nodes: 1257, paper_p: 498, paper_k: 7635 },
    Table1Row { name: "c6288", pi: 32, po: 32, nodes: 1011, paper_p: 640, paper_k: 10232 },
    Table1Row { name: "c7552", pi: 207, po: 108, nodes: 1151, paper_p: 540, paper_k: 7757 },
];

/// Materializes the DAG for a Table I row.
///
/// - `c17` is the real embedded netlist (collapsed to its 6 NAND gates);
/// - the other ISCAS rows use the deterministic proxy generator;
/// - `b*_m*` rows use the expanded `H` operator (see DESIGN.md §4).
pub fn table1_dag(row: &Table1Row) -> Dag {
    if row.name == "c17" {
        return parse_bench(revpebble::graph::data::C17_BENCH).expect("embedded c17 parses");
    }
    if row.name.starts_with('c') {
        iscas_proxy(
            ProxyShape {
                inputs: row.pi,
                outputs: row.po,
                nodes: row.nodes,
            },
            0xDA7E_2019,
        )
    } else {
        h_operator_sized(row.nodes)
    }
}

/// One measured benchmark entry destined for [`BENCH_sat.json`]
/// (see [`write_bench_json`]): wall-clock plus the SAT-solver counters
/// that make a perf trajectory auditable across PRs.
///
/// [`BENCH_sat.json`]: bench_json_path
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// The emitting bench target, e.g. `"minimize_incremental"`. Entries
    /// are replaced per bench: re-running one bench leaves the others'
    /// entries in the file untouched.
    pub bench: &'static str,
    /// Workload id within the bench, e.g. `"incremental/c17"`.
    pub id: String,
    /// Wall-clock seconds of one measured run.
    pub wall_s: f64,
    /// SAT propagations performed during the run.
    pub propagations: u64,
    /// SAT conflicts encountered during the run.
    pub conflicts: u64,
    /// Clause-arena garbage collections during the run.
    pub arena_gcs: u64,
    /// Clauses imported from the shared pool (0 for solo runs).
    pub imports: u64,
    /// Clauses exported to the shared pool (0 for solo runs).
    pub exports: u64,
    /// Pool clauses provably missed — lapped in a rival's export ring
    /// before the import pass reached them (0 for solo runs).
    pub dropped: u64,
    /// The pebble budget the run certified, when the workload is a
    /// minimize search (`None` for fixed-budget and pure-SAT benches):
    /// the row's Table I answer, recorded for the reader. No gate check
    /// reads it, since the timeout-bound rows certify machine-dependent
    /// budgets.
    pub certified: Option<u64>,
}

impl BenchRecord {
    /// The entry as one JSON object on a single line. `bench` and `id`
    /// are code-controlled identifiers (no quotes/escapes needed).
    fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"bench\":\"{}\",\"id\":\"{}\",\"wall_s\":{:.6},\"propagations\":{},\
             \"conflicts\":{},\"arena_gcs\":{},\"imports\":{},\"exports\":{},\"dropped\":{}",
            self.bench,
            self.id,
            self.wall_s,
            self.propagations,
            self.conflicts,
            self.arena_gcs,
            self.imports,
            self.exports,
            self.dropped
        );
        if let Some(certified) = self.certified {
            line.push_str(&format!(",\"certified\":{certified}"));
        }
        line.push('}');
        line
    }
}

/// Where `BENCH_sat.json` lives: `$BENCH_SAT_JSON` when set, otherwise
/// the workspace root (so `cargo bench` from anywhere updates the
/// committed baseline).
pub fn bench_json_path() -> std::path::PathBuf {
    std::env::var_os("BENCH_SAT_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sat.json")
        })
}

/// Writes `records` into the machine-readable `BENCH_sat.json` at `path`,
/// replacing any previous entries of the same `bench` and keeping every
/// other bench's entries. The file is line-oriented JSON — one entry
/// object per line inside a single `entries` array — so it can be both
/// `jq`-parsed and grepped.
pub fn write_bench_json(
    path: &std::path::Path,
    bench: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        let marker = format!("{{\"bench\":\"{bench}\"");
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with("{\"bench\":") && !line.starts_with(marker.as_str()) {
                kept.push(line.to_string());
            }
        }
    }
    kept.extend(records.iter().map(BenchRecord::to_json_line));
    let mut out = String::from("{ \"schema\": 1, \"entries\": [\n");
    for (index, line) in kept.iter().enumerate() {
        out.push_str(line);
        if index + 1 < kept.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("] }\n");
    std::fs::write(path, out)
}

/// [`write_bench_json`] at [`bench_json_path`], reporting (but not
/// failing on) IO errors — a read-only checkout must not break `cargo
/// bench`.
pub fn record_bench_json(bench: &'static str, records: &[BenchRecord]) {
    let path = bench_json_path();
    match write_bench_json(&path, bench, records) {
        Ok(()) => println!(
            "BENCH_sat.json: recorded {} {bench} entries at {}",
            records.len(),
            path.display()
        ),
        Err(err) => eprintln!("BENCH_sat.json: could not write {}: {err}", path.display()),
    }
}

/// One parsed `BENCH_sat.json` entry, keyed for baseline comparison.
///
/// The counters are optional: entries written before the lock-free pool
/// (or by benches that never share) simply lack the sharing ones, and
/// the parser tolerates *unknown* fields too, so future record shapes
/// don't break an older gate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedBenchEntry {
    /// The emitting bench target.
    pub bench: String,
    /// Workload id within the bench.
    pub id: String,
    /// Wall-clock seconds of the recorded run.
    pub wall_s: f64,
    /// SAT propagations, when recorded.
    pub propagations: Option<u64>,
    /// SAT conflicts, when recorded.
    pub conflicts: Option<u64>,
    /// Clause-arena garbage collections, when recorded.
    pub arena_gcs: Option<u64>,
    /// Clauses imported from the shared pool, when recorded.
    pub imports: Option<u64>,
    /// Clauses exported to the shared pool, when recorded.
    pub exports: Option<u64>,
    /// Pool clauses provably missed (ring overwrites), when recorded.
    pub dropped: Option<u64>,
    /// Certified pebble budget, when recorded (minimize workloads only).
    pub certified: Option<u64>,
}

/// Parses `BENCH_sat.json` — the `entries` array [`write_bench_json`]
/// writes, in any JSON layout — with [`parse_json`]. Entries lacking
/// `bench`, `id` or `wall_s` are skipped, and text that is not JSON
/// yields none; the regression gate treats a file that yields no entries
/// as an error.
pub fn parse_bench_json(text: &str) -> Vec<ParsedBenchEntry> {
    let Ok(root) = parse_json(text) else {
        return Vec::new();
    };
    let entries = root
        .get("entries")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    entries
        .iter()
        .filter_map(|entry| {
            let count = |key: &str| entry.get(key).and_then(JsonValue::as_u64);
            Some(ParsedBenchEntry {
                bench: entry.get("bench")?.as_str()?.to_owned(),
                id: entry.get("id")?.as_str()?.to_owned(),
                wall_s: entry.get("wall_s")?.as_f64()?,
                propagations: count("propagations"),
                conflicts: count("conflicts"),
                arena_gcs: count("arena_gcs"),
                imports: count("imports"),
                exports: count("exports"),
                dropped: count("dropped"),
                certified: count("certified"),
            })
        })
        .collect()
}

/// One per-entry verdict of [`compare_bench_records`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDrift {
    /// `bench/id` of the compared entry.
    pub key: String,
    /// Baseline wall-clock seconds.
    pub baseline_s: f64,
    /// Freshly measured wall-clock seconds.
    pub fresh_s: f64,
    /// `fresh_s / baseline_s`.
    pub ratio: f64,
    /// `true` when the drift exceeds the gate's ratio.
    pub regressed: bool,
}

/// Compares freshly written bench records against the committed baseline:
/// an entry regresses when `fresh > max_ratio × baseline`. Entries whose
/// wall-clock is below `min_wall_s` on *both* sides are skipped — at
/// millisecond scale a 2× "drift" is scheduler noise, not a regression —
/// and entries present on only one side are skipped too (new or retired
/// benches are not regressions).
///
/// This is the engine of the `bench_gate` binary (see the crate docs for
/// the CI wiring and the `--update-baseline` escape hatch).
pub fn compare_bench_records(
    baseline: &[ParsedBenchEntry],
    fresh: &[ParsedBenchEntry],
    max_ratio: f64,
    min_wall_s: f64,
) -> Vec<BenchDrift> {
    fresh
        .iter()
        .filter_map(|entry| {
            let base = baseline
                .iter()
                .find(|b| b.bench == entry.bench && b.id == entry.id)?;
            if base.wall_s < min_wall_s && entry.wall_s < min_wall_s {
                return None;
            }
            let ratio = if base.wall_s > 0.0 {
                entry.wall_s / base.wall_s
            } else {
                f64::INFINITY
            };
            Some(BenchDrift {
                key: format!("{}/{}", entry.bench, entry.id),
                baseline_s: base.wall_s,
                fresh_s: entry.wall_s,
                ratio,
                regressed: ratio > max_ratio,
            })
        })
        .collect()
}

/// The `bench/id` keys of fresh entries with no baseline counterpart.
/// [`compare_bench_records`] deliberately skips these (a new bench is
/// not a regression), but skipping them *silently* would let a typo'd
/// baseline key disable a gate forever — `bench_gate` prints each one
/// as `new-bench (no baseline)` so the drop is visible in the CI log.
pub fn unmatched_fresh_keys(
    baseline: &[ParsedBenchEntry],
    fresh: &[ParsedBenchEntry],
) -> Vec<String> {
    fresh
        .iter()
        .filter(|entry| {
            !baseline
                .iter()
                .any(|b| b.bench == entry.bench && b.id == entry.id)
        })
        .map(|entry| format!("{}/{}", entry.bench, entry.id))
        .collect()
}

/// Compares the sharing counters of matched baseline/fresh entries:
/// a fresh run whose `imports` or `exports` collapsed to zero while the
/// baseline recorded a nonzero count means the cooperative layer silently
/// died (a pool wiring bug the wall-clock gate alone would miss — the
/// race still terminates, just without cooperation). Returns one message
/// per such collapse; entries lacking the counters on either side are
/// skipped (old baselines, solo benches).
pub fn compare_sharing_fields(
    baseline: &[ParsedBenchEntry],
    fresh: &[ParsedBenchEntry],
) -> Vec<String> {
    let mut problems = Vec::new();
    for entry in fresh {
        let Some(base) = baseline
            .iter()
            .find(|b| b.bench == entry.bench && b.id == entry.id)
        else {
            continue;
        };
        for (field, base_v, fresh_v) in [
            ("imports", base.imports, entry.imports),
            ("exports", base.exports, entry.exports),
        ] {
            if let (Some(b), Some(f)) = (base_v, fresh_v) {
                if b > 0 && f == 0 {
                    problems.push(format!(
                        "{}/{}: {field} collapsed {b} -> 0 (clause sharing died)",
                        entry.bench, entry.id
                    ));
                }
            }
        }
    }
    problems
}

/// `true` for the rows [`compare_exact_counters`] gates: every
/// `sat_solver` row (fixed formulas on one thread with no clock, no quota
/// and no pool) and the decisive `minimize_incremental` rows (`fresh` and
/// `incremental` on `paper` and `c17`, whose probes end in SAT or a step
/// cap long before their 120 s clocks). Their counters repeat exactly on
/// any machine. The `b3_m4` rows end probes on 2 s clocks, so only the
/// wall check covers them.
pub fn exact_counter_row(bench: &str, id: &str) -> bool {
    bench == "sat_solver"
        || (bench == "minimize_incremental"
            && matches!(
                id,
                "fresh/paper" | "incremental/paper" | "fresh/c17" | "incremental/c17"
            ))
}

/// Compares the search counters (propagations, conflicts, arena GCs) of
/// the matched [`exact_counter_row`] entries exactly: on a deterministic
/// workload any difference means the search itself changed, however the
/// wall clock moved. Returns one message per differing counter; entries
/// present on one side only, and counters either side lacks, are
/// skipped.
pub fn compare_exact_counters(
    baseline: &[ParsedBenchEntry],
    fresh: &[ParsedBenchEntry],
) -> Vec<String> {
    let mut problems = Vec::new();
    for entry in fresh.iter().filter(|e| exact_counter_row(&e.bench, &e.id)) {
        let Some(base) = baseline
            .iter()
            .find(|b| b.bench == entry.bench && b.id == entry.id)
        else {
            continue;
        };
        for (field, base_v, fresh_v) in [
            ("propagations", base.propagations, entry.propagations),
            ("conflicts", base.conflicts, entry.conflicts),
            ("arena_gcs", base.arena_gcs, entry.arena_gcs),
        ] {
            if let (Some(b), Some(f)) = (base_v, fresh_v) {
                if b != f {
                    problems.push(format!("{}/{}: {field} {b} -> {f}", entry.bench, entry.id));
                }
            }
        }
    }
    problems
}

/// The wall-clock speedup between two recorded worker scales of one
/// bench: `wall(low_id) / wall(high_id)`, i.e. how much faster the
/// `high_id` configuration ran. `None` when either entry is missing.
///
/// The `bench_gate` binary uses this on the `clause_sharing` scaling
/// records (`shared/b3_m4/workers2` … `workers16`) to catch the shared
/// portfolio flattening: the fresh 2-to-16-worker speedup must not fall
/// more than the gate's ratio below the committed baseline's.
pub fn scaling_speedup(
    entries: &[ParsedBenchEntry],
    bench: &str,
    low_id: &str,
    high_id: &str,
) -> Option<f64> {
    let wall = |id: &str| {
        entries
            .iter()
            .find(|e| e.bench == bench && e.id == id)
            .map(|e| e.wall_s)
    };
    let (low, high) = (wall(low_id)?, wall(high_id)?);
    (high > 0.0).then(|| low / high)
}

/// How many times [`time`] runs the workload `label` under the bench
/// binary's arguments `args`: `None` when a bare argument (a filter, as in
/// `cargo bench -- <filter>`) is not part of the label, once under
/// `--test` (a smoke run), and otherwise `samples` clamped to `1..=10`.
fn bench_runs(args: &[String], label: &str, samples: usize) -> Option<usize> {
    if let Some(filter) = args.iter().find(|a| !a.starts_with('-')) {
        if !label.contains(filter.as_str()) {
            return None;
        }
    }
    Some(if args.iter().any(|a| a == "--test") {
        1
    } else {
        samples.clamp(1, 10)
    })
}

/// Times `run` `samples` times (clamped to `1..=10`), then prints
/// `bench {label} min … median … ({n} samples)`. Under `--test` (a smoke
/// run) it runs once; when the bench binary got a bare argument (a
/// filter, as in `cargo bench -- <filter>`) that is not part of `label`,
/// not at all. Setup belongs outside `run`; its result is dropped after
/// the clock stops.
pub fn time<T>(label: &str, samples: usize, run: impl FnMut() -> T) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(Timing { min, median, runs }) = time_under(&args, label, samples, run) {
        println!("bench {label:<50} min {min:>12.3?}   median {median:>12.3?}   ({runs} samples)");
    }
}

/// The wall times [`time`] reports for one workload.
#[derive(Debug)]
struct Timing {
    min: std::time::Duration,
    median: std::time::Duration,
    runs: usize,
}

/// [`time`] under the bench binary's arguments `args`, without printing:
/// `None` when a filter skips `label`.
fn time_under<T>(
    args: &[String],
    label: &str,
    samples: usize,
    mut run: impl FnMut() -> T,
) -> Option<Timing> {
    let runs = bench_runs(args, label, samples)?;
    let mut times: Vec<std::time::Duration> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            let output = std::hint::black_box(run());
            let elapsed = start.elapsed();
            drop(output);
            elapsed
        })
        .collect();
    times.sort_unstable();
    Some(Timing {
        min: times[0],
        median: times[runs / 2],
        runs,
    })
}

/// Parses `--flag value` style arguments; returns the value for `flag`.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses a numeric `--flag value` with a default.
pub fn arg_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    arg_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_materializes() {
        for row in TABLE1.iter().filter(|r| r.nodes <= 260) {
            let dag = table1_dag(row);
            assert!(dag.num_nodes() >= row.nodes.min(dag.num_nodes()));
            dag.validate_for_pebbling().expect(row.name);
        }
    }

    #[test]
    fn c17_row_uses_real_netlist() {
        let row = TABLE1.iter().find(|r| r.name == "c17").expect("present");
        let dag = table1_dag(row);
        assert_eq!(dag.num_inputs(), 5);
        assert_eq!(dag.num_outputs(), 2);
    }

    #[test]
    fn bench_json_merges_per_bench() {
        let path = std::env::temp_dir().join(format!(
            "revpebble_bench_json_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let record = |bench, id: &str, conflicts| BenchRecord {
            bench,
            id: id.to_string(),
            wall_s: 0.5,
            propagations: 100,
            conflicts,
            arena_gcs: 1,
            imports: 0,
            exports: 0,
            dropped: 0,
            certified: None,
        };
        write_bench_json(&path, "alpha", &[record("alpha", "a/1", 1)]).expect("write");
        write_bench_json(
            &path,
            "beta",
            &[record("beta", "b/1", 2), record("beta", "b/2", 3)],
        )
        .expect("write");
        // Re-recording `alpha` replaces its entry but keeps `beta`'s.
        write_bench_json(&path, "alpha", &[record("alpha", "a/2", 9)]).expect("write");
        let contents = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert!(contents.starts_with("{ \"schema\": 1, \"entries\": ["));
        assert!(!contents.contains("\"id\":\"a/1\""), "{contents}");
        assert!(contents.contains("\"id\":\"a/2\""));
        assert!(contents.contains("\"id\":\"b/1\""));
        assert!(contents.contains("\"id\":\"b/2\""));
        assert_eq!(contents.matches("{\"bench\":").count(), 3);
        // Exactly one entry lacks the separating comma (the last).
        let entry_lines: Vec<&str> = contents
            .lines()
            .filter(|l| l.starts_with("{\"bench\":"))
            .collect();
        assert_eq!(entry_lines.iter().filter(|l| !l.ends_with(',')).count(), 1);
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let path = std::env::temp_dir().join(format!(
            "revpebble_bench_gate_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let records = [
            BenchRecord {
                bench: "gate",
                id: "fast".to_string(),
                wall_s: 0.25,
                propagations: 10,
                conflicts: 1,
                arena_gcs: 0,
                imports: 7,
                exports: 3,
                dropped: 1,
                certified: Some(20),
            },
            BenchRecord {
                bench: "gate",
                id: "slow".to_string(),
                wall_s: 2.0,
                propagations: 99,
                conflicts: 9,
                arena_gcs: 1,
                imports: 0,
                exports: 0,
                dropped: 0,
                certified: None,
            },
        ];
        write_bench_json(&path, "gate", &records).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let parsed = parse_bench_json(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].bench, "gate");
        assert_eq!(parsed[0].id, "fast");
        assert!((parsed[0].wall_s - 0.25).abs() < 1e-9);
        assert!((parsed[1].wall_s - 2.0).abs() < 1e-9);
        assert_eq!(parsed[0].imports, Some(7));
        assert_eq!(parsed[0].exports, Some(3));
        assert_eq!(parsed[0].dropped, Some(1));
        assert_eq!(parsed[0].certified, Some(20));
        assert_eq!(parsed[1].certified, None, "unannotated entries stay None");
        assert_eq!(
            (
                parsed[1].propagations,
                parsed[1].conflicts,
                parsed[1].arena_gcs
            ),
            (Some(99), Some(9), Some(1))
        );
    }

    #[test]
    fn exact_counters_flag_any_difference_of_the_gated_bench() {
        let entry = |bench: &str, id: &str, counters: Option<[u64; 3]>| ParsedBenchEntry {
            bench: bench.to_string(),
            id: id.to_string(),
            wall_s: 0.4,
            propagations: counters.map(|c| c[0]),
            conflicts: counters.map(|c| c[1]),
            arena_gcs: counters.map(|c| c[2]),
            ..ParsedBenchEntry::default()
        };
        let baseline = [
            entry("sat_solver", "same", Some([291_615, 21_813, 16])),
            entry("sat_solver", "moved", Some([42_706, 3_494, 4])),
            entry("sat_solver", "unrecorded", None),
            entry("minimize_incremental", "timed", Some([10, 1, 0])),
            entry(
                "minimize_incremental",
                "incremental/c17",
                Some([12_573, 143, 0]),
            ),
            entry(
                "minimize_incremental",
                "fresh/b3_m4",
                Some([75_128_104, 28_194, 0]),
            ),
        ];
        let fresh = [
            entry("sat_solver", "same", Some([291_615, 21_813, 16])),
            entry("sat_solver", "moved", Some([42_707, 3_494, 5])), // two counters moved
            entry("sat_solver", "unrecorded", Some([1, 1, 1])),     // no baseline counters
            entry("sat_solver", "brand-new", Some([1, 1, 1])),      // no baseline row
            entry("minimize_incremental", "timed", Some([20, 2, 1])), // not a gated row
            entry(
                "minimize_incremental",
                "incremental/c17",
                Some([12_573, 144, 0]),
            ), // gated
            entry("minimize_incremental", "fresh/b3_m4", Some([1, 1, 1])), // clock-bound: not gated
        ];
        let problems = compare_exact_counters(&baseline, &fresh);
        assert_eq!(
            problems,
            [
                "sat_solver/moved: propagations 42706 -> 42707",
                "sat_solver/moved: arena_gcs 4 -> 5",
                "minimize_incremental/incremental/c17: conflicts 143 -> 144",
            ]
        );
        assert!(compare_exact_counters(&baseline, &baseline).is_empty());
        // The committed baseline holds all eight gated rows.
        let committed = parse_bench_json(include_str!("../../../BENCH_sat.json"));
        let gated = committed
            .iter()
            .filter(|e| exact_counter_row(&e.bench, &e.id));
        assert_eq!(gated.count(), 8);
    }

    #[test]
    fn parser_tolerates_unknown_and_missing_fields() {
        // Old-shape entry (no sharing counters) and a future-shape entry
        // (an unknown field) must both parse; the gate never breaks on a
        // record schema it predates or postdates.
        let text = concat!(
            "{ \"schema\": 1, \"entries\": [\n",
            "{\"bench\":\"old\",\"id\":\"a\",\"wall_s\":1.0,\"propagations\":5,",
            "\"conflicts\":2,\"arena_gcs\":0},\n",
            "{\"bench\":\"new\",\"id\":\"b\",\"wall_s\":2.0,\"propagations\":5,",
            "\"conflicts\":2,\"arena_gcs\":0,\"imports\":4,\"exports\":6,",
            "\"dropped\":0,\"mystery_field\":99}\n",
            "] }\n"
        );
        let parsed = parse_bench_json(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].imports, None, "old entries lack the counters");
        assert_eq!(parsed[1].imports, Some(4));
        assert_eq!(parsed[1].exports, Some(6));
        assert_eq!(parsed[1].dropped, Some(0));
    }

    #[test]
    fn parser_reads_pretty_printed_entries_with_reordered_keys() {
        let compact = concat!(
            "{ \"schema\": 1, \"entries\": [\n",
            "{\"bench\":\"gate\",\"id\":\"fast\",\"wall_s\":0.250000,\"propagations\":10,",
            "\"conflicts\":1,\"arena_gcs\":0,\"imports\":7,\"exports\":3,\"dropped\":1,",
            "\"certified\":20},\n",
            "{\"bench\":\"gate\",\"id\":\"slow\",\"wall_s\":2.000000,\"propagations\":99,",
            "\"conflicts\":9,\"arena_gcs\":1,\"imports\":0,\"exports\":0,\"dropped\":0}\n",
            "] }\n"
        );
        let pretty = r#"{
  "entries": [
    {
      "certified": 20,
      "dropped": 1,
      "exports": 3,
      "imports": 7,
      "arena_gcs": 0,
      "conflicts": 1,
      "propagations": 10,
      "wall_s": 0.25,
      "id": "fast",
      "bench": "gate"
    },
    {
      "id": "slow",
      "bench": "gate",
      "dropped": 0,
      "wall_s": 2.0,
      "imports": 0,
      "exports": 0,
      "propagations": 99,
      "conflicts": 9,
      "arena_gcs": 1
    }
  ],
  "schema": 1
}
"#;
        let expected = parse_bench_json(compact);
        assert_eq!(expected.len(), 2);
        assert_eq!(parse_bench_json(pretty), expected);
    }

    #[test]
    fn sharing_collapse_is_flagged_and_absence_is_not() {
        let entry = |id: &str, imports: Option<u64>, exports: Option<u64>| ParsedBenchEntry {
            bench: "share".to_string(),
            id: id.to_string(),
            wall_s: 1.0,
            imports,
            exports,
            dropped: Some(0),
            ..ParsedBenchEntry::default()
        };
        let baseline = [
            entry("live", Some(100), Some(50)),
            entry("old", None, None),
            entry("solo", Some(0), Some(0)),
        ];
        let fresh = [
            entry("live", Some(0), Some(40)), // imports died: flagged
            entry("old", Some(9), Some(9)),   // baseline has no counters: skipped
            entry("solo", Some(0), Some(0)),  // zero on both sides: fine
        ];
        let problems = compare_sharing_fields(&baseline, &fresh);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("share/live"), "{}", problems[0]);
        assert!(problems[0].contains("imports"), "{}", problems[0]);
    }

    #[test]
    fn scaling_speedup_reads_the_worker_sweep() {
        let entry = |id: &str, wall_s| ParsedBenchEntry {
            bench: "clause_sharing".to_string(),
            id: id.to_string(),
            wall_s,
            ..ParsedBenchEntry::default()
        };
        let entries = [
            entry("shared/b3_m4/workers2", 8.0),
            entry("shared/b3_m4/workers16", 2.0),
        ];
        let speedup = scaling_speedup(
            &entries,
            "clause_sharing",
            "shared/b3_m4/workers2",
            "shared/b3_m4/workers16",
        );
        assert_eq!(speedup, Some(4.0));
        assert_eq!(
            scaling_speedup(&entries, "clause_sharing", "missing", "also-missing"),
            None
        );
    }

    #[test]
    fn bench_gate_flags_only_true_regressions() {
        let entry = |id: &str, wall_s| ParsedBenchEntry {
            bench: "b".to_string(),
            id: id.to_string(),
            wall_s,
            ..ParsedBenchEntry::default()
        };
        let baseline = [
            entry("steady", 1.0),
            entry("regressed", 1.0),
            entry("noise", 0.001),
            entry("retired", 1.0),
        ];
        let fresh = [
            entry("steady", 1.8),    // under 2x: fine
            entry("regressed", 2.5), // over 2x: flagged
            entry("noise", 0.004),   // 4x but under the noise floor
            entry("brand-new", 9.0), // no baseline: skipped
        ];
        let drifts = compare_bench_records(&baseline, &fresh, 2.0, 0.05);
        let regressed: Vec<&str> = drifts
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.key.as_str())
            .collect();
        assert_eq!(regressed, ["b/regressed"]);
        assert_eq!(drifts.len(), 2, "noise + unmatched entries are skipped");
        assert!(drifts.iter().all(|d| d.key != "b/brand-new"));
        // The skipped fresh-only entry is still *named*, so bench_gate
        // can log it as `new-bench (no baseline)` instead of losing it.
        assert_eq!(unmatched_fresh_keys(&baseline, &fresh), ["b/brand-new"]);
        assert!(unmatched_fresh_keys(&baseline, &baseline[..3]).is_empty());
    }

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn groups_run_benches_and_capture_timing() {
        let mut ran = 0;
        let timing = |argv: &[&str], samples, ran: &mut usize| {
            time_under(&args(argv), "fig34/solve/4", samples, || *ran += 1).unwrap()
        };
        // Test mode: exactly one sample, whatever the bench asks for.
        let smoke = timing(&["--test", "--bench"], 20, &mut ran);
        assert_eq!((smoke.runs, ran), (1, 1));
        assert_eq!(smoke.min, smoke.median);
        // Bench mode: the requested samples, clamped to 1..=10.
        for (samples, want) in [(20, 10), (0, 1), (3, 3)] {
            ran = 0;
            let bench = timing(&["--bench"], samples, &mut ran);
            assert_eq!((bench.runs, ran), (want, want));
            assert!(bench.min <= bench.median);
        }
    }

    #[test]
    fn filter_skips_non_matching_benches() {
        let mut ran = 0;
        let skipped = time_under(&args(&["--bench", "solve/5"]), "fig34/solve/4", 5, || {
            ran += 1
        });
        assert!(skipped.is_none());
        assert_eq!(ran, 0);
        let matched = time_under(&args(&["--bench", "solve/4"]), "fig34/solve/4", 5, || {
            ran += 1
        });
        assert_eq!(matched.map(|t| t.runs), Some(5));
        assert_eq!(ran, 5);
        let runs = |argv: &[&str]| bench_runs(&args(argv), "fig34/solve/4", 5);
        assert_eq!(runs(&["--test", "solve/4"]), Some(1));
        assert_eq!(runs(&["--test", "random_3sat"]), None);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--timeout", "5", "--rows", "c17"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_num(&args, "--timeout", 0u64), 5);
        assert_eq!(arg_value(&args, "--rows").as_deref(), Some("c17"));
        assert_eq!(arg_num(&args, "--missing", 7u64), 7);
    }
}
