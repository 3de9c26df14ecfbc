//! Batch-serving throughput of the shared-executor session runtime: one
//! `SessionRuntime` serves a round-robin mix of minimize workloads (three
//! rounds over seven distinct DAGs, spawned up front and joined in submit
//! order) on a fixed 4-worker pool with a per-session conflict quota and
//! a shared `ResultCache`. Repeat rounds
//! are where the cache earns its keep — by the third round every DAG's
//! answer is in the cache, so the measured batch mixes cold solves with
//! near-free replays, exactly like a real serving workload.
//!
//! Measured quantities, landed in `BENCH_sat.json` for the `bench_gate`
//! wall-clock drift check (all in seconds, so the generic ≤2× gate
//! applies to each):
//!
//! - `batch21/workers4/wall` — total wall of the whole batch;
//! - `batch21/workers4/s_per_session` — mean seconds per served session
//!   (the inverse of sessions/sec, oriented so drift *up* = regression);
//! - `batch21/workers4/p50` and `…/p99` — per-session latency
//!   percentiles over the batch (each session's own `Report::wall`).
//!
//! Machine-robust invariants are asserted (every session certifies, the
//! cache counters add up, repeats hit); absolute rates are printed.

use revpebble::core::{EncodingOptions, MoveMode, PebblingSession, SessionRuntime, SolverOptions};
use revpebble::graph::generators::{and_tree, chain, paper_example, random_dag};
use revpebble::graph::{parse_bench, Dag};
use revpebble_bench::{record_bench_json, BenchRecord};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const ROUNDS: usize = 3;

fn workloads() -> Vec<(String, Dag)> {
    vec![
        ("paper".to_string(), paper_example()),
        (
            "c17".to_string(),
            parse_bench(revpebble::graph::data::C17_BENCH).expect("embedded c17 parses"),
        ),
        ("andtree9".to_string(), and_tree(9)),
        ("andtree11".to_string(), and_tree(11)),
        ("chain12".to_string(), chain(12)),
        ("random12".to_string(), random_dag(4, 12, 0xDA7E_2019)),
        ("random14".to_string(), random_dag(5, 14, 0x5E55_1019)),
    ]
}

fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    let index = ((sorted.len() as f64 - 1.0) * fraction).round() as usize;
    sorted[index]
}

fn main() {
    let dags = workloads();
    let sessions = dags.len() * ROUNDS;

    let runtime = SessionRuntime::new(WORKERS)
        .expect("a positive worker count")
        .per_session_quota(5_000_000);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(sessions);
    for round in 0..ROUNDS {
        for (name, dag) in &dags {
            // Decisive regime per DAG: a step cap above any optimum these
            // instances admit, so every probe ends in SAT or a certified
            // StepLimit and each session certifies without clock races.
            let base = SolverOptions {
                encoding: EncodingOptions {
                    move_mode: MoveMode::Sequential,
                    ..EncodingOptions::default()
                },
                max_steps: 4 * dag.num_nodes() + 20,
                ..SolverOptions::default()
            };
            let session = PebblingSession::new(dag)
                .solver_options(base)
                .minimize()
                .incremental(true)
                .per_query_timeout(Duration::from_secs(60));
            let handle = runtime
                .spawn(session, runtime.root().child())
                .expect("a valid batch configuration");
            handles.push((format!("{name}#{round}"), handle));
        }
    }
    let reports: Vec<_> = handles
        .into_iter()
        .map(|(name, handle)| (name, handle.join()))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();
    let (cache_hits, cache_misses) = (runtime.cache().hits(), runtime.cache().misses());

    assert_eq!(reports.len(), sessions);
    let mut latencies = Vec::with_capacity(sessions);
    let (mut queries, mut conflicts) = (0u64, 0u64);
    for (name, session) in &reports {
        assert!(
            session.minimum.is_some(),
            "{name}: every serving workload certifies (stop: {:?})",
            session.stop_reason
        );
        latencies.push(session.wall.as_secs_f64());
        for worker in &session.workers {
            queries += worker.queries as u64;
            conflicts += worker.conflicts;
        }
    }
    assert_eq!(
        cache_hits + cache_misses,
        sessions as u64,
        "every session consults the shared cache exactly once"
    );
    // Rounds 2 and 3 resubmit round 1's DAGs: with 4 workers and 15
    // FIFO-queued jobs, the last round starts long after the first
    // round's inserts, so repeats must hit.
    assert!(
        cache_hits >= ROUNDS as u64 - 1,
        "repeat rounds are served from the cache (hits: {cache_hits})"
    );

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let per_session = wall_s / sessions as f64;
    println!(
        "service_throughput: {sessions} sessions on {WORKERS} workers in {wall_s:.3}s \
         ({:.1} sessions/s) | latency p50={p50:.4}s p99={p99:.4}s \
         | cache {cache_hits} hits / {cache_misses} misses \
         | {queries} SAT queries, {conflicts} conflicts",
        sessions as f64 / wall_s,
    );

    // Per-worker summaries surface conflicts but not propagations; the
    // unmeasured counters stay 0.
    let record = |suffix: &str, value: f64, with_counters: bool| BenchRecord {
        bench: "service_throughput",
        id: format!("batch{sessions}/workers{WORKERS}/{suffix}"),
        wall_s: value,
        propagations: 0,
        conflicts: if with_counters { conflicts } else { 0 },
        arena_gcs: 0,
        imports: 0,
        exports: 0,
        dropped: 0,
        certified: None,
    };
    record_bench_json(
        "service_throughput",
        &[
            record("wall", wall_s, true),
            record("s_per_session", per_session, false),
            record("p50", p50, false),
            record("p99", p99, false),
        ],
    );
}
