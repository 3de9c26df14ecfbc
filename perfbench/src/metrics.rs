//! What one run measured, and how it is printed.
//!
//! End-to-end numbers come from the untraced timed window; per-layer
//! numbers from the traced window and the replays after it. The last
//! stdout line is one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::trace::Tracer;

/// Exact per-op work counters (solver statistics and session counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT propagations.
    pub propagations: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// Clause-arena garbage collections.
    pub arena_gcs: u64,
    /// SAT queries issued by the probe loop.
    pub queries: u64,
    /// Budget probes.
    pub probes: u64,
    /// Probe and session attempts re-run after transient failures.
    pub retries: u64,
    /// Certified budget-floor raises.
    pub floor_raises: u64,
    /// Universal step refutations from budget-free cores.
    pub step_tightenings: u64,
}

/// One timed op: a session, a synthesis or a request.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Which question of the workload's corpus the op asked.
    pub question: usize,
    /// Call to return (library ops) or frame sent to response line
    /// received (serve).
    pub latency: Duration,
    /// Engine time the program itself reports (`Report::wall`, or the
    /// response's `wall_s`).
    pub engine: Duration,
    /// Why the op counts as failed; `None` once every check passed.
    pub failure: Option<String>,
    /// Pebbles of the returned strategy.
    pub pebbles: Option<usize>,
    /// Steps of the returned strategy.
    pub steps: Option<usize>,
    /// Exact work counters.
    pub counters: Counters,
}

impl OpRecord {
    /// A record with no answer yet.
    pub fn new(question: usize, latency: Duration) -> Self {
        OpRecord {
            question,
            latency,
            engine: Duration::ZERO,
            failure: None,
            pebbles: None,
            steps: None,
            counters: Counters::default(),
        }
    }

    /// Marks the op failed (the first reason sticks).
    pub fn fail(&mut self, reason: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(reason.into());
        }
    }
}

/// The ops of one timed window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Every op attempted, in completion order.
    pub ops: Vec<OpRecord>,
    /// Timed wall time: inside the ops for library workloads (the checks
    /// between ops are excluded), first send to last response for serve.
    pub wall: Duration,
}

/// The end-to-end view of one window.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed a check.
    pub failed: usize,
    /// Timed wall time in seconds.
    pub wall_s: f64,
    /// Ops completed per second of timed wall.
    pub ops_per_s: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// Tail latency at the workload's tail percentile.
    pub tail_ms: f64,
    /// Mean pebbles of the returned strategies.
    pub pebbles: f64,
    /// Mean steps of the returned strategies.
    pub steps: f64,
    /// Strategies the means are taken over.
    pub strategies: usize,
}

impl Window {
    /// Summarises the window with the tail taken at `tail` percent.
    pub fn end_to_end(&self, tail: f64) -> EndToEnd {
        let mut latencies: Vec<f64> = self.ops.iter().map(|op| ms(op.latency)).collect();
        latencies.sort_by(f64::total_cmp);
        let with_strategy: Vec<&OpRecord> =
            self.ops.iter().filter(|op| op.steps.is_some()).collect();
        let mean = |f: &dyn Fn(&OpRecord) -> usize| {
            with_strategy.iter().map(|op| f(op) as f64).sum::<f64>()
                / with_strategy.len().max(1) as f64
        };
        let wall_s = self.wall.as_secs_f64();
        EndToEnd {
            attempted: self.ops.len(),
            failed: self.ops.iter().filter(|op| op.failure.is_some()).count(),
            wall_s,
            ops_per_s: self.ops.len() as f64 / wall_s.max(1e-9),
            p50_ms: percentile(&latencies, 50.0),
            tail_ms: percentile(&latencies, tail),
            pebbles: mean(&|op| op.pebbles.unwrap_or(0)),
            steps: mean(&|op| op.steps.unwrap_or(0)),
            strategies: with_strategy.len(),
        }
    }
}

/// Milliseconds as `f64`.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Microseconds as `f64`.
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// The `pct`-th percentile of sorted `values`, linearly interpolated
/// between closest ranks; `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = pct / 100.0 * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// The median of unsorted `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every per-layer metric with its unit, in print order. The ones marked
/// `false` exist only on `serve` (a wire round trip), so the JSON line —
/// which must carry the same metrics on every workload — leaves them out;
/// the human-readable report prints them where they apply.
pub const LAYER_METRICS: [(&str, &str, bool); 36] = [
    ("graph.parse_us", "us", true),
    ("graph.fingerprint_us", "us", true),
    ("encoding.build_ms", "ms", true),
    ("encoding.vars_per_step", "count", true),
    ("encoding.clauses_per_step", "count", true),
    ("encoding.extract_us", "us", true),
    ("sat.find_ms", "ms", true),
    ("sat.refute_ms", "ms", true),
    ("sat.conflicts", "count", true),
    ("sat.propagations", "count", true),
    ("sat.decisions", "count", true),
    ("sat.arena_gcs", "count", true),
    ("sat.props_per_s", "1/s", true),
    ("sat.queries", "count", true),
    ("solver.probes", "count", true),
    ("solver.probe_ms", "ms", true),
    ("solver.refuted_share", "frac", true),
    ("circuit.compile_us", "us", true),
    ("circuit.qasm_us", "us", true),
    ("circuit.gates", "count", true),
    ("session.plan_us", "us", true),
    ("session.overhead_ms", "ms", true),
    ("session.engine_p50_ms", "ms", true),
    ("session.engine_p99_ms", "ms", true),
    ("session.cache_hit_frac", "frac", true),
    ("session.retries", "count", true),
    ("sharing.floor_raises", "count", true),
    ("sharing.step_tightenings", "count", true),
    ("wire.overhead_p50_ms", "ms", false),
    ("wire.overhead_p99_ms", "ms", false),
    ("wire.request_parse_us", "us", true),
    ("wire.response_json_us", "us", true),
    ("wire.frame_kb", "KiB", true),
    ("wire.errors", "count", true),
    ("wire.overloaded", "count", true),
    ("wire.panics", "count", true),
];

/// Per-layer metrics of clause exchange that no workload measures: only a
/// cooperative portfolio race exchanges clauses, and that workload is
/// left out until it can be made steady (see `NOTES.md`).
pub const NOT_MEASURED: [&str; 6] = [
    "sharing.imports",
    "sharing.exports",
    "sharing.dropped",
    "sharing.import_per_export",
    "sharing.loser_conflict_share",
    "sharing.cancel_lag_ms",
];

/// Per-layer values of one traced run, plus the reason for every metric
/// a workload cannot measure from outside.
#[derive(Debug, Default)]
pub struct Layers {
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why a metric is absent on this workload.
    pub absent: BTreeMap<&'static str, &'static str>,
}

impl Layers {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(known, _, _)| *known == name),
            "{name} is not a listed per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// Records why a metric does not apply.
    pub fn absent(&mut self, name: &'static str, reason: &'static str) {
        self.absent.insert(name, reason);
    }
}

/// Span-derived per-layer times: the median self time per call.
pub fn fill_span_layers(tracer: &Tracer, layers: &mut Layers) {
    let by_name = tracer.self_times_by_name();
    type Scale = fn(Duration) -> f64;
    let spans: [(&str, &'static str, Scale); 12] = [
        ("graph.parse", "graph.parse_us", us),
        ("graph.fingerprint", "graph.fingerprint_us", us),
        ("encoding.build", "encoding.build_ms", ms),
        ("encoding.extract", "encoding.extract_us", us),
        ("sat.find", "sat.find_ms", ms),
        ("sat.refute", "sat.refute_ms", ms),
        ("circuit.compile", "circuit.compile_us", us),
        ("circuit.qasm", "circuit.qasm_us", us),
        ("session.plan", "session.plan_us", us),
        // `session.run` minus its `session.engine` child.
        ("session.run", "session.overhead_ms", ms),
        ("wire.request_parse", "wire.request_parse_us", us),
        ("wire.response_json", "wire.response_json_us", us),
    ];
    for (span, metric, unit) in spans {
        match by_name.get(span) {
            Some(times) => {
                let values: Vec<f64> = times.iter().map(|&t| unit(t)).collect();
                layers.set(metric, median(&values));
            }
            None => layers.absent(metric, "no op of this run reached the layer"),
        }
    }
    let durations = |name: &str| -> Vec<f64> {
        by_name
            .get(name)
            .map(|times| times.iter().map(|&t| ms(t)).collect())
            .unwrap_or_default()
    };
    let solved = durations("solver.probe.solved");
    let refuted = durations("solver.probe.refuted");
    let probes: Vec<f64> = solved.iter().chain(&refuted).copied().collect();
    layers.set("solver.probe_ms", median(&probes));
    let run_ms: f64 = tracer
        .spans()
        .iter()
        .filter(|span| span.name == "session.run")
        .map(|span| ms(span.end - span.start))
        .sum();
    // `fold` from +0.0: an empty `sum` of floats is -0.0.
    let refuted_ms = refuted.iter().fold(0.0, |total, ms| total + ms);
    layers.set("solver.refuted_share", refuted_ms / run_ms.max(1e-9));
}

/// Per-op means of the exact counters, and the propagation rate.
pub fn fill_counter_layers(window: &Window, layers: &mut Layers) {
    let ops = window.ops.len().max(1) as f64;
    let sum = |f: fn(&Counters) -> u64| -> f64 {
        window.ops.iter().map(|op| f(&op.counters) as f64).sum()
    };
    type Field = fn(&Counters) -> u64;
    let per_op: [(&'static str, Field); 9] = [
        ("sat.conflicts", |c| c.conflicts),
        ("sat.propagations", |c| c.propagations),
        ("sat.decisions", |c| c.decisions),
        ("sat.arena_gcs", |c| c.arena_gcs),
        ("sat.queries", |c| c.queries),
        ("solver.probes", |c| c.probes),
        ("session.retries", |c| c.retries),
        ("sharing.floor_raises", |c| c.floor_raises),
        ("sharing.step_tightenings", |c| c.step_tightenings),
    ];
    for (name, field) in per_op {
        layers.set(name, sum(field) / ops);
    }
    let op_seconds: f64 = window.ops.iter().map(|op| op.latency.as_secs_f64()).sum();
    layers.set(
        "sat.props_per_s",
        sum(|c| c.propagations) / op_seconds.max(1e-9),
    );
}

/// `session.engine_p50_ms` / `session.engine_p99_ms` from the engine
/// times the program reports.
pub fn fill_engine_percentiles(engine_ms: &[f64], layers: &mut Layers) {
    let mut sorted = engine_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    layers.set("session.engine_p50_ms", percentile(&sorted, 50.0));
    layers.set("session.engine_p99_ms", percentile(&sorted, 99.0));
}

/// The end-to-end metric names of the JSON line, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("strategy_pebbles", "pebbles"),
    ("strategy_steps", "steps"),
];

/// Renders the final JSON line.
pub fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (index, (name, unit, value)) in metrics.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 90.0), 4.6);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let line = json_line(true, 3, 0, &[("ops_per_s", "1/s", 1.5)]);
        let value = revpebble::graph::json::parse_json(&line).expect("valid JSON");
        let keys: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = value.get("metrics").and_then(|m| m.get("ops_per_s"));
        assert_eq!(
            metric.and_then(|m| m.get("value")).and_then(|v| v.as_f64()),
            Some(1.5)
        );
    }
}
