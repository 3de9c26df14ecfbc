//! Work-bounded end-to-end and per-layer benchmark of the revpebble
//! stack (see `NOTES.md` in this directory).
//!
//! One command runs one workload at one seed: it builds a seeded load,
//! runs it through the stack's public APIs for a fixed time, checks every
//! answer against an independent oracle and prints every metric with its
//! unit. Every op ends on a step cap or a conflict budget, never on a
//! wall clock.

pub mod corpus;
pub mod library;
pub mod metrics;
pub mod serve;
pub mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use library::Kind;
use metrics::{
    json_line, median, EndToEnd, Layers, Window, END_TO_END, LAYER_METRICS, NOT_MEASURED,
};
use trace::Tracer;

/// The untraced window runs in segments of about this many seconds, and
/// the set-up is repeated after each segment; `setup_s` is the median of
/// every set-up of the run, the first timed from process start. On a
/// shared VM the same set-up runs at 5 ms for a few seconds and at 8 ms
/// for the next few, so set-ups spread over the whole run sample the same
/// stretches of the machine as the ops do, not just the seconds before
/// the first op.
pub const SEGMENT_SECONDS: f64 = 4.0;
/// Set-up time after each segment, as a share of the segment's seconds
/// (at least one set-up).
pub const SETUP_SHARE: f64 = 0.15;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: certify the smallest budget.
    Minimize,
    /// §IV-C: minimum-step strategy at a device size, then the circuit.
    Synth,
    /// The daemon under a closed loop.
    Serve,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "minimize" => Some(Workload::Minimize),
            "synth" => Some(Workload::Synth),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Minimize => "minimize",
            Workload::Synth => "synth",
            Workload::Serve => "serve",
        }
    }

    /// The highest percentile with at least ten samples beyond it at the
    /// workload's sample count.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Serve => 99.0,
            _ => 90.0,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The invocation.
    pub config: Config,
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    /// The untraced window (the whole run without `--trace 1`, its first
    /// half with it).
    pub untraced: Window,
    /// The traced window and its per-layer metrics.
    pub traced: Option<(Window, Layers)>,
    /// Questions per pass (library workloads).
    pub pass_len: Option<usize>,
    /// Label of each question (library workloads).
    pub labels: Vec<String>,
    /// Extra accounting lines (serve counters).
    pub accounting: Vec<String>,
    /// The spans, for the trace file.
    pub tracer: Option<Tracer>,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Ops attempted and failed over every window of the run.
    pub fn totals(&self) -> (usize, usize) {
        let windows = std::iter::once(&self.untraced).chain(self.traced.iter().map(|(w, _)| w));
        windows.fold((0, 0), |(attempted, failed), window| {
            let failures = window.ops.iter().filter(|op| op.failure.is_some()).count();
            (attempted + window.ops.len(), failed + failures)
        })
    }
}

/// Runs an untraced window of `seconds` as segments of about
/// [`SEGMENT_SECONDS`] (`segment(s)` runs one for about `s` seconds), and
/// after each segment repeats the set-up for [`SETUP_SHARE`] of a
/// segment's time, tearing each repeat down with `teardown`; the set-up
/// times join `setups`. Segment `i` ends at `i` segment lengths of window
/// time, so a segment that overran (a library window runs whole passes)
/// shortens the next one.
fn segmented<T>(
    seconds: f64,
    setups: &mut Vec<f64>,
    mut segment: impl FnMut(f64),
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) {
    let segments = ((seconds / SEGMENT_SECONDS).round() as usize).max(1);
    let length = seconds / segments as f64;
    let mut window = 0.0;
    for i in 1..=segments {
        let start = Instant::now();
        segment((length * i as f64 - window).max(0.0));
        window += start.elapsed().as_secs_f64();
        let mut spent = 0.0;
        loop {
            let start = Instant::now();
            let value = setup();
            let took = start.elapsed().as_secs_f64();
            teardown(value);
            setups.push(took);
            spent += took;
            if spent >= SETUP_SHARE * length {
                break;
            }
        }
    }
}

/// Runs one workload as configured.
pub fn run(config: Config, process_start: Instant) -> Outcome {
    match config.workload {
        Workload::Serve => run_serve(config, process_start),
        Workload::Minimize => run_library(Kind::Minimize, config, process_start),
        Workload::Synth => run_library(Kind::Synth, config, process_start),
    }
}

fn run_library(kind: Kind, config: Config, process_start: Instant) -> Outcome {
    let prep = library::prepare(kind, config.seed);
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let pass_len = Some(prep.pass.len());
    let labels = (0..prep.questions.len())
        .map(|q| library::label(&prep, q))
        .collect();
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let mut untraced = Window::default();
    segmented(
        seconds,
        &mut setups,
        |length| {
            let (window, _) = library::run_window(&prep, length, None);
            untraced.ops.extend(window.ops);
            untraced.wall += window.wall;
        },
        || library::prepare(kind, config.seed),
        drop,
    );
    if !config.trace {
        return Outcome {
            config,
            setups,
            untraced,
            traced: None,
            pass_len,
            labels,
            accounting: Vec::new(),
            tracer: None,
            peak_rss_mb: metrics::peak_rss_mb(),
        };
    }
    let mut tracer = Tracer::new();
    let (mut traced, answers) = library::run_window(&prep, seconds, Some(&mut tracer));
    let mut layers = Layers::default();
    library::replay(&prep, &mut traced, &answers, &mut tracer, &mut layers);
    library::window_layers(&traced, &tracer, &mut layers);
    Outcome {
        config,
        setups,
        untraced,
        traced: Some((traced, layers)),
        pass_len,
        labels,
        accounting: Vec::new(),
        tracer: Some(tracer),
        peak_rss_mb: metrics::peak_rss_mb(),
    }
}

fn run_serve(config: Config, process_start: Instant) -> Outcome {
    let mut prep = serve::prepare(config.seed);
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let mut exchanges = Vec::new();
    let mut wall = Duration::ZERO;
    segmented(
        seconds,
        &mut setups,
        |length| {
            let (segment, segment_wall) = serve::run_window(&mut prep, exchanges.len(), length);
            exchanges.extend(segment);
            wall += segment_wall;
        },
        || serve::prepare(config.seed),
        |old| {
            serve::finish(old);
        },
    );
    let untraced = serve::check(&prep.corpus, &exchanges, wall);
    // The tracer's epoch must precede the traced round trips it records.
    let mut tracer = config.trace.then(Tracer::new);
    let traced_exchanges = config.trace.then(|| {
        let (traced, wall) = serve::run_window(&mut prep, exchanges.len(), seconds);
        let window = serve::check(&prep.corpus, &traced, wall);
        (traced, window)
    });
    let mut frames = [0usize; serve::CONNECTIONS];
    let traced_iter = traced_exchanges
        .iter()
        .flat_map(|(traced, _)| traced.iter());
    for exchange in exchanges.iter().chain(traced_iter) {
        frames[exchange.connection] += 1;
    }
    // Drain the daemon first so its counters are final.
    let (stats, corpus) = serve::finish(prep);
    let accounting = vec![
        format!(
            "daemon counters: requests={} ok={} error={} overloaded={} panics={} \
             cache_hits={} cache_misses={}",
            stats.requests,
            stats.ok,
            stats.errors,
            stats.overloaded,
            stats.contained_panics,
            stats.cache_hits,
            stats.cache_misses
        ),
        format!(
            "frames sent per connection: {}",
            frames
                .iter()
                .enumerate()
                .map(|(connection, sent)| format!("conn{connection}={sent}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    let traced = traced_exchanges.map(|(exchanges, mut window)| {
        let spans = tracer.as_mut().expect("a traced run has a tracer");
        let mut layers = Layers::default();
        serve::traced_layers(&corpus, &mut window, &exchanges, &stats, spans, &mut layers);
        (window, layers)
    });
    let mut outcome = Outcome {
        config,
        setups,
        untraced,
        traced,
        pass_len: None,
        labels: Vec::new(),
        accounting,
        tracer,
        peak_rss_mb: metrics::peak_rss_mb(),
    };
    // A request the daemon answered with an error or shed counts against
    // the run even if no client saw it (there are none such today).
    let daemon_failures = stats.errors + stats.overloaded + stats.contained_panics;
    if daemon_failures > 0 {
        if let Some(op) = outcome.untraced.ops.first_mut() {
            op.fail(format!(
                "the daemon counted {daemon_failures} failed requests"
            ));
        }
    }
    outcome
}

/// The printed report: human-readable lines, then the JSON line last.
pub fn render(outcome: &Outcome) -> String {
    let config = outcome.config;
    let workload = config.workload;
    let tail = workload.tail_percentile();
    let tail_name = format!("latency_p{tail:.0}_ms");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# perfbench workload={} seed={} seconds={} trace={} cores={}",
        workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let setup_s = median(&outcome.setups);
    let mut sorted = outcome.setups.clone();
    sorted.sort_by(f64::total_cmp);
    let _ = writeln!(
        out,
        "{:<26} {setup_s:>12.4} s        median of {} set-ups (min {:.4}, max {:.4}, first {:.4})",
        "setup_s",
        sorted.len(),
        sorted[0],
        sorted[sorted.len() - 1],
        outcome.setups[0]
    );
    let untraced = outcome.untraced.end_to_end(tail);
    let (attempted, failed) = outcome.totals();
    let passes = outcome
        .pass_len
        .map(|len| {
            format!(
                " ({} passes of {len} questions)",
                untraced.attempted / len.max(1)
            )
        })
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "{:<26} attempted={} succeeded={} failed={}{passes}",
        "ops",
        untraced.attempted,
        untraced.attempted - untraced.failed,
        untraced.failed
    );
    let rows = |e: &EndToEnd| -> Vec<(String, f64, &'static str, String)> {
        let beyond = ((100.0 - tail) / 100.0 * e.attempted as f64).floor();
        vec![
            (
                "ops_per_s".into(),
                e.ops_per_s,
                "1/s",
                format!("{} ops / {:.3} s", e.attempted, e.wall_s),
            ),
            (
                "latency_p50_ms".into(),
                e.p50_ms,
                "ms",
                format!("n={}", e.attempted),
            ),
            (
                tail_name.clone(),
                e.tail_ms,
                "ms",
                format!("n={}, {beyond:.0} samples beyond", e.attempted),
            ),
            (
                "fail_frac".into(),
                e.failed as f64 / e.attempted.max(1) as f64,
                "",
                format!("{} / {}", e.failed, e.attempted),
            ),
            (
                "strategy_pebbles".into(),
                e.pebbles,
                "pebbles",
                format!("mean over {} strategies", e.strategies),
            ),
            (
                "strategy_steps".into(),
                e.steps,
                "steps",
                format!("mean over {} strategies", e.strategies),
            ),
        ]
    };
    match &outcome.traced {
        None => {
            for (name, value, unit, note) in rows(&untraced) {
                let _ = writeln!(out, "{name:<26} {value:>12.4} {unit:<8} {note}");
            }
        }
        Some((window, _)) => {
            let traced = window.end_to_end(tail);
            let _ = writeln!(
                out,
                "# end to end: untraced half | traced half | tracing overhead"
            );
            for ((name, plain, unit, note), (_, with, _, traced_note)) in
                rows(&untraced).into_iter().zip(rows(&traced))
            {
                let overhead = if plain != 0.0 {
                    format!("{:+.1}%", (with - plain) / plain * 100.0)
                } else {
                    "-".into()
                };
                let _ = writeln!(
                    out,
                    "{name:<26} {plain:>12.4} | {with:>12.4} {unit:<8} overhead {overhead:>7}   \
                     [{note} | {traced_note}]"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{:<26} {:>12.4} MiB      VmHWM of the benchmark process",
        "peak_rss_mb", outcome.peak_rss_mb
    );
    for line in &outcome.accounting {
        let _ = writeln!(out, "{line}");
    }
    if !outcome.labels.is_empty() {
        // Per-question medians, cheapest first: where each percentile
        // rank falls, and which question moved.
        let mut per_question: Vec<Vec<f64>> = vec![Vec::new(); outcome.labels.len()];
        for op in &outcome.untraced.ops {
            per_question[op.question].push(metrics::ms(op.latency));
        }
        let mut medians: Vec<(f64, &str)> = per_question
            .iter()
            .zip(&outcome.labels)
            .map(|(latencies, label)| (median(latencies), label.as_str()))
            .collect();
        medians.sort_by(|a, b| a.0.total_cmp(&b.0));
        let listed: Vec<String> = medians
            .iter()
            .map(|(latency, label)| format!("{label}={latency:.2}"))
            .collect();
        let _ = writeln!(out, "question medians (ms): {}", listed.join(" "));
    }
    if let Some((_, layers)) = &outcome.traced {
        let _ = writeln!(out, "# per layer (traced half and its replays)");
        for (name, unit, _) in LAYER_METRICS {
            match (layers.values.get(name), layers.absent.get(name)) {
                (Some(value), _) => {
                    let _ = writeln!(out, "{name:<26} {value:>12.4} {unit}");
                }
                (None, Some(reason)) => {
                    let _ = writeln!(out, "{name:<26} {:>12} n/a: {reason}", "-");
                }
                (None, None) => {
                    let _ = writeln!(out, "{name:<26} {:>12} n/a: not measured", "-");
                }
            }
        }
        for name in NOT_MEASURED {
            let _ = writeln!(
                out,
                "{name:<26} {:>12} n/a: only a portfolio race exchanges clauses, and no \
                 workload runs one (NOTES.md)",
                "-"
            );
        }
    }
    let mut failures = 0;
    let windows = std::iter::once(&outcome.untraced).chain(outcome.traced.iter().map(|(w, _)| w));
    for op in windows.flat_map(|window| &window.ops) {
        if let Some(reason) = &op.failure {
            failures += 1;
            if failures <= 10 {
                let _ = writeln!(out, "FAILED: {reason}");
            }
        }
    }
    // A per-layer metric of the JSON line that no span or counter filled
    // fails the run: reading it as 0 would look like a perfect gain.
    let mut unmeasured = Vec::new();
    let metrics: Vec<(&str, &str, f64)> = match &outcome.traced {
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => setup_s,
                    "ops_per_s" => untraced.ops_per_s,
                    "latency_p50_ms" => untraced.p50_ms,
                    "latency_tail_ms" => untraced.tail_ms,
                    "peak_rss_mb" => outcome.peak_rss_mb,
                    "strategy_pebbles" => untraced.pebbles,
                    "strategy_steps" => untraced.steps,
                    other => unreachable!("unknown end-to-end metric {other}"),
                };
                (name, unit, value)
            })
            .collect(),
        Some((_, layers)) => LAYER_METRICS
            .iter()
            .filter(|(_, _, in_json)| *in_json)
            .filter_map(|&(name, unit, _)| match layers.values.get(name) {
                Some(&value) if value.is_finite() => Some((name, unit, value)),
                _ => {
                    unmeasured.push(name);
                    None
                }
            })
            .collect(),
    };
    for name in &unmeasured {
        let _ = writeln!(out, "FAILED: per-layer metric {name} was not measured");
    }
    let correct = failed == 0 && unmeasured.is_empty();
    out.push_str(&json_line(correct, attempted, failed, &metrics));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_per_layer_metric_with_no_value_fails_the_traced_run() {
        let mut layers = Layers::default();
        for (name, _, _) in LAYER_METRICS {
            layers.set(name, 1.0);
        }
        let outcome = |layers: Layers| Outcome {
            config: Config {
                workload: Workload::Synth,
                seed: 1,
                seconds: 0.0,
                trace: true,
            },
            setups: vec![0.01],
            untraced: Window::default(),
            traced: Some((Window::default(), layers)),
            pass_len: None,
            labels: Vec::new(),
            accounting: Vec::new(),
            tracer: None,
            peak_rss_mb: 1.0,
        };
        let last_line = |layers: Layers| {
            let report = render(&outcome(layers));
            report.lines().last().expect("a report").to_owned()
        };
        assert!(last_line(layers).starts_with("{\"correct\":true,"));
        let mut missing = Layers::default();
        for (name, _, _) in LAYER_METRICS.iter().skip(1) {
            missing.set(name, 1.0);
        }
        let report = render(&outcome(missing));
        assert!(report.contains("FAILED: per-layer metric graph.parse_us was not measured"));
        assert!(report
            .lines()
            .last()
            .expect("a report")
            .starts_with("{\"correct\":false,"));
    }
}
