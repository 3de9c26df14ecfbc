//! The library workloads — `minimize` and `synth` — run through the
//! `revpebble` facade on this thread, one op at a time.
//!
//! - `minimize`: one incremental minimize session per op (Table I).
//! - `synth`: one fixed-budget session per op, then the circuit chain
//!   `compile` → `lower` → `to_qasm` (§IV-C, Fig. 6).
//!
//! A pass asks every question of the corpus (the light ones several
//! times); a window runs whole passes until its time is up, so every run
//! weighs the questions alike.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use revpebble::circuit::{compile, lower, to_qasm, CompiledCircuit, VerifyOutcome};
use revpebble::core::bounds::{pebble_lower_bound, step_lower_bound};
use revpebble::core::{
    BoundMode, BudgetSchedule, EncodingOptions, PebbleEncoding, PebbleOutcome, PebbleSolver,
    PebblingSession, ProbeEvent, Report, SessionOutcome, Strategy,
};
use revpebble::sat::{CancelReason, SolveResult, SolverStats};
use revpebble_serve::protocol::ok_response;
use revpebble_serve::Request;

use crate::corpus::{exact_min_steps, named, random_designs, table1_rows, Design, CLOCK};
use crate::metrics::{
    fill_counter_layers, fill_engine_percentiles, fill_span_layers, median, ms, Counters, Layers,
    OpRecord, Window,
};
use crate::trace::Tracer;

/// Which library workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Certify the smallest budget, one incremental session per op.
    Minimize,
    /// Minimum-step strategy at a fixed budget, then the circuit chain.
    Synth,
}

/// One question: a design and, for `synth`, the budget.
#[derive(Debug, Clone)]
pub struct Question {
    /// Index into [`Prepared::designs`].
    pub design: usize,
    /// The fixed budget (`synth` only).
    pub pebbles: Option<usize>,
    /// The oracle's minimum step count at that budget (`synth` only).
    pub min_steps: Option<usize>,
}

/// Everything a library workload needs before its first timed op.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    /// The designs asked about.
    pub designs: Vec<Design>,
    /// The questions.
    pub questions: Vec<Question>,
    /// One pass: question indices in the order they are asked.
    pub pass: Vec<usize>,
}

/// What an op returned: checked as the op completes, and kept for the
/// traced replay.
#[derive(Debug)]
pub struct Answer {
    /// The session's report.
    pub report: Report,
    /// The returned strategy.
    pub strategy: Option<Strategy>,
    /// The compiled circuit (`synth`).
    pub compiled: Option<CompiledCircuit>,
    /// A probe ended on the wall clock.
    pub clock_bound: bool,
}

/// Builds the corpus and its oracle answers for `kind` at `seed`.
///
/// Latency percentiles pool every op of a window, and a window is whole
/// passes, so a percentile lands at a fixed rank of one pass. The named
/// designs and their repeats per pass are chosen so that the p50 and p90
/// ranks fall inside the repeats of named questions, and the seeded
/// random draws are small enough that most cost less than the p50
/// question: the seed varies the load without moving the ranks, so
/// percentiles stay comparable across seeds.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    // (named designs with their asks per pass, random draws, their node
    // range)
    let (named_asks, random, nodes) = match kind {
        // Small designs are asked four times as often as the Table I
        // rows and the two biggest decisive designs, `chain8` twelve
        // times. A pass is 52 ops: 20 usually cheaper than `chain8`
        // (the 8 random draws among them), its 12, and 20 dearer. p50
        // (rank 25.5) falls inside the `chain8` repeats as long as at
        // most five draws cost more than `chain8`, and p90 (rank 45.9)
        // inside the `chain10` repeats as long as at most one draw costs
        // more than `chain10`.
        Kind::Minimize => {
            let light = [
                ("paper", 4),
                ("c17", 4),
                ("hop", 4),
                ("chain8", 12),
                ("bintree3", 4),
                ("andtree9", 4),
                ("adder4", 4),
                ("chain10", 4),
                ("chain12", 1),
                ("andtree11", 1),
            ];
            let mut asks: Vec<(Design, usize)> = light
                .iter()
                .map(|&(name, asks)| (named(name), asks))
                .collect();
            asks.extend(table1_rows().into_iter().map(|row| (row, 1)));
            (asks, 8, (8, 9))
        }
        // Every device size of each design: p50 falls on `adder4` at
        // 11 pebbles, p90 on `chain10` at 7.
        Kind::Synth => (
            ["paper", "c17", "hop", "andtree9", "adder4", "chain10"]
                .iter()
                .map(|name| (named(name), 1))
                .collect::<Vec<_>>(),
            2,
            (6, 6),
        ),
    };
    let drawn = random_designs(seed, (kind as u64 + 1) << 32, random, nodes);
    let named_count = named_asks.len();
    let (mut designs, mut asks): (Vec<Design>, Vec<usize>) = named_asks.into_iter().unzip();
    asks.extend(std::iter::repeat_n(1, drawn.len()));
    designs.extend(drawn);
    let mut questions = Vec::new();
    let mut question_asks = Vec::new();
    for (index, design) in designs.iter().enumerate() {
        let budgets = match kind {
            // Every device size from the certified minimum up to
            // Bennett's count (the paper's qubit/gate trade-off sweep);
            // random draws ask at Bennett's count only.
            Kind::Synth if index < named_count => {
                design.min_pebbles.expect("decisive designs have an oracle")
                    ..=design.bennett_pebbles()
            }
            Kind::Synth => design.bennett_pebbles()..=design.bennett_pebbles(),
            _ => {
                questions.push(Question {
                    design: index,
                    pebbles: None,
                    min_steps: None,
                });
                question_asks.push(asks[index]);
                continue;
            }
        };
        for pebbles in budgets {
            questions.push(Question {
                design: index,
                pebbles: Some(pebbles),
                min_steps: Some(exact_min_steps(&design.dag, pebbles)),
            });
            question_asks.push(asks[index]);
        }
    }
    // A pass: every question once, then the repeats of the light ones.
    let most = question_asks.iter().copied().max().unwrap_or(1);
    let asked = &question_asks;
    let pass = (0..most)
        .flat_map(|round| (0..asked.len()).filter(move |&q| asked[q] > round))
        .collect();
    Prepared {
        kind,
        designs,
        questions,
        pass,
    }
}

/// A short label for question `index`.
pub fn label(prep: &Prepared, index: usize) -> String {
    let question = &prep.questions[index];
    let name = &prep.designs[question.design].name;
    match question.pebbles {
        Some(pebbles) => format!("{name}/P{pebbles}"),
        None => name.clone(),
    }
}

/// Runs whole passes until `seconds` have elapsed, checking each op as it
/// completes. The window's timed wall is the time spent inside ops; the
/// checks between them are the benchmark's own work. With a tracer, every
/// op records its plan, run, engine and probe spans, and the first answer
/// to each question is kept (with its op index) for the replay.
pub fn run_window(
    prep: &Prepared,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> (Window, Vec<(usize, Answer)>) {
    let mut window = Window::default();
    let mut kept = Vec::new();
    let mut answered = vec![false; prep.questions.len()];
    let start = Instant::now();
    loop {
        for &question in &prep.pass {
            let op = window.ops.len();
            let (mut record, answer) = run_op(prep, question, op, tracer.as_deref_mut());
            check(prep, &mut record, &answer);
            window.wall += record.latency;
            if tracer.is_some() && !std::mem::replace(&mut answered[question], true) {
                kept.push((op, answer));
            }
            window.ops.push(record);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (window, kept)
}

type EventLog = Arc<Mutex<Vec<(Instant, ProbeEvent)>>>;

fn run_op(
    prep: &Prepared,
    question_index: usize,
    op: usize,
    tracer: Option<&mut Tracer>,
) -> (OpRecord, Answer) {
    let question = &prep.questions[question_index];
    let design = &prep.designs[question.design];
    let mut session = PebblingSession::new(&design.dag).solver_options(design.options);
    session = match prep.kind {
        Kind::Synth => session
            .pebbles(question.pebbles.expect("synth questions carry a budget"))
            .timeout(CLOCK),
        Kind::Minimize => session.minimize().per_query_timeout(CLOCK),
    };
    if design.budgeted {
        session = session.budget(BudgetSchedule::Descending {
            stride: design.descending_stride(),
        });
    }
    if let Some(guard) = design.guard {
        session = session.quota(guard);
    }
    let events: Option<EventLog> = tracer.is_some().then(EventLog::default);
    if let Some(events) = &events {
        let sink = Arc::clone(events);
        session = session.on_event(move |event| {
            sink.lock()
                .expect("event log lock")
                .push((Instant::now(), event));
        });
    }
    let plan_start = Instant::now();
    if tracer.is_some() {
        session.plan().expect("a valid session configuration");
    }
    let start = Instant::now();
    let report = session.run().expect("a valid session configuration");
    let run_end = Instant::now();
    let strategy = report.strategy().cloned();
    let mut compiled = None;
    let mut circuit_spans = None;
    let mut qasm_failure = None;
    if prep.kind == Kind::Synth {
        if let Some(strategy) = &strategy {
            let compile_start = Instant::now();
            match compile(&design.dag, strategy) {
                Ok(circuit) => {
                    let qasm_start = Instant::now();
                    let lowered = lower(&circuit.circuit);
                    if let Err(err) = to_qasm(&lowered) {
                        qasm_failure = Some(format!("to_qasm: {err}"));
                    }
                    circuit_spans = Some((compile_start, qasm_start, Instant::now()));
                    compiled = Some(circuit);
                }
                Err(err) => qasm_failure = Some(format!("compile: {err}")),
            }
        }
    }
    let end = Instant::now();

    let mut record = OpRecord::new(question_index, end - start);
    record.engine = report.wall;
    record.pebbles = strategy.as_ref().map(|s| s.max_pebbles(&design.dag));
    record.steps = strategy.as_ref().map(Strategy::num_steps);
    let (counters, clock_bound) = counters_of(&report);
    record.counters = counters;
    if let Some(failure) = qasm_failure {
        record.fail(failure);
    }

    if let Some(tracer) = tracer {
        let root = tracer.record("op", op, None, plan_start, end);
        tracer.record("session.plan", op, Some(root), plan_start, start);
        let run = tracer.record("session.run", op, Some(root), start, run_end);
        let engine_start = run_end.checked_sub(report.wall).unwrap_or(start).max(start);
        let engine = tracer.record("session.engine", op, Some(run), engine_start, run_end);
        if let Some(events) = &events {
            record_probe_spans(tracer, op, engine, &events.lock().expect("event log lock"));
        }
        if let Some((compile_start, qasm_start, qasm_end)) = circuit_spans {
            tracer.record("circuit.compile", op, Some(root), compile_start, qasm_start);
            tracer.record("circuit.qasm", op, Some(root), qasm_start, qasm_end);
        }
    }
    let answer = Answer {
        report,
        strategy,
        compiled,
        clock_bound,
    };
    (record, answer)
}

/// Pairs every `ProbeStarted` with the solved/refuted event of the same
/// worker and probe.
pub(crate) fn record_probe_spans(
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    events: &[(Instant, ProbeEvent)],
) {
    for (index, (start, event)) in events.iter().enumerate() {
        let ProbeEvent::ProbeStarted { worker, probe, .. } = *event else {
            continue;
        };
        let end = events[index + 1..]
            .iter()
            .find_map(|(at, later)| match *later {
                ProbeEvent::ProbeSolved {
                    worker: w,
                    probe: p,
                    ..
                } if (w, p) == (worker, probe) => Some((*at, "solver.probe.solved")),
                ProbeEvent::ProbeRefuted {
                    worker: w,
                    probe: p,
                    ..
                } if (w, p) == (worker, probe) => Some((*at, "solver.probe.refuted")),
                _ => None,
            });
        if let Some((end, name)) = end {
            tracer.record(name, op, Some(parent), *start, end);
        }
    }
}

fn sat_counters(counters: &mut Counters, sat: &SolverStats) {
    counters.conflicts += sat.conflicts;
    counters.propagations += sat.propagations;
    counters.decisions += sat.decisions;
    counters.arena_gcs += sat.arena_gcs;
}

/// Exact counters of one report, and whether anything ended on the clock.
fn counters_of(report: &Report) -> (Counters, bool) {
    let mut counters = Counters {
        retries: report.retries,
        probes: report.probes() as u64,
        ..Counters::default()
    };
    let mut clock_bound = false;
    match &report.outcome {
        SessionOutcome::Minimize(result) => {
            sat_counters(&mut counters, &result.sat);
            counters.queries = result.search.queries as u64;
            counters.floor_raises = result.floor_raises;
            counters.step_tightenings = result.step_tightenings;
            clock_bound = result
                .probe_stats
                .iter()
                .any(|stats| stats.stop_reason == Some(CancelReason::Deadline));
        }
        SessionOutcome::Single(outcome) => {
            // The session report carries the worker's conflicts and
            // queries; the traced run replays the search for the rest.
            for worker in &report.workers {
                counters.conflicts += worker.conflicts;
                counters.queries += worker.queries as u64;
            }
            clock_bound = matches!(outcome, PebbleOutcome::Timeout { .. });
        }
        _ => {}
    }
    (counters, clock_bound)
}

/// Checks one op against the oracle and the independent checkers.
pub fn check(prep: &Prepared, record: &mut OpRecord, answer: &Answer) {
    let question = &prep.questions[record.question];
    let design = &prep.designs[question.design];
    if let Some(reason) = answer.report.stop_reason {
        record.fail(format!("{}: stopped early ({reason})", design.name));
    }
    if answer.clock_bound {
        record.fail(format!("{}: a probe ended on the wall clock", design.name));
    }
    let Some(strategy) = &answer.strategy else {
        return record.fail(format!("{}: no strategy returned", design.name));
    };
    let budget = match (question.pebbles, answer.report.minimum) {
        (Some(pebbles), _) | (None, Some(pebbles)) => pebbles,
        (None, None) => return record.fail(format!("{}: no minimum certified", design.name)),
    };
    if question.pebbles.is_none() && !design.budgeted && Some(budget) != design.min_pebbles {
        record.fail(format!(
            "{}: certified {budget} pebbles, the oracle says {:?}",
            design.name, design.min_pebbles
        ));
    }
    if let Some(min_steps) = question.min_steps {
        if strategy.num_steps() != min_steps {
            record.fail(format!(
                "{} at {budget} pebbles: {} steps, the oracle says {min_steps}",
                design.name,
                strategy.num_steps()
            ));
        }
    }
    if let Err(err) = strategy.validate(&design.dag, Some(budget)) {
        return record.fail(format!("{}: invalid strategy: {err}", design.name));
    }
    let verdict = match &answer.compiled {
        Some(compiled) => revpebble::circuit::verify(&design.dag, compiled),
        None => match compile(&design.dag, strategy) {
            Ok(compiled) => revpebble::circuit::verify(&design.dag, &compiled),
            Err(err) => return record.fail(format!("{}: compile: {err}", design.name)),
        },
    };
    if !matches!(verdict, VerifyOutcome::Correct { .. }) {
        record.fail(format!(
            "{}: circuit check failed: {verdict:?}",
            design.name
        ));
    }
}

/// Replays each distinct question of the traced window through the layer
/// APIs and fills the per-layer metrics.
pub fn replay(
    prep: &Prepared,
    window: &mut Window,
    answers: &[(usize, Answer)],
    tracer: &mut Tracer,
    layers: &mut Layers,
) {
    let mut frame_bytes = Vec::new();
    let mut sizes = Vec::new();
    let mut gates = Vec::new();
    let mut searches = Vec::new();
    for (replayed, (index, answer)) in answers.iter().enumerate() {
        let index = *index;
        if window.ops[index].failure.is_some() {
            continue;
        }
        let question_index = window.ops[index].question;
        let question = &prep.questions[question_index];
        let design = &prep.designs[question.design];
        let strategy = answer
            .strategy
            .as_ref()
            .expect("checked ops carry a strategy");
        let op = window.ops.len() + replayed;
        let root = tracer.open("replay", op, None);
        frame_bytes
            .push(replay_graph_and_wire(tracer, op, root, design, question, &answer.report) as f64);
        let pebbles = question
            .pebbles
            .or(answer.report.minimum)
            .expect("checked ops carry a budget");
        let (refute, bound_mode) = match prep.kind {
            Kind::Synth => (Refute::FewerSteps, BoundMode::Baked),
            _ if design.budgeted => (Refute::Skip, BoundMode::Assumed),
            _ => (Refute::FewerPebbles, BoundMode::Assumed),
        };
        match replay_encoding(
            tracer,
            op,
            root,
            design,
            pebbles,
            strategy.num_steps(),
            bound_mode,
            refute,
        ) {
            Ok(size) => sizes.push(size),
            Err(err) => window.ops[index].fail(format!("{} replay: {err}", design.name)),
        }
        match prep.kind {
            Kind::Synth => {
                // The session report has no propagation counters; the
                // same search, replayed, pays exactly the same work.
                let mut options = design.options;
                options.encoding.max_pebbles = Some(pebbles);
                let mut solver = PebbleSolver::new(&design.dag, options);
                tracer.time("solver.replay", op, Some(root), || solver.solve());
                searches.push((question_index, solver.sat_stats()));
                if let Some(compiled) = &answer.compiled {
                    gates.push(lower(&compiled.circuit).num_gates() as f64);
                }
            }
            Kind::Minimize => {
                let compiled = tracer
                    .time("circuit.compile", op, Some(root), || {
                        compile(&design.dag, strategy)
                    })
                    .expect("checked strategies compile");
                let lowered = tracer.time("circuit.qasm", op, Some(root), || {
                    let lowered = lower(&compiled.circuit);
                    let qasm = to_qasm(&lowered);
                    (lowered, qasm.is_ok())
                });
                if !lowered.1 {
                    window.ops[index].fail(format!("{}: to_qasm failed", design.name));
                }
                gates.push(lowered.0.num_gates() as f64);
            }
        }
        tracer.close(root);
    }
    // Every repeat of a synth question pays the replayed search's work;
    // its conflicts must match what each session reported.
    for op in &mut window.ops {
        let Some((_, stats)) = searches.iter().find(|(q, _)| *q == op.question) else {
            continue;
        };
        if stats.conflicts != op.counters.conflicts {
            let reported = op.counters.conflicts;
            op.fail(format!(
                "question {}: replayed search paid {} conflicts, the session {reported}",
                op.question, stats.conflicts
            ));
        }
        op.counters.propagations = stats.propagations;
        op.counters.decisions = stats.decisions;
        op.counters.arena_gcs = stats.arena_gcs;
    }
    layers.set("wire.frame_kb", mean(&frame_bytes) / 1024.0);
    let vars: Vec<f64> = sizes.iter().map(|s| s.0).collect();
    let clauses: Vec<f64> = sizes.iter().map(|s| s.1).collect();
    layers.set("encoding.vars_per_step", median(&vars));
    layers.set("encoding.clauses_per_step", median(&clauses));
    layers.set("circuit.gates", mean(&gates));
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Times the graph layer on the op's DAG and the wire layer on the frame
/// that would ask the same question; returns the frame size in bytes.
fn replay_graph_and_wire(
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    design: &Design,
    question: &Question,
    report: &Report,
) -> usize {
    let adjacency = design.dag.to_adjacency_json();
    let parsed = tracer
        .time("graph.parse", op, Some(parent), || {
            revpebble::graph::Dag::from_json(&adjacency)
        })
        .expect("the adjacency JSON of a valid DAG parses");
    tracer.time("graph.fingerprint", op, Some(parent), || {
        parsed.canonical_fingerprint()
    });
    let mut request = Request::inline(design.name.clone(), design.dag.clone());
    request.pebbles = question.pebbles;
    request.minimize = question.pebbles.is_none();
    request.max_steps = Some(design.options.max_steps);
    let frame = request.to_json();
    tracer
        .time("wire.request_parse", op, Some(parent), || {
            Request::parse(&frame)
        })
        .expect("the benchmark's own frames parse");
    tracer.time("wire.response_json", op, Some(parent), || {
        ok_response(&design.name, report)
    });
    frame.len()
}

/// Which refutation certifies the replayed answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refute {
    /// `(P, K−1)`: no shorter strategy at the budget (`synth`).
    FewerSteps,
    /// `(P−1, step cap)`: no strategy at all one pebble lower, deepened
    /// step by step as the engine does (`minimize`).
    FewerPebbles,
    /// Budgeted rows certify nothing below their answer.
    Skip,
}

/// Builds the encoding to `steps`, finds the strategy, extracts it and
/// runs the certifying refutation, each in its own span. Returns the
/// encoding's variables and clauses per step.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_encoding(
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    design: &Design,
    pebbles: usize,
    steps: usize,
    bound_mode: BoundMode,
    refute: Refute,
) -> Result<(f64, f64), String> {
    let options = EncodingOptions {
        max_pebbles: Some(pebbles),
        bound_mode,
        ..design.options.encoding
    };
    let mut encoding = tracer.time("encoding.build", op, Some(parent), || {
        let mut encoding =
            PebbleEncoding::with_solver_config(&design.dag, options, design.options.sat);
        encoding.extend_to(steps);
        encoding
    });
    let per_step = |n: usize| n as f64 / steps.max(1) as f64;
    let size = (
        per_step(encoding.solver().num_vars()),
        per_step(encoding.solver().num_clauses()),
    );
    let found = tracer.time("sat.find", op, Some(parent), || {
        encoding.solve_at(steps, None, None)
    });
    if found != SolveResult::Sat {
        return Err(format!("({pebbles}, {steps}) is {found:?}, expected SAT"));
    }
    let strategy = tracer.time("encoding.extract", op, Some(parent), || {
        encoding.extract(steps)
    });
    strategy
        .validate(&design.dag, Some(pebbles))
        .map_err(|err| format!("extracted strategy: {err}"))?;
    match refute {
        Refute::Skip => {}
        Refute::FewerSteps => {
            if steps > 0 {
                let refuted = tracer.time("sat.refute", op, Some(parent), || {
                    encoding.solve_at(steps - 1, None, None)
                });
                if refuted != SolveResult::Unsat {
                    return Err(format!("({pebbles}, {}) is {refuted:?}", steps - 1));
                }
            }
        }
        Refute::FewerPebbles => {
            // At the structural bound the refutation needs no solver.
            if pebbles > pebble_lower_bound(&design.dag) {
                encoding.set_bound(Some(pebbles - 1));
                let cap = design.options.max_steps;
                let from = step_lower_bound(&design.dag).max(1);
                let start = Instant::now();
                for k in from..=cap {
                    let result = encoding.solve_at(k, None, None);
                    if result != SolveResult::Unsat {
                        return Err(format!("({}, {k}) is {result:?}", pebbles - 1));
                    }
                }
                tracer.record("sat.refute", op, Some(parent), start, Instant::now());
            }
        }
    }
    Ok(size)
}

/// Fills the per-layer metrics that come from the traced window's ops
/// and spans.
pub fn window_layers(window: &Window, tracer: &Tracer, layers: &mut Layers) {
    fill_span_layers(tracer, layers);
    fill_counter_layers(window, layers);
    let engine: Vec<f64> = window.ops.iter().map(|op| ms(op.engine)).collect();
    fill_engine_percentiles(&engine, layers);
    layers.set("session.cache_hit_frac", 0.0);
    for name in ["wire.errors", "wire.overloaded", "wire.panics"] {
        layers.set(name, 0.0);
    }
    for name in ["wire.overhead_p50_ms", "wire.overhead_p99_ms"] {
        layers.absent(name, "library ops make no round trip (measured on serve)");
    }
}
