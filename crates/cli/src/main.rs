//! `revpebble` — command-line interface to the reversible-pebbling
//! toolkit.
//!
//! ```text
//! revpebble info     <input>                         DAG statistics
//! revpebble bennett  <input> [--grid]                Bennett baseline
//! revpebble pebble   <input> --pebbles P [options]   SAT pebbling
//! revpebble pebble   <input> --minimize [options]    smallest feasible P
//! revpebble minimize <input> [--timeout S]           smallest feasible P
//! revpebble frontier <input> [--timeout S]           pebble/step frontier
//! revpebble batch    <input>... [--workers N]        many DAGs, one pool
//! revpebble serve    [--addr A] [--workers N]        network daemon
//! revpebble submit   <input> [--addr A]              one request to a daemon
//! revpebble dot      <input>                         Graphviz export
//! revpebble --help                                   usage text (also -h)
//! ```
//!
//! Every solving command constructs one [`PebblingSession`] — the same
//! front door the library exposes. Invalid flag combinations are rejected by
//! the session's typed `SessionError` (exit code 2), so the CLI and the
//! library reject identically; runtime failures (timeouts, infeasible
//! budgets) exit 1. While a session runs, its probe events stream to
//! stderr as live progress lines; `--json` prints the unified report as
//! one JSON object on stdout for machine consumers.
//!
//! `pebble --portfolio N` races `N` solver configurations (deepening
//! schedule × move semantics × cardinality encoding) on worker threads;
//! the first strategy found cancels the rest (`0` = one per core).
//!
//! `pebble --minimize` searches for the smallest feasible budget with a
//! fresh solver per probe (the paper's Table I methodology);
//! `--incremental` reuses **one** assumption-bounded encoding/solver
//! across every probe, and `--portfolio N` races `N` incremental budget
//! schedules. Adding `--share-clauses` makes the portfolio cooperative:
//! workers exchange short learnt clauses through a lock-free shared pool
//! and pool certified refutations (unsat-core bound tightening), so each
//! prunes with everything any rival has proven; `--diversify` jitters
//! every worker's CDCL heuristics but the first (HordeSat-style
//! per-worker seeds).
//!
//! `<input>` is a `.bench` netlist path, `-` for stdin, or one of the
//! built-in examples: `paper`, `c17`, `andtree9`, `chain12`, `hop`,
//! `b3_m4`, `kummer`, `edwards`, `adder4`.

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use revpebble::circuit::lowering;
use revpebble::core::frontier::render_frontier;
use revpebble::core::portfolio::{describe_minimize_config, describe_options};
use revpebble::core::{default_portfolio, Engine, SessionOutcome};
use revpebble::graph::{builtin_dag, json_escape, parse_json};
use revpebble::prelude::*;
use revpebble::sat::SolverConfig;
use revpebble_serve::{submit_frame, Request, ServeConfig, ServeError, Server};

mod args;
use args::Args;

/// The CLI's three failure classes, each with its own exit code.
enum CliError {
    /// Malformed command line (unknown flag, missing value): exit 2 with
    /// the usage text.
    Usage(String),
    /// A configuration the session rejects ([`SessionError`]): exit 2 —
    /// the library and the CLI reject identically.
    Invalid(SessionError),
    /// A request a daemon rejected (bad frame, session error, panic
    /// response): exit 2, like a local configuration error.
    Rejected(String),
    /// A runtime failure (infeasible budget, timeout, IO): exit 1.
    Failed(String),
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Invalid(error)) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
        Err(CliError::Rejected(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  revpebble info     <input>
  revpebble bennett  <input> [--grid]
  revpebble pebble   <input> --pebbles P [--mode seq|par] [--portfolio N] [--timeout S]
                             [--grid] [--qasm] [--json]
  revpebble pebble   <input> --minimize [--incremental] [--portfolio N] [--share-clauses]
                             [--diversify] [--timeout S] [--json]
  revpebble minimize <input> [--timeout S] [--incremental] [--portfolio N] [--share-clauses]
                             [--diversify] [--json]
  revpebble frontier <input> [--timeout S] [--json]
  revpebble batch    <input> [<input>...] [--workers N] [--quota C] [--pebbles P | --minimize]
                             [--timeout S] [--retries N]
  revpebble serve    [--addr HOST:PORT] [--workers N] [--connections N] [--max-pending N]
                             [--quota C]
  revpebble submit   <input> [--addr HOST:PORT] [--name LABEL] [--raw] [--wait S]
                             [--pebbles P | --minimize] [--portfolio N] [--share-clauses]
                             [--diversify] [--incremental] [--quota C] [--timeout S]
  revpebble dot      <input>
  revpebble --help | -h
inputs: a .bench file path, '-' (stdin), or a built-in:
  paper | c17 | andtree9 | chain12 | hop | b3_m4 | kummer | edwards | adder4
portfolio: race N configurations (schedule x move mode x cardinality
  encoding) on worker threads; first winner cancels the rest (0 = one
  worker per core)
minimize: --incremental reuses one assumption-bounded encoding/solver
  across all budget probes; --portfolio N races N incremental budget
  schedules (binary search vs descending strides); --share-clauses makes
  the portfolio cooperative (shared learnt-clause pool + unsat-core
  bound tightening across workers); --diversify jitters every worker's
  CDCL heuristics but the first (HordeSat-style per-worker seeds)
serve: a pebbling daemon — one newline-delimited JSON request frame per
  line over TCP, multiplexed onto a shared --workers N pool with a
  result cache; requests beyond --max-pending in-flight sessions are
  answered \"overloaded\"; --quota C caps every request's SAT conflicts
  (a request's own quota may tighten but never widen it); SIGTERM/
  SIGINT drain in-flight sessions and exit 0
submit: send one request frame to a daemon and print the response line
  on stdout; the input is a builtin name (sent by name), a .bench path
  or '-' (sent inline), or with --raw the frame text itself
batch: every input becomes one session on a shared --workers N pool
  (default: one per core) with a shared result cache — repeated DAGs are
  answered without solving; --quota C caps each session's SAT conflicts;
  --retries N re-runs a session that died to a worker panic up to N
  extra times; the report is always one JSON object on stdout
output: probe events stream to stderr while solving; --json prints the
  session report as one JSON object on stdout
exit codes: 0 success | 1 runtime failure | 2 invalid usage/configuration";

fn run(raw: &[String]) -> Result<(), CliError> {
    if raw.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(raw).map_err(CliError::Usage)?;
    if args.command == "batch" {
        return run_batch(&args);
    }
    if args.command == "serve" {
        return run_serve(&args);
    }
    if args.command == "submit" {
        return run_submit(&args);
    }
    let dag = load_dag(&args.input).map_err(CliError::Failed)?;
    match args.command.as_str() {
        "info" => {
            println!("{dag}");
            println!("depth: {}", dag.depth());
            println!(
                "pebble lower bound: {}",
                revpebble::core::bounds::pebble_lower_bound(&dag)
            );
            println!(
                "step lower bound (sequential): {}",
                revpebble::core::bounds::step_lower_bound(&dag)
            );
            for (op, count) in dag.op_counts() {
                println!("  {op}: {count}");
            }
            Ok(())
        }
        "dot" => {
            print!("{}", dag.to_dot());
            Ok(())
        }
        "bennett" => {
            let strategy = bennett(&dag);
            report_strategy(&dag, &strategy, args.grid);
            Ok(())
        }
        "pebble" if args.minimize => run_minimize(&dag, &args),
        "pebble" => run_pebble(&dag, &args),
        "minimize" => run_minimize(&dag, &args),
        "frontier" => run_frontier(&dag, &args),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Parses `--fault-plan` (or returns the disabled plan). Called once
/// per invocation so a malformed spec is a usage error up front, and so
/// every session attempt — including batch retries — shares one set of
/// fail-point visit counters (the seed-th visit fires exactly once per
/// process, not once per attempt).
fn parse_fault_plan(args: &Args) -> Result<FaultPlan, CliError> {
    match args.fault_plan.as_deref() {
        Some(spec) => FaultPlan::parse(spec)
            .map_err(|err| CliError::Usage(format!("bad --fault-plan: {err}"))),
        None => Ok(FaultPlan::none()),
    }
}

/// Builds the session every solving command shares: base solver options
/// from the common flags, plus the fixed-budget / portfolio / sharing /
/// quota / retry setters. Validation happens inside the session's
/// `plan()`.
fn configure_session<'a>(
    session: PebblingSession<'a>,
    args: &Args,
    faults: FaultPlan,
) -> PebblingSession<'a> {
    let base = SolverOptions {
        encoding: EncodingOptions {
            move_mode: args.mode,
            ..EncodingOptions::default()
        },
        sat: SolverConfig {
            faults,
            ..SolverConfig::default()
        },
        ..SolverOptions::default()
    };
    let mut session = session.solver_options(base);
    if let Some(budget) = args.pebbles {
        session = session.pebbles(budget);
    }
    if let Some(workers) = args.portfolio {
        session = session.portfolio(workers);
    }
    if args.share_clauses {
        session = session.share_clauses();
    }
    if args.diversify {
        session = session.diversify();
    }
    if let Some(quota) = args.quota {
        session = session.quota(quota);
    }
    if let Some(extra) = args.retries {
        session = session.retries(extra);
    }
    session
}

/// [`configure_session`] plus the `--workers` pool: fan the session's
/// portfolio workers onto one shared `Executor` instead of a private
/// thread per worker. `--workers 0` is rejected like the library
/// rejects it.
fn session_for<'a>(dag: &'a Dag, args: &Args) -> Result<PebblingSession<'a>, CliError> {
    let faults = parse_fault_plan(args)?;
    let mut session = configure_session(PebblingSession::new(dag), args, faults);
    match args.workers {
        None => {}
        Some(0) => return Err(CliError::Invalid(SessionError::ZeroWorkerPool)),
        Some(n) => session = session.executor(Arc::new(Executor::new(n))),
    }
    Ok(session)
}

/// `pebble --pebbles P`: one fixed-budget solve, optionally raced by a
/// portfolio.
fn run_pebble(dag: &Dag, args: &Args) -> Result<(), CliError> {
    let mut session = session_for(dag, args)?;
    if let Some(timeout) = args.timeout {
        session = session.timeout(timeout);
    }
    let plan = session.plan().map_err(CliError::Invalid)?;
    if plan.engine == Engine::SinglePortfolio {
        let configs = default_portfolio(plan.base, plan.workers);
        eprintln!("portfolio: {} workers", configs.len());
        for (index, config) in configs.iter().enumerate() {
            eprintln!("  worker {index}: {}", describe_options(config));
        }
    }
    let report = session
        .on_event(|event| eprintln!("  {event}"))
        .run()
        .map_err(CliError::Invalid)?;
    if let SessionOutcome::Portfolio(outcome) = &report.outcome {
        for (index, worker) in outcome.workers.iter().enumerate() {
            let role = match outcome.winner {
                Some(winner) if winner == index => "winner",
                _ if worker.cancelled => "cancelled",
                _ => "finished",
            };
            eprintln!(
                "  worker {index}: {role} after {:.1?} ({} queries, {} conflicts)",
                worker.elapsed, worker.result.search.queries, worker.result.sat.conflicts
            );
        }
        // The winning configuration decides the strategy's move semantics
        // (the race may cross `--mode`), so name it on stdout where the
        // step counts it explains are printed.
        if let (Some(winning), false) = (outcome.winning_report(), args.json) {
            println!(
                "portfolio winner: {}",
                describe_options(&winning.config.base)
            );
        }
    }
    if args.json {
        println!("{}", report.to_json());
    }
    let budget = plan.pebbles.expect("the pebble engines carry a budget");
    let failure = describe_failure(&report, budget);
    match report.into_strategy() {
        Some(strategy) => {
            strategy
                .validate(dag, Some(budget))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            if !args.json {
                report_strategy(dag, &strategy, args.grid);
            }
            if args.qasm {
                let compiled =
                    compile(dag, &strategy).map_err(|e| CliError::Failed(e.to_string()))?;
                let lowered = lowering::lower(&compiled.circuit);
                match lowering::to_qasm(&lowered) {
                    Ok(qasm) => print!("{qasm}"),
                    Err(e) => eprintln!("cannot emit QASM: {e}"),
                }
            }
            Ok(())
        }
        None => Err(CliError::Failed(failure)),
    }
}

/// Renders a fixed-budget session's failure the way the pre-session CLI
/// did, from the raw engine outcome.
fn describe_failure(report: &Report, budget: usize) -> String {
    let outcome = match &report.outcome {
        SessionOutcome::Single(outcome) => outcome,
        SessionOutcome::Portfolio(outcome) => &outcome.outcome,
        _ => return "the search failed".to_string(),
    };
    match outcome {
        PebbleOutcome::Infeasible { lower_bound } => {
            format!("{budget} pebbles are infeasible (lower bound {lower_bound})")
        }
        PebbleOutcome::Timeout { steps_reached } => {
            format!("timed out while trying {steps_reached} steps")
        }
        PebbleOutcome::StepLimit { steps_checked } => {
            format!("no solution with up to {steps_checked} steps")
        }
        // Rendered eagerly even on success; never shown then.
        PebbleOutcome::Solved(_) => String::new(),
    }
}

/// `pebble --minimize` / `minimize`: find the smallest feasible budget.
///
/// Engine selection: `--incremental` drives every probe through one
/// assumption-bounded encoding/solver instance; `--portfolio N` races `N`
/// incremental workers over different budget schedules; the default is the
/// paper's fresh-solver-per-probe methodology.
fn run_minimize(dag: &Dag, args: &Args) -> Result<(), CliError> {
    let per_query = args.timeout.unwrap_or(Duration::from_secs(10));
    let mut session = session_for(dag, args)?
        .minimize()
        .per_query_timeout(per_query);
    if args.portfolio.is_none() {
        session = session.incremental(args.incremental);
    }
    let report = session
        .on_event(|event| eprintln!("  {event}"))
        .run()
        .map_err(CliError::Invalid)?;
    match &report.outcome {
        SessionOutcome::MinimizePortfolio(outcome) => {
            for (index, worker) in outcome.workers.iter().enumerate() {
                let role = match outcome.winner {
                    Some(winner) if winner == index => "winner",
                    _ if worker.cancelled => "cancelled",
                    _ => "finished",
                };
                eprintln!(
                    "  worker {index} [{}]: {role} after {:.1?} ({} probes, {} conflicts, \
                     imported={} exported={})",
                    describe_minimize_config(&worker.config),
                    worker.elapsed,
                    worker.result.probes.len(),
                    worker.result.sat.conflicts,
                    worker.result.sat.imported_clauses,
                    worker.result.sat.exported_clauses,
                );
            }
            let (imports, exports, dropped) =
                outcome
                    .workers
                    .iter()
                    .fold((0u64, 0u64, 0u64), |(i, e, d), w| {
                        (
                            i + w.result.sat.imported_clauses,
                            e + w.result.sat.exported_clauses,
                            d + w.result.sat.dropped_clauses,
                        )
                    });
            let sharing = &outcome.sharing;
            if !args.json {
                println!(
                    "minimize: engine=portfolio workers={} probes={} share-clauses={} \
                     diversify={} imports={imports} exports={exports} dropped={dropped} \
                     floor={} core-tightenings={}",
                    outcome.workers.len(),
                    report.probes(),
                    if args.share_clauses { "on" } else { "off" },
                    if args.diversify { "on" } else { "off" },
                    sharing.floor,
                    sharing.step_tightenings + sharing.floor_raises,
                );
            }
        }
        SessionOutcome::Minimize(result) => {
            // Derived from the stats, not asserted: one instance answered
            // every query iff its cumulative solve counter matches the
            // outer query count, so the CI grep on `solver-instances=1`
            // genuinely guards the single-instance property.
            let single_instance = result.sat.solves == result.search.queries as u64;
            let instances = if args.incremental && single_instance {
                1
            } else {
                result.probes.len()
            };
            if !args.json {
                println!(
                    "minimize: engine={} probes={} queries={} conflicts={} floor={} \
                     core-tightenings={} solver-instances={instances}",
                    report.engine,
                    result.probes.len(),
                    result.search.queries,
                    result.sat.conflicts,
                    result.floor,
                    result.step_tightenings + result.floor_raises,
                );
            }
        }
        _ => unreachable!("a minimize session drives a minimize engine"),
    }
    if args.json {
        println!("{}", report.to_json());
    }
    let json = args.json;
    let grid = args.grid;
    let minimum = report.minimum;
    match report.into_strategy() {
        Some(strategy) => {
            let p = minimum.expect("a strategy certifies its budget");
            if !json {
                println!("smallest certified budget: {p} pebbles");
                report_strategy(dag, &strategy, grid);
            }
            Ok(())
        }
        None => Err(CliError::Failed(
            "no budget certified within the timeout".to_string(),
        )),
    }
}

/// `batch`: spawn every input as one session on a shared
/// [`SessionRuntime`] — one worker pool, per-session conflict quotas and
/// a shared result cache (repeated DAGs are answered without solving) —
/// and join them in submit order. Prints one JSON object on stdout;
/// per-session progress goes to stderr.
fn run_batch(args: &Args) -> Result<(), CliError> {
    let workers = match args.workers {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(1, |cores| cores.get()),
    };
    let faults = parse_fault_plan(args)?;
    let mut runtime = SessionRuntime::new(workers).map_err(CliError::Invalid)?;
    if let Some(quota) = args.quota {
        runtime = runtime.per_session_quota(quota);
    }
    let retry = RetryPolicy::attempts(args.retries.unwrap_or(0).saturating_add(1));
    // Load every DAG before solving anything: a bad path fails the whole
    // invocation up front instead of after minutes of SAT time.
    let mut dags = Vec::new();
    for input in &args.inputs {
        dags.push((input.clone(), load_dag(input).map_err(CliError::Failed)?));
    }
    let per_query = args.timeout.unwrap_or(Duration::from_secs(10));
    let spawn = |dag: &Dag| {
        let mut session =
            configure_session(PebblingSession::new(dag), args, faults).per_query_timeout(per_query);
        // Without a fixed budget, a batch entry minimizes — the serving
        // workload's natural question.
        if args.minimize || args.pebbles.is_none() {
            session = session.minimize();
        }
        // A child, not the root itself: cancelling one entry must not
        // take the whole batch down with it.
        runtime
            .spawn(session, runtime.root().child())
            .map_err(CliError::Invalid)
    };
    let handles = dags
        .iter()
        .map(|(_, dag)| spawn(dag))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!(
        "batch: {} sessions on {workers} workers{}",
        dags.len(),
        match args.quota {
            Some(quota) => format!(", quota {quota} conflicts each"),
            None => String::new(),
        }
    );
    let mut sessions = Vec::new();
    for ((name, dag), handle) in dags.iter().zip(handles) {
        let mut report = handle.join();
        // `--retries`: an entry that died to a worker panic or a watchdog
        // detach is re-spawned after the policy's backoff while the batch
        // is live. Its own cancel, deadline or quota stop is deliberate
        // and never re-run.
        let mut retries = 0;
        while retries + 1 < retry.max_attempts
            && runtime.root().reason().is_none()
            && matches!(
                report.stop_reason,
                Some(StopReason::WorkerPanicked { .. } | StopReason::Detached)
            )
        {
            std::thread::sleep(retry.backoff_for(retries + 1));
            report = spawn(dag)?.join();
            retries += 1;
        }
        report.retries += u64::from(retries);
        sessions.push((name, report));
    }
    let mut failures = Vec::new();
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let _ = write!(out, "\"workers\":{workers},\"sessions\":[");
    for (index, (name, session)) in sessions.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let stop_reason = match session.stop_reason {
            Some(reason) => format!("\"{}\"", reason.as_str()),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"stop_reason\":{},\"retries\":{},\"report\":{}}}",
            json_escape(name),
            stop_reason,
            session.retries,
            session.to_json()
        );
        let status = match session.stop_reason {
            Some(reason) => format!("stopped ({reason})"),
            None => match session.minimum {
                Some(minimum) => format!("minimum {minimum}"),
                None => "nothing certified".to_string(),
            },
        };
        let cached = if session.cache_hits > 0 {
            ", cached"
        } else {
            ""
        };
        eprintln!("  {name}: {status}{cached}");
        if session.minimum.is_none() {
            failures.push(name.as_str());
        }
    }
    let _ = write!(
        out,
        "],\"cache_hits\":{},\"cache_misses\":{}}}",
        runtime.cache().hits(),
        runtime.cache().misses()
    );
    println!("{out}");
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "{} of {} sessions certified nothing: {}",
            failures.len(),
            sessions.len(),
            failures.join(", ")
        )))
    }
}

/// `serve`: run the network daemon until SIGTERM/SIGINT, then drain
/// in-flight sessions and exit 0. Configuration problems (zero workers,
/// zero connection handlers) exit 2 like every other invalid
/// configuration; a bind failure is a runtime error (exit 1).
fn run_serve(args: &Args) -> Result<(), CliError> {
    let faults = parse_fault_plan(args)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.addr.clone().unwrap_or(defaults.addr),
        workers: args.workers.unwrap_or(defaults.workers),
        connections: args.connections.unwrap_or(defaults.connections),
        max_pending: args.max_pending.unwrap_or(defaults.max_pending),
        quota: args.quota,
        faults,
        ..defaults
    };
    let server = Server::bind(config).map_err(|err| match err {
        ServeError::Config(message) => CliError::Rejected(message),
        ServeError::Io(io) => CliError::Failed(format!("cannot bind: {io}")),
    })?;
    eprintln!("serve: listening on {}", server.local_addr());
    let handle = server.handle();
    install_termination_handler();
    std::thread::spawn(move || {
        while !termination_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("serve: shutdown requested; draining in-flight sessions");
        handle.shutdown();
    });
    let stats = server.run();
    eprintln!(
        "serve: drained; {} connections, {} requests ({} ok, {} errors, {} overloaded), \
         {} cancelled disconnects, {} contained panics, cache {}/{}",
        stats.connections,
        stats.requests,
        stats.ok,
        stats.errors,
        stats.overloaded,
        stats.cancelled_disconnects,
        stats.contained_panics,
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    Ok(())
}

/// `submit`: build one request frame from the flags (or send `<input>`
/// verbatim with `--raw`), print the daemon's response line on stdout,
/// and map its status to the CLI's exit codes: `ok` exits 0, a rejected
/// request exits 2, `overloaded` and timeouts exit 1.
fn run_submit(args: &Args) -> Result<(), CliError> {
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7979");
    let frame = if args.raw {
        args.input.clone()
    } else {
        let label = args.name.clone().unwrap_or_else(|| args.input.clone());
        let mut request = if builtin_dag(&args.input).is_some() {
            Request::builtin(label, args.input.clone())
        } else {
            // A file or stdin netlist travels inline as an adjacency
            // object, so the daemon needs no access to local paths.
            Request::inline(label, load_dag(&args.input).map_err(CliError::Failed)?)
        };
        request.pebbles = args.pebbles;
        request.minimize = args.minimize;
        request.portfolio = args.portfolio;
        request.share_clauses = args.share_clauses;
        request.diversify = args.diversify;
        if args.incremental {
            request.incremental = Some(true);
        }
        request.quota = args.quota;
        request.timeout_ms = args.timeout.map(|t| t.as_millis() as u64);
        request.to_json()
    };
    let wait = args.wait.unwrap_or(Duration::from_secs(60));
    let response = submit_frame(addr, &frame, wait)
        .map_err(|err| CliError::Failed(format!("submit to {addr}: {err}")))?;
    println!("{response}");
    let status = parse_json(&response).ok().and_then(|value| {
        value
            .get("status")
            .and_then(|s| s.as_str().map(str::to_owned))
    });
    match status.as_deref() {
        Some("ok") => Ok(()),
        Some("overloaded") => Err(CliError::Failed(
            "the daemon is at max pending sessions; retry later".into(),
        )),
        Some("error") => {
            let detail = parse_json(&response)
                .ok()
                .and_then(|value| {
                    value
                        .get("error")
                        .and_then(|e| e.as_str().map(str::to_owned))
                })
                .unwrap_or_else(|| "request rejected".into());
            Err(CliError::Rejected(detail))
        }
        _ => Err(CliError::Failed(format!(
            "unrecognized response from {addr}"
        ))),
    }
}

/// Set once a termination signal arrives; the `serve` watcher thread
/// polls it. Signal handlers may only do async-signal-safe work, so the
/// handler stores a flag and nothing else.
static TERMINATION: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn termination_requested() -> bool {
    TERMINATION.load(std::sync::atomic::Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into [`TERMINATION`] so `serve` can drain
/// and exit 0 instead of dying with the default signal disposition.
#[cfg(unix)]
fn install_termination_handler() {
    use std::os::raw::c_int;
    extern "C" fn on_termination_signal(_signal: c_int) {
        TERMINATION.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    unsafe {
        signal(SIGTERM, on_termination_signal);
        signal(SIGINT, on_termination_signal);
    }
}

#[cfg(not(unix))]
fn install_termination_handler() {}

/// `frontier`: sweep the pebble/step trade-off through the session.
fn run_frontier(dag: &Dag, args: &Args) -> Result<(), CliError> {
    let report = session_for(dag, args)?
        .sweep_frontier()
        .per_query_timeout(args.timeout.unwrap_or(Duration::from_secs(10)))
        .on_event(|event| eprintln!("  {event}"))
        .run()
        .map_err(CliError::Invalid)?;
    if args.json {
        println!("{}", report.to_json());
        return Ok(());
    }
    let SessionOutcome::Frontier(points) = &report.outcome else {
        unreachable!("a frontier session drives the frontier engine");
    };
    print!("{}", render_frontier(points, dag));
    Ok(())
}

fn report_strategy(dag: &Dag, strategy: &Strategy, grid: bool) {
    println!(
        "pebbles: {}   steps: {}   moves: {}",
        strategy.max_pebbles(dag),
        strategy.num_steps(),
        strategy.num_moves()
    );
    for (op, count) in strategy.op_counts(dag) {
        println!("  {op}: {count}");
    }
    if grid {
        println!("{}", strategy.render_grid(dag));
    }
}

fn load_dag(input: &str) -> Result<Dag, String> {
    // Builtin names resolve through the one shared table (the serve
    // daemon resolves request frames against the same one).
    if let Some(dag) = builtin_dag(input) {
        return Ok(dag);
    }
    match input {
        "-" => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| e.to_string())?;
            parse_bench(&text).map_err(|e| e.to_string())
        }
        path => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            parse_bench(&text).map_err(|e| e.to_string())
        }
    }
}
