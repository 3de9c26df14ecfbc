//! Minimal flag parsing for the `revpebble` binary (no external crates).
//!
//! Parsing is purely *syntactic*: flag spelling, value shapes, arity.
//! Semantic flag combinations (`--share-clauses` without `--portfolio`,
//! `--minimize` with `--pebbles`, …) are validated by the
//! [`PebblingSession`](revpebble::core::PebblingSession) builder itself,
//! so the CLI and the library reject identically — see `main.rs`.

use std::time::Duration;

use revpebble::core::MoveMode;

/// Parsed command line.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`info`, `pebble`, `batch`, …).
    pub command: String,
    /// The first input designator (path, `-`, or built-in name).
    pub input: String,
    /// Every input designator, in order. Only `batch` accepts more than
    /// one; for the other commands this is `[input]`.
    pub inputs: Vec<String>,
    /// `--pebbles P`.
    pub pebbles: Option<usize>,
    /// `--timeout S` (seconds).
    pub timeout: Option<Duration>,
    /// `--mode seq|par`.
    pub mode: MoveMode,
    /// `--portfolio N`: race `N` solver configurations on worker threads,
    /// first winner takes all (0 picks one worker per available core; the
    /// session rejects more than 64 as `PortfolioTooLarge`).
    pub portfolio: Option<usize>,
    /// `--workers N`: the thread count of the `SessionRuntime` the
    /// command runs on. `pebble`, `minimize` and `frontier` spawn their
    /// one session on it as one job and join it; `batch` and `serve`
    /// spread all their sessions over it. `0` is rejected by the runtime
    /// as `ZeroWorkerPool`.
    pub workers: Option<usize>,
    /// `--quota N`: cap each session at `N` SAT conflicts; an exhausted
    /// session stops with `stop_reason: "quota"` (`0` is rejected by the
    /// session as `QuotaExceeded`).
    pub quota: Option<u64>,
    /// `--minimize`: search for the smallest feasible pebble budget
    /// instead of solving one fixed budget.
    pub minimize: bool,
    /// `--incremental`: drive all `--minimize` probes through one
    /// assumption-bounded encoding/solver instance instead of a fresh
    /// solver per probe.
    pub incremental: bool,
    /// `--share-clauses`: let `--minimize --portfolio` workers cooperate —
    /// one learnt-clause pool and one certified-refutation blackboard
    /// (unsat-core bound tightening) across all workers.
    pub share_clauses: bool,
    /// `--diversify`: jitter the CDCL heuristics of every
    /// `--minimize --portfolio` worker but the first (HordeSat-style
    /// per-worker seeds, restart jitter, polarity inversion, bump noise).
    pub diversify: bool,
    /// `--retries N`: re-run a budget probe that failed transiently up to
    /// `N` extra times with deterministic exponential backoff — the
    /// per-probe retry of `PebblingSession::retries`, on `pebble`,
    /// `minimize`, `frontier` and `batch` alike. Only `batch` also
    /// re-spawns a session that stopped for a retryable reason (worker
    /// panic, watchdog detach). `0` (the default) fails fast.
    pub retries: Option<u32>,
    /// `--fault-plan SITE:KIND:SEED[:DELAY_MS]` (undocumented; for chaos
    /// testing): arm a deterministic fail point, e.g.
    /// `exec.job:panic:0`. Forwarded verbatim; the library rejects
    /// malformed specs.
    pub fault_plan: Option<String>,
    /// `--addr HOST:PORT`: where `serve` listens / `submit` connects.
    pub addr: Option<String>,
    /// `--connections N`: `serve`'s connection-handler thread count.
    pub connections: Option<usize>,
    /// `--max-pending N`: `serve`'s admitted-session bound; requests
    /// beyond it are answered `"overloaded"`.
    pub max_pending: Option<usize>,
    /// `--name NAME`: the label `submit` puts in the request frame
    /// (echoed in the response; defaults to the input designator).
    pub name: Option<String>,
    /// `--raw`: `submit` sends its input argument verbatim as the frame
    /// instead of building a request from the flags.
    pub raw: bool,
    /// `--wait S`: how long `submit` waits for the response line.
    pub wait: Option<Duration>,
    /// `--json`: print the session's unified report as one JSON object on
    /// stdout instead of the human-readable summary.
    pub json: bool,
    /// `--grid`.
    pub grid: bool,
    /// `--qasm`.
    pub qasm: bool,
}

impl Args {
    /// Parses `revpebble <command> <input> [flags]`.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut pebbles = None;
        let mut timeout = None;
        let mut mode = MoveMode::Sequential;
        let mut portfolio = None;
        let mut workers = None;
        let mut quota = None;
        let mut minimize = false;
        let mut incremental = false;
        let mut share_clauses = false;
        let mut diversify = false;
        let mut retries = None;
        let mut fault_plan = None;
        let mut addr = None;
        let mut connections = None;
        let mut max_pending = None;
        let mut name = None;
        let mut raw_frame = false;
        let mut wait = None;
        let mut json = false;
        let mut grid = false;
        let mut qasm = false;
        let mut iter = raw.iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--pebbles" => {
                    let value = iter.next().ok_or("--pebbles needs a value")?;
                    pebbles = Some(value.parse().map_err(|_| "bad --pebbles value")?);
                }
                "--timeout" => {
                    let value = iter.next().ok_or("--timeout needs a value")?;
                    let secs: u64 = value.parse().map_err(|_| "bad --timeout value")?;
                    timeout = Some(Duration::from_secs(secs));
                }
                "--mode" => {
                    let value = iter.next().ok_or("--mode needs seq or par")?;
                    mode = match value.as_str() {
                        "seq" | "sequential" => MoveMode::Sequential,
                        "par" | "parallel" => MoveMode::Parallel,
                        other => return Err(format!("unknown mode {other:?}")),
                    };
                }
                "--portfolio" => {
                    let value = iter.next().ok_or("--portfolio needs a worker count")?;
                    portfolio = Some(value.parse().map_err(|_| "bad --portfolio value")?);
                }
                "--workers" => {
                    let value = iter.next().ok_or("--workers needs a thread count")?;
                    workers = Some(value.parse().map_err(|_| "bad --workers value")?);
                }
                "--quota" => {
                    let value = iter.next().ok_or("--quota needs a conflict count")?;
                    quota = Some(value.parse().map_err(|_| "bad --quota value")?);
                }
                "--retries" => {
                    let value = iter.next().ok_or("--retries needs a count")?;
                    retries = Some(value.parse().map_err(|_| "bad --retries value")?);
                }
                "--fault-plan" => {
                    let value = iter.next().ok_or("--fault-plan needs SITE:KIND:SEED")?;
                    fault_plan = Some(value.clone());
                }
                "--addr" => {
                    let value = iter.next().ok_or("--addr needs HOST:PORT")?;
                    addr = Some(value.clone());
                }
                "--connections" => {
                    let value = iter.next().ok_or("--connections needs a handler count")?;
                    connections = Some(value.parse().map_err(|_| "bad --connections value")?);
                }
                "--max-pending" => {
                    let value = iter.next().ok_or("--max-pending needs a session count")?;
                    max_pending = Some(value.parse().map_err(|_| "bad --max-pending value")?);
                }
                "--name" => {
                    let value = iter.next().ok_or("--name needs a label")?;
                    name = Some(value.clone());
                }
                "--wait" => {
                    let value = iter.next().ok_or("--wait needs a value")?;
                    let secs: u64 = value.parse().map_err(|_| "bad --wait value")?;
                    wait = Some(Duration::from_secs(secs));
                }
                "--raw" => raw_frame = true,
                "--minimize" => minimize = true,
                "--incremental" => incremental = true,
                "--share-clauses" => share_clauses = true,
                "--diversify" => diversify = true,
                "--json" => json = true,
                "--grid" => grid = true,
                "--qasm" => qasm = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag {flag:?}"));
                }
                _ => positional.push(arg.clone()),
            }
        }
        let mut positional = positional.into_iter();
        let command = positional.next().ok_or("missing command")?;
        let inputs: Vec<String> = positional.collect();
        // `serve` is the one command with no input: it listens instead.
        let input = if command == "serve" {
            if let Some(extra) = inputs.first() {
                return Err(format!("serve takes no input (got {extra:?})"));
            }
            String::new()
        } else {
            inputs.first().cloned().ok_or("missing input")?
        };
        // Only `batch` serves several inputs in one invocation.
        if command != "batch" && inputs.len() > 1 {
            return Err(format!("unexpected argument {:?}", inputs[1]));
        }
        // Output-format conflicts are the CLI's own concern; everything
        // about the *search configuration* is validated by the session.
        if minimize && qasm {
            return Err("--qasm is not supported with --minimize".into());
        }
        if json && qasm {
            return Err("--qasm writes QASM to stdout; it conflicts with --json".into());
        }
        Ok(Args {
            command,
            input,
            inputs,
            pebbles,
            timeout,
            mode,
            portfolio,
            workers,
            quota,
            minimize,
            incremental,
            share_clauses,
            diversify,
            retries,
            fault_plan,
            addr,
            connections,
            max_pending,
            name,
            raw: raw_frame,
            wait,
            json,
            grid,
            qasm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command() {
        let args = Args::parse(&strs(&[
            "pebble",
            "c17",
            "--pebbles",
            "4",
            "--timeout",
            "30",
            "--mode",
            "par",
            "--grid",
            "--qasm",
            "--portfolio",
            "6",
        ]))
        .expect("parses");
        assert_eq!(args.command, "pebble");
        assert_eq!(args.input, "c17");
        assert_eq!(args.pebbles, Some(4));
        assert_eq!(args.timeout, Some(Duration::from_secs(30)));
        assert_eq!(args.mode, MoveMode::Parallel);
        assert_eq!(args.portfolio, Some(6));
        assert!(args.grid);
        assert!(args.qasm);
    }

    #[test]
    fn defaults() {
        let args = Args::parse(&strs(&["info", "paper"])).expect("parses");
        assert_eq!(args.pebbles, None);
        assert_eq!(args.timeout, None);
        assert_eq!(args.mode, MoveMode::Sequential);
        assert_eq!(args.portfolio, None);
        assert_eq!(args.workers, None);
        assert_eq!(args.quota, None);
        assert_eq!(args.retries, None);
        assert_eq!(args.fault_plan, None);
        assert_eq!(args.inputs, vec!["paper".to_string()]);
        assert!(!args.minimize);
        assert!(!args.incremental);
        assert!(!args.json);
        assert!(!args.grid);
        assert!(!args.qasm);
    }

    #[test]
    fn batch_takes_many_inputs_and_serving_flags() {
        let args = Args::parse(&strs(&[
            "batch",
            "paper",
            "c17",
            "paper",
            "--workers",
            "2",
            "--quota",
            "100000",
            "--minimize",
        ]))
        .expect("parses");
        assert_eq!(args.command, "batch");
        assert_eq!(args.input, "paper");
        assert_eq!(args.inputs, strs(&["paper", "c17", "paper"]));
        assert_eq!(args.workers, Some(2));
        assert_eq!(args.quota, Some(100_000));
        // Other commands keep their single-input arity.
        assert!(Args::parse(&strs(&["pebble", "paper", "c17"])).is_err());
        // Zero values parse; the session rejects them with typed errors.
        let args = Args::parse(&strs(&["batch", "paper", "--workers", "0", "--quota", "0"]))
            .expect("parses");
        assert_eq!(args.workers, Some(0));
        assert_eq!(args.quota, Some(0));
        assert!(Args::parse(&strs(&["batch", "paper", "--workers"])).is_err());
        assert!(Args::parse(&strs(&["batch", "paper", "--quota", "x"])).is_err());
    }

    #[test]
    fn serve_takes_flags_but_no_input() {
        let args = Args::parse(&strs(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--connections",
            "8",
            "--max-pending",
            "3",
            "--quota",
            "100000",
        ]))
        .expect("parses");
        assert_eq!(args.command, "serve");
        assert_eq!(args.input, "");
        assert!(args.inputs.is_empty());
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(args.workers, Some(4));
        assert_eq!(args.connections, Some(8));
        assert_eq!(args.max_pending, Some(3));
        assert_eq!(args.quota, Some(100_000));
        assert!(Args::parse(&strs(&["serve", "paper"])).is_err());
        assert!(Args::parse(&strs(&["serve", "--addr"])).is_err());
        assert!(Args::parse(&strs(&["serve", "--max-pending", "x"])).is_err());
    }

    #[test]
    fn submit_flags_parse() {
        let args = Args::parse(&strs(&[
            "submit",
            "paper",
            "--addr",
            "127.0.0.1:7979",
            "--name",
            "job-1",
            "--minimize",
            "--wait",
            "30",
        ]))
        .expect("parses");
        assert_eq!(args.command, "submit");
        assert_eq!(args.input, "paper");
        assert_eq!(args.name.as_deref(), Some("job-1"));
        assert_eq!(args.wait, Some(Duration::from_secs(30)));
        assert!(!args.raw);
        let args = Args::parse(&strs(&["submit", "{\"dag\":\"paper\"}", "--raw"])).expect("parses");
        assert!(args.raw);
        assert_eq!(args.input, "{\"dag\":\"paper\"}");
        assert!(Args::parse(&strs(&["submit", "paper", "--wait", "x"])).is_err());
        assert!(Args::parse(&strs(&["submit", "paper", "--name"])).is_err());
    }

    #[test]
    fn fault_containment_flags_parse() {
        let args = Args::parse(&strs(&[
            "batch",
            "paper",
            "--retries",
            "2",
            "--fault-plan",
            "exec.job:panic:0",
        ]))
        .expect("parses");
        assert_eq!(args.retries, Some(2));
        assert_eq!(args.fault_plan.as_deref(), Some("exec.job:panic:0"));
        assert!(Args::parse(&strs(&["batch", "paper", "--retries"])).is_err());
        assert!(Args::parse(&strs(&["batch", "paper", "--retries", "x"])).is_err());
        assert!(Args::parse(&strs(&["batch", "paper", "--fault-plan"])).is_err());
    }

    #[test]
    fn minimize_flags_parse() {
        let args = Args::parse(&strs(&[
            "pebble",
            "c17",
            "--minimize",
            "--incremental",
            "--timeout",
            "10",
            "--json",
        ]))
        .expect("parses");
        assert!(args.minimize);
        assert!(args.incremental);
        assert!(!args.share_clauses);
        assert!(!args.diversify);
        assert!(args.json);
        assert_eq!(args.timeout, Some(Duration::from_secs(10)));
    }

    #[test]
    fn semantic_combinations_parse_and_defer_to_the_session() {
        // These used to be ad-hoc parse errors; they now parse fine and
        // the session rejects them with a typed `SessionError` (covered
        // by the exit-code integration tests).
        assert!(Args::parse(&strs(&["pebble", "c17", "--minimize", "--share-clauses"])).is_ok());
        assert!(Args::parse(&strs(&[
            "pebble",
            "c17",
            "--pebbles",
            "4",
            "--portfolio",
            "4",
            "--share-clauses"
        ]))
        .is_ok());
        assert!(Args::parse(&strs(&["pebble", "a", "--minimize", "--pebbles", "4"])).is_ok());
        let args = Args::parse(&strs(&[
            "pebble",
            "c17",
            "--minimize",
            "--portfolio",
            "4",
            "--share-clauses",
            "--diversify",
        ]))
        .expect("parses");
        assert!(args.share_clauses);
        assert!(args.diversify);
        // `--diversify` without a portfolio parses; the session rejects it.
        assert!(Args::parse(&strs(&["pebble", "c17", "--minimize", "--diversify"])).is_ok());
    }

    #[test]
    fn portfolio_zero_parses_and_defers_to_the_library() {
        // `0` = one worker per core, resolved by `default_portfolio`.
        let args = Args::parse(&strs(&["pebble", "paper", "--portfolio", "0"])).expect("parses");
        assert_eq!(args.portfolio, Some(0));
    }

    #[test]
    fn errors() {
        assert!(Args::parse(&strs(&[])).is_err());
        assert!(Args::parse(&strs(&["info"])).is_err());
        assert!(Args::parse(&strs(&["info", "a", "b"])).is_err());
        assert!(Args::parse(&strs(&["info", "a", "--bogus"])).is_err());
        assert!(Args::parse(&strs(&["pebble", "a", "--pebbles"])).is_err());
        assert!(Args::parse(&strs(&["pebble", "a", "--pebbles", "x"])).is_err());
        assert!(Args::parse(&strs(&["pebble", "a", "--mode", "quantum"])).is_err());
        assert!(Args::parse(&strs(&["pebble", "a", "--portfolio"])).is_err());
        assert!(Args::parse(&strs(&["pebble", "a", "--portfolio", "x"])).is_err());
        // --minimize emits no fixed circuit, so --qasm stays a CLI error;
        // --json promises one JSON object on stdout, so --qasm conflicts.
        assert!(Args::parse(&strs(&["pebble", "a", "--minimize", "--qasm"])).is_err());
        assert!(Args::parse(&strs(&[
            "pebble",
            "a",
            "--pebbles",
            "4",
            "--qasm",
            "--json"
        ]))
        .is_err());
    }
}
