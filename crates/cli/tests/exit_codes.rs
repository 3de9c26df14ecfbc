//! Exit-code contract of the `revpebble` binary:
//!
//! - `0` — success, including `--help`/`-h` (usage text on stdout);
//! - `1` — runtime failure (infeasible budget, timeout, missing input);
//! - `2` — invalid usage or configuration, whether rejected by the flag
//!   parser (unknown flag, no command) or by the `PebblingSession` plan
//!   (semantic combination) — the CLI and the library reject identically.

use std::process::{Command, Output};

fn revpebble(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_revpebble"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn success_exits_zero() {
    // The second run races four workers as one job on a two-thread
    // session runtime.
    let inline = ["pebble", "paper", "--pebbles", "4"];
    let spawned = [
        "pebble",
        "paper",
        "--pebbles",
        "4",
        "--portfolio",
        "4",
        "--workers",
        "2",
    ];
    for args in [&inline[..], &spawned[..]] {
        let output = revpebble(args);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{args:?}: {}",
            stderr(&output)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("pebbles: 4"), "{args:?}: {stdout}");
    }
}

#[test]
fn session_errors_exit_two_portfolio_too_large() {
    let output = revpebble(&["pebble", "paper", "--pebbles", "4", "--portfolio", "65"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("a portfolio of 65 workers exceeds the limit of 64"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_minimize_with_pebbles() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--pebbles", "4"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--minimize searches for the budget"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_share_without_portfolio() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--share-clauses"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--share-clauses needs --portfolio"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_share_without_minimize() {
    let output = revpebble(&[
        "pebble",
        "paper",
        "--pebbles",
        "4",
        "--portfolio",
        "2",
        "--share-clauses",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("--share-clauses only applies to the minimize search"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_missing_budget() {
    let output = revpebble(&["pebble", "paper"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("no budget given"), "{stderr}");
}

#[test]
fn session_errors_exit_two_zero_quota() {
    let output = revpebble(&["pebble", "paper", "--pebbles", "4", "--quota", "0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(
        stderr.contains("conflict quota of 0 is exhausted"),
        "{stderr}"
    );
}

#[test]
fn session_errors_exit_two_zero_worker_pool() {
    for args in [
        &["batch", "paper", "--workers", "0"][..],
        &["pebble", "paper", "--pebbles", "4", "--workers", "0"][..],
    ] {
        let output = revpebble(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = stderr(&output);
        assert!(
            stderr.contains("needs at least one worker"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn batch_serves_many_inputs_as_one_json_report() {
    // One worker serializes the three sessions, so the repeated `paper`
    // input is a *guaranteed* cache hit (the first run has inserted its
    // answer before the third starts).
    let output = revpebble(&[
        "batch",
        "paper",
        "c17",
        "paper",
        "--workers",
        "1",
        "--quota",
        "5000000",
        "--pebbles",
        "4",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"workers\":1",
        "\"sessions\":[",
        "\"name\":\"paper\"",
        "\"name\":\"c17\"",
        "\"cache_hits\":1",
        "\"cache_misses\":2",
        // Every batch entry carries its own fault-containment verdict:
        // a clean run has a null stop_reason and zero re-runs.
        "\"stop_reason\":null",
        "\"retries\":0",
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
    // One JSON object, one line: machine-readable stdout.
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
}

#[test]
fn an_injected_panic_is_contained_and_named_in_the_batch_report() {
    // `--fault-plan exec.job:panic:0` kills the first session job on
    // entry. The batch survives: exit 1 (a failed entry), not a crash,
    // and the entry names the panic in its stop_reason.
    let output = revpebble(&[
        "batch",
        "paper",
        "--workers",
        "1",
        "--fault-plan",
        "exec.job:panic:0",
    ]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("\"stop_reason\":\"worker-panicked\""),
        "{stdout}"
    );
}

#[test]
fn retries_recover_an_injected_panic() {
    // The fail point fires on the first visit only; `--retries 1`
    // re-runs the session, which then completes cleanly — entry-level
    // retries counts the re-run.
    let output = revpebble(&[
        "batch",
        "paper",
        "--workers",
        "1",
        "--retries",
        "1",
        "--fault-plan",
        "exec.job:panic:0",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"stop_reason\":null"), "{stdout}");
    assert!(stdout.contains("\"retries\":1"), "{stdout}");
    assert!(stdout.contains("\"minimum\":4"), "{stdout}");
}

#[test]
fn a_bad_fault_plan_exits_two() {
    let output = revpebble(&["batch", "paper", "--fault-plan", "nowhere:panic:0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("bad --fault-plan"), "{stderr}");
}

#[test]
fn an_exhausted_quota_fails_the_batch_entry() {
    // One conflict is nowhere near enough to minimize the paper DAG, so
    // the session stops on its quota and the batch reports the failure.
    let output = revpebble(&["batch", "paper", "--workers", "1", "--quota", "1"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"stop_reason\":\"quota\""), "{stdout}");
}

#[test]
fn parse_errors_exit_two_with_usage() {
    let output = revpebble(&["pebble", "paper", "--bogus"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["pebble", "paper", "--help"]] {
        let output = revpebble(args);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{args:?}: {}",
            stderr(&output)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(output.stderr.is_empty(), "{args:?}: {}", stderr(&output));
    }
}

#[test]
fn bare_invocation_exits_two_with_usage() {
    let output = revpebble(&[]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr(&output);
    assert!(stderr.contains("missing command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn runtime_failures_exit_one() {
    // 2 pebbles are below the paper example's structural lower bound of
    // 3: a valid configuration whose *search* fails, alone or raced.
    let single = ["pebble", "paper", "--pebbles", "2"];
    let raced = ["pebble", "paper", "--pebbles", "2", "--portfolio", "2"];
    let spawned = [
        "pebble",
        "paper",
        "--pebbles",
        "2",
        "--portfolio",
        "2",
        "--workers",
        "1",
    ];
    for args in [&single[..], &raced[..], &spawned[..]] {
        let output = revpebble(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = stderr(&output);
        assert!(stderr.contains("infeasible (lower bound 3)"), "{stderr}");
    }
}

#[test]
fn json_report_carries_the_schema_keys() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--timeout", "30", "--json"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    for key in [
        "\"engine\":",
        "\"minimum\":4",
        "\"floor\":",
        "\"workers\":[",
        "\"events_emitted\":",
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
    // JSON mode keeps stdout machine-readable: exactly one line.
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
}

#[test]
fn probe_events_stream_to_stderr() {
    let output = revpebble(&["pebble", "paper", "--minimize", "--timeout", "30"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stderr = stderr(&output);
    assert!(stderr.contains("trying budget"), "{stderr}");
    assert!(stderr.contains("certified minimum budget: 4"), "{stderr}");
}
