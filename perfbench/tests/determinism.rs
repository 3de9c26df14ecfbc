//! The benchmark's own checks: the seeded inputs are pinned at one seed,
//! per-op work counters repeat exactly at one seed, and every workload
//! runs clean at a second seed.

use std::time::Instant;

use revpebble_perfbench::library::{prepare, run_window, Kind};
use revpebble_perfbench::{run, serve, Config, Workload};

/// Per-op `(question, conflicts, propagations, queries, probes)` of one
/// traced pass (a zero-second window still runs one whole pass).
fn counters(workload: Workload, seed: u64) -> Vec<(usize, u64, u64, u64, u64)> {
    let config = Config {
        workload,
        seed,
        seconds: 0.0,
        trace: true,
    };
    let outcome = run(config, Instant::now());
    assert_eq!(outcome.totals().1, 0, "{workload:?} failed ops");
    let (window, _) = outcome.traced.expect("a traced run has a traced window");
    window
        .ops
        .iter()
        .map(|op| {
            let c = op.counters;
            (
                op.question,
                c.conflicts,
                c.propagations,
                c.queries,
                c.probes,
            )
        })
        .collect()
}

#[test]
fn minimize_and_synth_counters_repeat_exactly() {
    for workload in [Workload::Minimize, Workload::Synth] {
        let first = counters(workload, 11);
        assert!(
            first.iter().all(|op| op.2 > 0),
            "{workload:?}: every op propagates"
        );
        assert_eq!(first, counters(workload, 11), "{workload:?} counters moved");
    }
}

#[test]
fn every_workload_runs_clean_at_a_second_seed() {
    for workload in [Workload::Minimize, Workload::Synth, Workload::Serve] {
        let config = Config {
            workload,
            seed: 2,
            seconds: 0.5,
            trace: false,
        };
        let outcome = run(config, Instant::now());
        let (attempted, failed) = outcome.totals();
        assert!(attempted > 0, "{workload:?} attempted nothing");
        assert_eq!(
            failed,
            0,
            "{workload:?}:\n{}",
            revpebble_perfbench::render(&outcome)
        );
    }
}

/// A draw that needs more conflicts than its guard allows fails its op
/// loudly instead of running on.
#[test]
fn a_draw_past_its_guard_fails_its_op() {
    let mut prep = prepare(Kind::Minimize, 1);
    for design in &mut prep.designs {
        if design.guard.is_some() {
            design.guard = Some(1);
        }
    }
    let (designs, questions) = (&prep.designs, &prep.questions);
    prep.pass
        .retain(|&q| designs[questions[q].design].guard.is_some());
    let (window, _) = run_window(&prep, 0.0, None);
    assert_eq!(window.ops.len(), 8);
    let failures: Vec<&str> = window
        .ops
        .iter()
        .filter_map(|op| op.failure.as_deref())
        .collect();
    assert!(
        !failures.is_empty(),
        "no draw needed more than one conflict"
    );
    assert!(
        failures.iter().all(|f| f.contains("stopped early (quota)")),
        "{failures:?}"
    );
}

/// FNV-1a over the texts, each closed by a newline.
fn digest<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for text in texts {
        for byte in text.bytes().chain(std::iter::once(b'\n')) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The adjacency JSON of the seeded random draws of a library workload.
fn drawn(kind: Kind, seed: u64) -> Vec<String> {
    prepare(kind, seed)
        .designs
        .iter()
        .filter(|design| design.guard.is_some())
        .map(|design| design.dag.to_adjacency_json())
        .collect()
}

/// The inputs at a seed depend on the seed alone: no draw is chosen by
/// how the solver fares on it. A change here changes every workload's
/// load, so it is a change to the benchmark, not to the program.
#[test]
fn seeded_inputs_are_pinned() {
    let minimize = drawn(Kind::Minimize, 1);
    assert_eq!(minimize.len(), 8);
    assert_eq!(minimize[0], MINIMIZE_FIRST);
    assert_eq!(digest(minimize.iter().map(String::as_str)), MINIMIZE_DIGEST);
    let synth = drawn(Kind::Synth, 1);
    assert_eq!(synth.len(), 2);
    assert_eq!(digest(synth.iter().map(String::as_str)), SYNTH_DIGEST);
    let corpus = serve::corpus(1);
    let payloads = corpus.questions.iter().map(|q| q.payload.as_str());
    assert_eq!(digest(payloads), SERVE_PAYLOAD_DIGEST);
    let order: Vec<String> = corpus.stream.iter().map(usize::to_string).collect();
    assert_eq!(digest(order.iter().map(String::as_str)), SERVE_ORDER_DIGEST);
}

/// The first `minimize` draw at seed 1: 9 nodes on 3 inputs.
const MINIMIZE_FIRST: &str = concat!(
    r#"{"inputs":["x0","x1","x2"],"nodes":["#,
    r#"{"name":"r0","op":"not","fanins":["x1"]},"#,
    r#"{"name":"r1","op":"xor","fanins":["x1","x2"]},"#,
    r#"{"name":"r2","op":"xor","fanins":["x2","r1"]},"#,
    r#"{"name":"r3","op":"maj","fanins":["x0","r0","r1"]},"#,
    r#"{"name":"r4","op":"xor","fanins":["x1","r0"]},"#,
    r#"{"name":"r5","op":"maj","fanins":["x0","r2","r4"]},"#,
    r#"{"name":"r6","op":"not","fanins":["x1"]},"#,
    r#"{"name":"r7","op":"xor","fanins":["x2","r5"]},"#,
    r#"{"name":"r8","op":"xor","fanins":["x2","r5"]}],"#,
    r#""outputs":["r3","r6","r7","r8"]}"#
);
const MINIMIZE_DIGEST: u64 = 0xf8b9_496d_3cc6_9cf5;
const SYNTH_DIGEST: u64 = 0x0f45_cc1e_27e9_3942;
const SERVE_PAYLOAD_DIGEST: u64 = 0x1f4b_c473_653a_55ab;
const SERVE_ORDER_DIGEST: u64 = 0x082f_921e_2f3c_6f1e;
