//! `ProbeEvent` stream invariants of the `PebblingSession` front door:
//!
//! - within one worker, probe indices arrive monotone (non-decreasing,
//!   and strictly increasing across `ProbeStarted` events);
//! - every probe's started event precedes its resolution event;
//! - `BudgetCertified` is terminal: exactly one per session, delivered
//!   last — even for portfolio runs whose rivals are cancelled mid-probe;
//! - the callback sees exactly `events_emitted` events;
//! - a fired [`CancelToken`] ends the stream *without* a terminal event:
//!   a cancelled session never pretends to certify, and its report names
//!   the stop reason;
//! - a probe that ends without a strategy carries its verdict, so a
//!   timed-out probe never reads as a refutation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use revpebble::prelude::*;

fn collect(session: PebblingSession<'_>) -> (Report, Vec<ProbeEvent>) {
    let events: Arc<Mutex<Vec<ProbeEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let report = session
        .on_event(move |event| sink.lock().expect("event sink").push(event))
        .run()
        .expect("a valid configuration");
    let events = events.lock().expect("event sink").clone();
    (report, events)
}

/// Shared invariants of every session's event stream.
fn assert_stream_invariants(report: &Report, events: &[ProbeEvent]) {
    assert_eq!(
        events.len() as u64,
        report.events_emitted,
        "the callback must see exactly the counted events"
    );
    // Exactly one terminal event, and it is last.
    let terminals = events
        .iter()
        .filter(|e| matches!(e, ProbeEvent::BudgetCertified { .. }))
        .count();
    assert_eq!(terminals, 1, "exactly one terminal event: {events:?}");
    assert!(
        matches!(events.last(), Some(ProbeEvent::BudgetCertified { .. })),
        "the terminal event must arrive last: {events:?}"
    );
    // Per-worker probe indices are monotone; started events strictly grow.
    let mut last_probe: HashMap<usize, usize> = HashMap::new();
    let mut last_started: HashMap<usize, usize> = HashMap::new();
    for event in events {
        let (worker, probe, started) = match *event {
            ProbeEvent::ProbeStarted { worker, probe, .. } => (worker, probe, true),
            ProbeEvent::ProbeSolved { worker, probe, .. }
            | ProbeEvent::ProbeRefuted { worker, probe, .. } => (worker, probe, false),
            _ => continue,
        };
        if let Some(&previous) = last_probe.get(&worker) {
            assert!(
                probe >= previous,
                "worker {worker}: probe index fell {previous} -> {probe}: {events:?}"
            );
        }
        last_probe.insert(worker, probe);
        if started {
            if let Some(&previous) = last_started.get(&worker) {
                assert!(
                    probe > previous,
                    "worker {worker}: ProbeStarted index must strictly grow: {events:?}"
                );
            }
            last_started.insert(worker, probe);
        } else {
            assert_eq!(
                last_started.get(&worker),
                Some(&probe),
                "worker {worker}: probe {probe} resolved without being started: {events:?}"
            );
        }
    }
}

#[test]
fn single_minimize_stream_is_monotone_and_terminal() {
    let dag = revpebble::graph::generators::paper_example();
    // Under an 11-step cap the paper example's minimum is 5 (4 pebbles
    // need 12 steps), above the floor of 4 proven without SAT.
    let (report, events) = collect(
        PebblingSession::new(&dag)
            .minimize()
            .max_steps(11)
            .per_query_timeout(Duration::from_secs(30)),
    );
    assert_stream_invariants(&report, &events);
    assert_eq!(report.minimum, Some(5));
    assert!(matches!(
        events.last(),
        Some(ProbeEvent::BudgetCertified { minimum: Some(5) })
    ));
    // The exhausted budget-4 probe raises the floor to the optimum; the
    // raise is observable in the stream.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProbeEvent::FloorRaised { floor: 5, .. })),
        "{events:?}"
    );
    // Under a 60-step cap the floor proven without SAT is the minimum:
    // nothing below it is probed and no probe raises it.
    let (report, events) = collect(
        PebblingSession::new(&dag)
            .minimize()
            .max_steps(60)
            .per_query_timeout(Duration::from_secs(30)),
    );
    assert_stream_invariants(&report, &events);
    assert_eq!((report.minimum, report.floor), (Some(4), 4));
    assert!(
        events.iter().all(|e| match *e {
            ProbeEvent::ProbeStarted { budget, .. } => budget >= 4,
            ProbeEvent::FloorRaised { .. } => false,
            _ => true,
        }),
        "{events:?}"
    );
}

#[test]
fn shared_portfolio_emits_one_terminal_despite_cancelled_rivals() {
    // An 8-node chain needs 25 steps at its floor of 4 pebbles (proven
    // without SAT) and 21 at 5. Under a 24-step cap the minimum is 5 and
    // the budget-4 probe must refute ten step counts, so the race runs
    // for many scheduler slices even on one core (the paper example's
    // 11-step race ends in about a millisecond, before a rival starts).
    let dag = revpebble::graph::generators::chain(8);
    let (report, events) = collect(
        PebblingSession::new(&dag)
            .minimize()
            .portfolio(4)
            .share_clauses()
            .max_steps(24)
            .per_query_timeout(Duration::from_secs(30)),
    );
    assert_stream_invariants(&report, &events);
    assert_eq!(report.minimum, Some(5));
    // The race ran real rivals...
    let workers: std::collections::BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match *e {
            ProbeEvent::ProbeStarted { worker, .. } => Some(worker),
            _ => None,
        })
        .collect();
    assert!(workers.len() >= 2, "several workers probed: {workers:?}");
    // ...whose sharing ticks carry the cooperative counters.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProbeEvent::ClauseSharingTick { .. })),
        "shared runs tick their sharing counters: {events:?}"
    );
}

#[test]
fn isolated_portfolio_and_fixed_budget_race_stay_terminal_once() {
    let dag = revpebble::graph::generators::paper_example();
    // Isolated minimize race (no sharing ticks expected).
    let (report, events) = collect(
        PebblingSession::new(&dag)
            .minimize()
            .portfolio(3)
            .max_steps(60)
            .per_query_timeout(Duration::from_secs(30)),
    );
    assert_stream_invariants(&report, &events);
    assert!(!events
        .iter()
        .any(|e| matches!(e, ProbeEvent::ClauseSharingTick { .. })));

    // Fixed-budget race: one probe per worker, one terminal for the lot.
    let (report, events) = collect(PebblingSession::new(&dag).pebbles(4).portfolio(4));
    assert_stream_invariants(&report, &events);
    assert_eq!(report.minimum, Some(4));
}

#[test]
fn a_token_fired_mid_probe_stops_promptly_without_certifying() {
    // `b3_m4` (the smallest H-operator bench instance) minimizes in
    // seconds of SAT time — plenty of mid-probe window. The callback
    // fires the session's own token at the first `ProbeStarted`, so the
    // cancellation lands while the solver is deep in a probe.
    let dag = revpebble::graph::slp::h_operator_sized(59);
    let token = CancelToken::new();
    let trigger = token.clone();
    let events: Arc<Mutex<Vec<ProbeEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let start = std::time::Instant::now();
    let report = PebblingSession::new(&dag)
        .minimize()
        .incremental(true)
        .per_query_timeout(Duration::from_secs(120))
        .cancel_token(token)
        .on_event(move |event| {
            if matches!(event, ProbeEvent::ProbeStarted { .. }) {
                trigger.cancel();
            }
            sink.lock().expect("event sink").push(event);
        })
        .run()
        .expect("a valid configuration");
    let events = events.lock().expect("event sink").clone();

    // Prompt: the stop must land well inside the first probe, not after
    // the full multi-second minimize (let alone the per-query timeout).
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "cancellation took {:?}",
        start.elapsed()
    );
    assert_eq!(report.stop_reason, Some(StopReason::Cancelled));
    assert_eq!(
        report.minimum, None,
        "a cancelled session certifies nothing"
    );
    // No terminal event after a cancel: the stream just ends.
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ProbeEvent::BudgetCertified { .. })),
        "no BudgetCertified after cancel: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProbeEvent::ProbeStarted { .. })),
        "the cancellation was observed mid-probe: {events:?}"
    );
    assert_eq!(events.len() as u64, report.events_emitted);
}

#[test]
fn a_cancelled_handle_joins_to_a_partial_report() {
    let dag = revpebble::graph::slp::h_operator_sized(59);
    let runtime = SessionRuntime::new(2).expect("workers");
    let session = PebblingSession::new(&dag)
        .minimize()
        .incremental(true)
        .per_query_timeout(Duration::from_secs(120));
    let handle = runtime
        .spawn(session, runtime.root().child())
        .expect("a valid configuration");
    handle.cancel();
    let report = handle.join();
    assert_eq!(report.stop_reason, Some(StopReason::Cancelled));
    assert_eq!(
        report.minimum, None,
        "a cancelled session certifies nothing"
    );
}

#[test]
fn frontier_stream_probes_descending_budgets() {
    let dag = revpebble::graph::generators::paper_example();
    let (report, events) = collect(
        PebblingSession::new(&dag)
            .sweep_frontier()
            .max_steps(60)
            .per_query_timeout(Duration::from_secs(30)),
    );
    assert_stream_invariants(&report, &events);
    let budgets: Vec<usize> = events
        .iter()
        .filter_map(|e| match *e {
            ProbeEvent::ProbeStarted { budget, .. } => Some(budget),
            _ => None,
        })
        .collect();
    assert!(
        budgets.windows(2).all(|w| w[0] > w[1]),
        "the sweep probes downward: {budgets:?}"
    );
}

#[test]
fn a_probe_without_a_strategy_names_how_it_ended() {
    let unsolved = |events: &[ProbeEvent]| -> Vec<(ProbeVerdict, String)> {
        events
            .iter()
            .filter_map(|event| match *event {
                ProbeEvent::ProbeRefuted { verdict, .. } => Some((verdict, event.to_string())),
                _ => None,
            })
            .collect()
    };

    // One conflict cannot decide the paper example at 4 pebbles: the
    // quota stops the probe mid-search, which is a timeout, not a proof.
    let paper = revpebble::graph::generators::paper_example();
    let (report, events) = collect(PebblingSession::new(&paper).pebbles(4).quota(1));
    assert_eq!(report.stop_reason, Some(StopReason::QuotaExhausted));
    let probes = unsolved(&events);
    assert!(
        matches!(probes[..], [(ProbeVerdict::Timeout { .. }, _)]),
        "{events:?}"
    );
    assert!(probes[0].1.contains("timed out"), "{}", probes[0].1);
    assert!(!probes[0].1.contains("refuted"), "{}", probes[0].1);

    // hop needs 6 pebbles; at 5 every step count up to the cap is refuted.
    let hop = revpebble::graph::builtin_dag("hop").expect("a built-in design");
    let cap = 4 * hop.num_nodes() + 20;
    let (report, events) = collect(PebblingSession::new(&hop).pebbles(5).max_steps(cap));
    assert_stream_invariants(&report, &events);
    let probes = unsolved(&events);
    assert_eq!(
        probes
            .iter()
            .map(|(verdict, _)| *verdict)
            .collect::<Vec<_>>(),
        [ProbeVerdict::StepLimit { steps_checked: cap }],
        "{events:?}"
    );
    assert!(probes[0].1.contains("step-capped"), "{}", probes[0].1);
}
