//! Chaos suite for the fault-containment runtime: a deterministic
//! fail-point matrix (every site × {panic, delay, transient} × seeds)
//! plus the acceptance properties — a panicked worker of a cooperative
//! minimize race cannot change the certified minimum, a disabled
//! `FaultPlan` is invisible in the report, and the `SessionHandle`
//! watchdog detaches from a wedged session instead of blocking forever.
//!
//! Every session here must end in a *terminal* report: either a clean
//! certified one or a partial one whose `stop_reason` names the fault.
//! No cell may hang — CI wraps this suite in a hard `timeout`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use revpebble::graph::generators::{paper_example, random_dag};
use revpebble::prelude::*;
use revpebble::sat::SolverConfig;

/// Paper-example minimum (Figure 1 of Meuli et al.): the clean answer
/// every uninjured run must certify.
const PAPER_MINIMUM: usize = 4;

fn base_with(faults: FaultPlan) -> SolverOptions {
    SolverOptions {
        sat: SolverConfig {
            faults,
            ..SolverConfig::default()
        },
        // Decisive step cap (the paper example pebbles in 12 steps):
        // refutation probes exhaust a bounded range instead of the
        // 10_000-step default, keeping every matrix cell subsecond so
        // the full sweep fits CI's hard timeout.
        max_steps: 44,
        ..SolverOptions::default()
    }
}

/// One chaos cell: a minimize session on the paper example with `plan`
/// armed, spawned on a fresh runtime (whose result cache makes the run
/// visit `cache.insert`) with probe retries enabled (so transients can
/// recover).
fn chaos_session(plan: FaultPlan) -> Report {
    let dag = paper_example();
    let runtime = SessionRuntime::new(2).expect("workers");
    let session = PebblingSession::new(&dag)
        .solver_options(base_with(plan))
        .minimize()
        .retries(3)
        .per_query_timeout(Duration::from_secs(30));
    runtime
        .spawn(session, runtime.root().child())
        .expect("a valid configuration")
        .join()
}

fn assert_clean(report: &Report, label: &str) {
    assert_eq!(
        report.stop_reason, None,
        "{label}: expected a clean report, got {:?}",
        report.stop_reason
    );
    assert_eq!(
        report.minimum,
        Some(PAPER_MINIMUM),
        "{label}: clean run must certify the paper minimum"
    );
}

#[test]
fn every_fault_matrix_cell_ends_in_a_terminal_report() {
    // Debug builds sweep a reduced seed range: each cell is a full
    // minimize session, and unoptimized SAT solving makes the 120-cell
    // sweep take tens of minutes. The CI chaos job runs this suite
    // `--release`, where the full 0..8 sweep finishes in minutes.
    let seeds = if cfg!(debug_assertions) {
        0..3u64
    } else {
        0..8u64
    };
    for site in FaultSite::ALL {
        for kind in [FaultKind::Panic, FaultKind::Delay, FaultKind::Transient] {
            for seed in seeds.clone() {
                let plan = FaultPlan::inject_with_delay(
                    site,
                    kind,
                    seed,
                    // Short enough that delay cells stay cheap, long
                    // enough to land mid-solve.
                    Duration::from_millis(5),
                );
                let label = format!("{site}:{kind}:{seed}");
                let cell_started = Instant::now();
                let report = chaos_session(plan);
                eprintln!("cell {label}: {:?}", cell_started.elapsed());
                if plan.injected() == 0 {
                    // The seed outran the site's visit count (e.g. a
                    // short probe run never reached conflict #7): the
                    // arm never fired, so the run must be unhurt.
                    assert_clean(&report, &label);
                    continue;
                }
                match kind {
                    // A delay only costs wall-clock; the answer and the
                    // stop reason are untouched.
                    FaultKind::Delay => assert_clean(&report, &label),
                    // Transients recover through the retry policy —
                    // except at `exec.job`, where the whole session is
                    // the job and degradation cancels its own token.
                    FaultKind::Transient => {
                        if site == FaultSite::ExecJob {
                            assert_eq!(
                                report.stop_reason,
                                Some(StopReason::Cancelled),
                                "{label}: a transient session job degrades to cancellation"
                            );
                        } else {
                            assert_clean(&report, &label);
                        }
                    }
                    // A panic is contained into a partial report that
                    // names it — never an unwind, never a hang.
                    FaultKind::Panic => {
                        assert!(
                            matches!(report.stop_reason, Some(StopReason::WorkerPanicked { .. })),
                            "{label}: expected WorkerPanicked, got {:?}",
                            report.stop_reason
                        );
                        assert_eq!(
                            report.minimum, None,
                            "{label}: a single-worker panic certifies nothing"
                        );
                    }
                    _ => unreachable!("matrix covers panic/delay/transient"),
                }
            }
        }
    }
}

#[test]
fn a_spurious_cancel_of_a_probe_child_is_retried_not_fatal() {
    // `session.probe` arms a spurious cancellation of the probe's child
    // token. The session token never fired, so the retry loop treats
    // the cancellation as spurious and re-runs the probe.
    let plan = FaultPlan::inject(FaultSite::SessionProbe, FaultKind::SpuriousCancel, 0);
    let report = chaos_session(plan);
    assert_eq!(plan.injected(), 1, "the arm fired");
    assert_clean(&report, "session.probe:cancel:0");
    assert!(
        report.retries >= 1,
        "the spurious cancellation was retried: {report:?}"
    );
}

#[test]
fn a_batch_quarantines_its_panicked_session_while_the_rest_complete() {
    // The first session job panics on entry; its batch neighbor (and
    // the panicked entry's own report) must still arrive.
    let plan = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, 0);
    let dag = paper_example();
    let runtime = SessionRuntime::new(1).expect("workers");
    let handles: Vec<SessionHandle> = (0..2)
        .map(|_| {
            let session = PebblingSession::new(&dag)
                .solver_options(base_with(plan))
                .minimize();
            runtime
                .spawn(session, runtime.root().child())
                .expect("valid configuration")
        })
        .collect();
    let reports: Vec<Report> = handles.into_iter().map(SessionHandle::join).collect();
    assert_eq!(reports.len(), 2);
    let (poisoned, healthy) = (&reports[0], &reports[1]);
    assert!(
        matches!(
            poisoned.stop_reason,
            Some(StopReason::WorkerPanicked { .. })
        ),
        "{:?}",
        poisoned.stop_reason
    );
    assert_eq!(healthy.stop_reason, None);
    assert_eq!(healthy.minimum, Some(PAPER_MINIMUM));
}

#[test]
fn the_watchdog_detaches_from_a_wedged_session() {
    // A 10s entry delay wedges the job before any solver runs (the
    // session token's conflict count never moves). The session deadline
    // fires at 50ms; after the 100ms detach grace with a still count,
    // join must return a Detached placeholder instead of waiting out the
    // sleep.
    let plan = FaultPlan::inject_with_delay(
        FaultSite::ExecJob,
        FaultKind::Delay,
        0,
        Duration::from_secs(10),
    );
    let dag = paper_example();
    let runtime = SessionRuntime::new(1).expect("workers");
    let deadline = Instant::now() + Duration::from_millis(50);
    let handle = runtime
        .spawn(
            PebblingSession::new(&dag)
                .solver_options(base_with(plan))
                .minimize(),
            runtime.root().child_with_limits(Some(deadline), None),
        )
        .expect("a valid configuration")
        .detach_grace(Duration::from_millis(100));
    let joined_at = Instant::now();
    let report = handle.join();
    let waited = joined_at.elapsed();
    assert_eq!(report.stop_reason, Some(StopReason::Detached), "{report:?}");
    assert!(
        waited < Duration::from_secs(5),
        "join must not wait out the wedge: {waited:?}"
    );
    // The runtime's pool still holds the sleeping job; drop joins it
    // after the sleep — that is the price of detaching, paid at
    // teardown, not inside join.
}

/// Strips the timing-dependent fields from a report's JSON so runs can
/// be compared byte-for-byte. `queries`/`conflicts` vary run-to-run
/// even without faults — the solver polls wall-clock deadlines — so
/// they count as timing fields alongside the explicit clocks.
fn scrub_timings(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    loop {
        let next = [
            "\"elapsed_s\":",
            "\"wall_s\":",
            "\"queries\":",
            "\"conflicts\":",
        ]
        .iter()
        .filter_map(|key| rest.find(key).map(|at| (at, key.len())))
        .min();
        match next {
            Some((at, key_len)) => {
                out.push_str(&rest[..at + key_len]);
                rest = &rest[at + key_len..];
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                out.push('0');
                rest = &rest[end..];
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    out
}

#[test]
fn a_disabled_fault_plan_is_byte_invisible_in_the_report() {
    let dag = paper_example();
    let run = |faults: FaultPlan| {
        PebblingSession::new(&dag)
            .solver_options(base_with(faults))
            .minimize()
            .run()
            .expect("a valid configuration")
            .to_json()
    };
    let vanilla = run(FaultPlan::none());
    let disabled = run(FaultPlan::none());
    assert_eq!(
        scrub_timings(&vanilla),
        scrub_timings(&disabled),
        "FaultPlan::none() must be indistinguishable from no plan"
    );
    assert!(vanilla.contains("\"stop_reason\":null"), "{vanilla}");
    assert!(vanilla.contains("\"retries\":0"), "{vanilla}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property: inject a panic into one worker of a
    /// 4-way shared-clause minimize race — the race must certify the
    /// same minimum as a fault-free single worker, with a clean
    /// stop_reason and exactly one failed worker row.
    #[test]
    fn a_panicked_race_worker_cannot_change_the_certified_minimum(
        victim in 0u64..4,
        inputs in 2usize..4,
        nodes in 4usize..10,
        seed in any::<u64>(),
    ) {
        let dag = random_dag(inputs, nodes, seed);
        let decisive = SolverOptions {
            // Step caps above any optimum these little DAGs admit, so
            // probes end in certificates, never clock races.
            max_steps: 4 * dag.num_nodes() + 20,
            ..SolverOptions::default()
        };
        let baseline = PebblingSession::new(&dag)
            .solver_options(decisive)
            .minimize()
            .per_query_timeout(Duration::from_secs(60))
            .run()
            .expect("a valid configuration");
        prop_assert!(baseline.minimum.is_some(), "decisive regime certifies");

        // The `exec.job` arm fires on the victim-th worker job to
        // start — effectively a random member of the race.
        let faults = FaultPlan::inject(FaultSite::ExecJob, FaultKind::Panic, victim);
        let raced = PebblingSession::new(&dag)
            .solver_options(SolverOptions { sat: SolverConfig { faults, ..SolverConfig::default() }, ..decisive })
            .minimize()
            .portfolio(4)
            .share_clauses()
            .per_query_timeout(Duration::from_secs(60))
            .executor(Arc::new(Executor::new(4)))
            .run()
            .expect("a valid configuration");

        prop_assert_eq!(faults.injected(), 1, "exactly one worker was killed");
        prop_assert_eq!(raced.minimum, baseline.minimum,
            "survivors must certify the fault-free minimum");
        prop_assert_eq!(raced.stop_reason, None);
        let failed = raced.workers.iter().filter(|w| w.failed).count();
        prop_assert_eq!(failed, 1, "exactly one failed worker row");
        prop_assert!(raced.workers.len() >= 4);
        prop_assert!(
            raced.workers.iter().all(|w| !w.failed || !w.winner),
            "a panicked worker cannot be the winner"
        );
    }
}
