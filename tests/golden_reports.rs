//! Golden reports: `Report::to_json()` for a fixed corpus under every
//! engine shape, compared against `tests/data/golden_reports.tsv`.
//!
//! The corpus is `paper`, `c17`, `chain12`, `hop` and `adder4`, each run
//! under every `Engine`, plus the descending budget schedule and the
//! fresh (rebuild-per-budget) frontier. Every probe is decisive:
//! sequential moves and a step cap of `4n + 20` end each probe in a
//! certificate, never on a clock.
//!
//! - Deterministic shapes (one worker) must match byte for byte, with
//!   only the `elapsed_s` and `wall_s` clocks masked.
//! - Racing shapes (portfolios) depend on thread timing, so only the
//!   fields every run agrees on are compared: `engine`, the worker
//!   `config` rows in order, `stop_reason`, `cache_hits`/`cache_misses`
//!   and, for minimize races, `minimum`.
//!
//! The fixture pins the reports the engines produced before the engine
//! entry points were folded behind `PebblingSession`; it is a record of
//! that behaviour, not something to regenerate when a report changes.

use std::time::Duration;

use revpebble::graph::{builtin_dag, parse_json, Dag};
use revpebble::prelude::*;

const FIXTURE: &str = include_str!("data/golden_reports.tsv");

/// The corpus with the fixed budget the single and portfolio shapes
/// solve at: each design's certified minimum under the step cap, except
/// `hop`, one below its minimum of 6, so the fixed-budget shapes also
/// cover a budget refuted at every step count.
const CORPUS: [(&str, usize); 5] = [
    ("paper", 4),
    ("c17", 4),
    ("chain12", 5),
    ("hop", 5),
    ("adder4", 6),
];

/// Whether a shape's report depends on thread timing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Deterministic,
    FixedRace,
    MinimizeRace,
}

/// Every engine shape, by name: how to configure it and how to compare.
fn shapes(budget: usize) -> Vec<(&'static str, Kind, Shape)> {
    vec![
        (
            "single",
            Kind::Deterministic,
            Box::new(move |s| s.pebbles(budget)),
        ),
        (
            "portfolio",
            Kind::FixedRace,
            Box::new(move |s| s.pebbles(budget).portfolio(2)),
        ),
        (
            "fresh",
            Kind::Deterministic,
            Box::new(|s| s.minimize().incremental(false)),
        ),
        (
            "incremental",
            Kind::Deterministic,
            Box::new(|s| s.minimize()),
        ),
        (
            "descending",
            Kind::Deterministic,
            Box::new(|s| {
                s.minimize()
                    .budget(BudgetSchedule::Descending { stride: 2 })
            }),
        ),
        (
            "minimize-portfolio",
            Kind::MinimizeRace,
            Box::new(|s| s.minimize().portfolio(2)),
        ),
        (
            "minimize-portfolio-shared",
            Kind::MinimizeRace,
            Box::new(|s| s.minimize().portfolio(2).share_clauses()),
        ),
        (
            "frontier",
            Kind::Deterministic,
            Box::new(|s| s.sweep_frontier()),
        ),
        (
            "frontier-fresh",
            Kind::Deterministic,
            Box::new(|s| s.sweep_frontier().incremental(false)),
        ),
    ]
}

type Shape = Box<dyn for<'d> Fn(PebblingSession<'d>) -> PebblingSession<'d>>;

fn run(dag: &Dag, shape: &Shape) -> String {
    let session = PebblingSession::new(dag)
        .move_mode(MoveMode::Sequential)
        .max_steps(4 * dag.num_nodes() + 20)
        .per_query_timeout(Duration::from_secs(600));
    shape(session)
        .run()
        .expect("a valid configuration")
        .to_json()
}

/// Replaces the value of every clock field with `_`.
fn mask_clocks(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    loop {
        let next = ["\"elapsed_s\":", "\"wall_s\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| at + key.len()))
            .min();
        let Some(value_at) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..value_at]);
        out.push('_');
        rest = &rest[value_at..];
        rest = &rest[rest.find([',', '}']).unwrap_or(rest.len())..];
    }
}

/// The fields a racing shape's report must reproduce.
fn race_view(json: &str, kind: Kind) -> Vec<String> {
    let value = parse_json(json).expect("a report is valid JSON");
    let field = |key: &str| format!("{key}={:?}", value.get(key));
    let mut view = vec![
        field("engine"),
        field("stop_reason"),
        field("cache_hits"),
        field("cache_misses"),
    ];
    if kind == Kind::MinimizeRace {
        view.push(field("minimum"));
    }
    let workers = value
        .get("workers")
        .and_then(|w| w.as_array())
        .expect("a report lists its workers");
    view.extend(
        workers
            .iter()
            .map(|worker| format!("config={:?}", worker.get("config"))),
    );
    view
}

fn fixture() -> Vec<(&'static str, &'static str)> {
    FIXTURE
        .lines()
        .filter(|line| !line.is_empty())
        .map(|line| line.split_once('\t').expect("case<TAB>report"))
        .collect()
}

/// Runs every shape on one corpus design and compares each report with
/// its fixture line.
fn check(name: &str) {
    let recorded = fixture();
    let (_, budget) = CORPUS
        .into_iter()
        .find(|(design, _)| *design == name)
        .expect("a corpus design");
    let dag = builtin_dag(name).expect("a built-in design");
    for (shape_name, kind, shape) in shapes(budget) {
        let case = format!("{name}/{shape_name}");
        let expected = recorded
            .iter()
            .find(|(recorded_case, _)| *recorded_case == case)
            .map(|(_, json)| *json)
            .unwrap_or_else(|| panic!("{case} is missing from the fixture"));
        let actual = run(&dag, &shape);
        match kind {
            Kind::Deterministic => assert_eq!(
                mask_clocks(&actual),
                mask_clocks(expected),
                "{case}: the report drifted from the fixture"
            ),
            Kind::FixedRace | Kind::MinimizeRace => assert_eq!(
                race_view(&actual, kind),
                race_view(expected, kind),
                "{case}: the race's stable fields drifted\nactual:   {actual}\nexpected: {expected}"
            ),
        }
    }
}

#[test]
fn paper_reports_match_the_fixture() {
    check("paper");
}

#[test]
fn c17_reports_match_the_fixture() {
    check("c17");
}

#[test]
fn chain12_reports_match_the_fixture() {
    check("chain12");
}

#[test]
fn hop_reports_match_the_fixture() {
    check("hop");
}

#[test]
fn adder4_reports_match_the_fixture() {
    check("adder4");
}

#[test]
fn the_fixture_holds_each_case_once() {
    let mut expected: Vec<String> = CORPUS
        .iter()
        .flat_map(|&(name, budget)| {
            shapes(budget)
                .into_iter()
                .map(move |(shape_name, _, _)| format!("{name}/{shape_name}"))
        })
        .collect();
    let mut recorded: Vec<String> = fixture()
        .into_iter()
        .map(|(case, _)| case.to_owned())
        .collect();
    expected.sort();
    recorded.sort();
    assert_eq!(recorded, expected);
}

#[test]
fn clock_masking_keeps_everything_else() {
    let json = "{\"workers\":[{\"elapsed_s\":0.125000}],\"wall_s\":1.500000,\"strategy\":null}";
    assert_eq!(
        mask_clocks(json),
        "{\"workers\":[{\"elapsed_s\":_}],\"wall_s\":_,\"strategy\":null}"
    );
}
