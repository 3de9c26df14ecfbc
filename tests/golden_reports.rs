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
//! The ten `frontier` and `frontier-fresh` rows were re-pinned on purpose
//! when the sweep began probing through the minimize engine's probe body:
//! their `queries` and `conflicts` are the sweep's real totals (they read
//! 0 before), and an incremental sweep's `floor` is now the floor its
//! refuted last probe certifies, whose `FloorRaised` event adds one to
//! `events_emitted`. Only those fields were edited in place; every point,
//! strategy and other row is unchanged.
//!
//! The 25 `fresh`, `incremental`, `descending`, `frontier` and
//! `frontier-fresh` rows were re-pinned again when minimize and frontier
//! sessions began at the pebble floor proven without SAT
//! (`bounds::subdag_lower_bound`): budgets below it are skipped or
//! answered without a query, so the worker's `probes`, `queries` and
//! `conflicts`, the report's `probes` and `events_emitted` and, in the
//! `fresh` and `frontier-fresh` rows, `floor` changed (old → new):
//!
//! | row | floor | probes | queries | conflicts | events |
//! |---|---|---|---|---|---|
//! | paper/fresh | 3 → 4 | | 38 → 4 | 355 → 82 | |
//! | paper/incremental | | | 36 → 4 | 258 → 80 | 6 → 5 |
//! | paper/descending | | 2 → 1 | 36 → 3 | 258 → 59 | 6 → 3 |
//! | paper/frontier | | | 38 → 5 | 282 → 58 | 10 → 9 |
//! | paper/frontier-fresh | 3 → 4 | | 40 → 5 | 382 → 94 | |
//! | c17/fresh | 3 → 4 | | 38 → 4 | 146 → 53 | |
//! | c17/incremental | | | 36 → 4 | 180 → 79 | 6 → 5 |
//! | c17/descending | | 2 → 1 | 36 → 3 | 180 → 61 | 6 → 3 |
//! | c17/frontier | | | 38 → 5 | 199 → 60 | 10 → 9 |
//! | c17/frontier-fresh | 3 → 4 | | 40 → 5 | 170 → 68 | |
//! | chain12/fresh | 2 → 5 | | 74 → 39 | 19,032 → 24,217 | |
//! | chain12/incremental | | | 54 → 19 | 24,409 → 23,965 | 8 → 7 |
//! | chain12/descending | | 5 → 4 | 54 → 20 | 71,241 → 20,327 | 12 → 9 |
//! | chain12/frontier | | | 54 → 24 | 39,971 → 35,629 | 20 → 19 |
//! | chain12/frontier-fresh | 2 → 5 | | 112 → 66 | 39,159 → 35,867 | |
//! | hop/fresh | 4 → 6 | 3 → 1 | 83 → 1 | 737 → 60 | 7 → 3 |
//! | hop/incremental | | 3 → 2 | 83 → 2 | 599 → 13 | 9 → 5 |
//! | hop/descending | | 3 → 1 | 83 → 1 | 599 → 83 | 9 → 3 |
//! | hop/frontier | | | 44 → 3 | 494 → 61 | 10 → 9 |
//! | hop/frontier-fresh | 4 → 6 | | 44 → 3 | 770 → 233 | |
//! | adder4/fresh | 5 → 6 | 3 → 2 | 50 → 2 | 1,366 → 977 | 7 → 5 |
//! | adder4/incremental | | 3 → 2 | 50 → 2 | 1,680 → 1,130 | 8 → 5 |
//! | adder4/descending | | 3 → 2 | 50 → 2 | 1,752 → 1,210 | 8 → 5 |
//! | adder4/frontier | | | 54 → 6 | 2,456 → 1,780 | 16 → 15 |
//! | adder4/frontier-fresh | 5 → 6 | | 54 → 6 | 4,389 → 4,000 | |
//!
//! `chain12/fresh` pays more conflicts for fewer queries: its binary
//! search now starts at 5 and probes 8 first. Every `minimum`,
//! `strategy` and `frontier` is unchanged.
//!
//! Twelve `fresh`, `incremental` and `descending` rows were re-pinned a
//! third time when minimize sessions began probing an exact floor (the
//! price of the whole DAG, on designs of at most 18 nodes) first: each
//! now certifies its minimum with one probe at the floor, so the worker's
//! `probes`, `queries` and `conflicts` and the report's `probes` and
//! `events_emitted` changed (old → new):
//!
//! | row | probes | queries | conflicts | events |
//! |---|---|---|---|---|
//! | paper/fresh | 2 → 1 | 4 → 3 | 82 → 67 | 5 → 3 |
//! | paper/incremental | 2 → 1 | 4 → 3 | 80 → 59 | 5 → 3 |
//! | c17/fresh | 2 → 1 | 4 → 3 | 53 → 44 | 5 → 3 |
//! | c17/incremental | 2 → 1 | 4 → 3 | 79 → 61 | 5 → 3 |
//! | chain12/fresh | 3 → 1 | 39 → 17 | 24,217 → 5,824 | 7 → 3 |
//! | chain12/incremental | 3 → 1 | 19 → 17 | 23,965 → 4,288 | 7 → 3 |
//! | chain12/descending | 4 → 1 | 20 → 17 | 20,327 → 4,288 | 9 → 3 |
//! | hop/fresh | | | 60 → 159 | |
//! | hop/incremental | 2 → 1 | 2 → 1 | 13 → 83 | 5 → 3 |
//! | adder4/fresh | 2 → 1 | 2 → 1 | 977 → 866 | 5 → 3 |
//! | adder4/incremental | 2 → 1 | 2 → 1 | 1,130 → 1,203 | 5 → 3 |
//! | adder4/descending | 2 → 1 | 2 → 1 | 1,210 → 1,203 | 5 → 3 |
//!
//! `hop/fresh` already made one probe, at budget 7, whose 6-pebble model
//! certified the minimum; its one probe is now at 6. A model found
//! straight at the tight budget can cost more conflicts than a loose
//! probe followed by the tight one (`hop`, `adder4/incremental`). The
//! `descending` rows of `paper`, `c17` and `hop` already opened at the
//! floor and are unchanged, as are every race's stable fields and every
//! `single`, `portfolio`, `frontier` and `frontier-fresh` row.

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
