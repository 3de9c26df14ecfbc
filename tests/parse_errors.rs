//! Golden parse errors: each row of `tests/data/parse_errors.tsv` feeds
//! one input to a reader and pins the answer byte for byte: the error's
//! `Display` text, or `ok ` and the re-rendered JSON of an input that
//! parses.
//!
//! Readers: `dag` is `Dag::from_json`, `dag/N` is `Dag::from_json_bounded`
//! with a cap of N inputs+nodes, and `request` is `Request::parse`.
//!
//! Many rows carry more than one fault, so the order the checks run in
//! decides the answer: a syntax error after a bad row, an unknown key
//! beside a duplicate one, a bad row before the node cap is passed, a
//! bad `dag` beside a bad `pebbles`, a cycle beside an unknown output.
//! The fixture was recorded from the tree-building readers the one-pass
//! readers replaced; it is a record of their answers, not something to
//! regenerate when an answer changes. The one deliberate change since is
//! strictness: those readers took numbers outside RFC 8259's grammar
//! (`01`, `1.`, `-.5`, …) and a signed `\u+041` escape, and the rows
//! that pin their rejection were added with it.
//!
//! Columns are tab-separated: reader, input, expected. In an input,
//! `⟦N×TEXT⟧` stands for TEXT repeated N times (inputs past the node cap
//! or the nesting limit), and one row carries a raw U+0001 byte.

use revpebble::graph::Dag;
use revpebble_serve::Request;

const FIXTURE: &str = include_str!("data/parse_errors.tsv");

/// Expands every `⟦N×TEXT⟧` in `input`.
fn expand(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut rest = input;
    while let Some(start) = rest.find('⟦') {
        out.push_str(&rest[..start]);
        let body = &rest[start + '⟦'.len_utf8()..];
        let end = body.find('⟧').expect("an unclosed repetition");
        let (count, text) = body[..end].split_once('×').expect("N×TEXT");
        out.push_str(&text.repeat(count.parse().expect("a repetition count")));
        rest = &body[end + '⟧'.len_utf8()..];
    }
    out.push_str(rest);
    out
}

/// What `reader` answers on `input`.
fn answer(reader: &str, input: &str) -> String {
    let rendered = match reader {
        "dag" => Dag::from_json(input).map(|dag| dag.to_adjacency_json()),
        "request" => {
            return match Request::parse(input) {
                Ok(request) => format!("ok {}", request.to_json()),
                Err(err) => err.to_string(),
            }
        }
        bounded => {
            let cap = bounded
                .strip_prefix("dag/")
                .and_then(|cap| cap.parse().ok())
                .unwrap_or_else(|| panic!("unknown reader {bounded:?}"));
            Dag::from_json_bounded(input, cap).map(|dag| dag.to_adjacency_json())
        }
    };
    match rendered {
        Ok(json) => format!("ok {json}"),
        Err(err) => err.to_string(),
    }
}

#[test]
fn every_input_keeps_its_recorded_answer() {
    let mut mismatches = Vec::new();
    let mut rows = 0;
    for line in FIXTURE.lines().filter(|line| !line.is_empty()) {
        let mut columns = line.split('\t');
        let (Some(reader), Some(input)) = (columns.next(), columns.next()) else {
            panic!("a fixture row needs a reader and an input: {line:?}");
        };
        let expected = columns.next();
        assert!(columns.next().is_none(), "too many columns: {line:?}");
        rows += 1;
        let actual = answer(reader, &expand(input));
        if expected != Some(actual.as_str()) {
            mismatches.push(format!("{reader}\t{input}\t{actual}"));
        }
    }
    assert!(rows >= 100, "the fixture lost rows: {rows}");
    assert!(
        mismatches.is_empty(),
        "{} of {rows} rows answer differently; their current answers:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
