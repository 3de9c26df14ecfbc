//! Hostile-input properties for the readers that take bytes from outside
//! the program: the JSON reader, the adjacency-DAG reader, the daemon's
//! request-frame parser and the `.bench` netlist reader. Fed random token
//! soups and small byte mutations of valid inputs, every call must return
//! `Ok` or its typed error (whose message renders) and never panic.

use proptest::prelude::*;
use revpebble::graph::data::C17_BENCH;
use revpebble::graph::{parse_bench, parse_json, Dag};
use revpebble_serve::Request;

/// A request frame carrying an inline adjacency DAG.
const INLINE_FRAME: &str = r#"{"name":"inline","dag":{"inputs":["a","b","c"],"nodes":[{"name":"x","op":"and","fanins":["a","b"]},{"name":"y","op":"xor","fanins":["x","c"],"weight":2}],"outputs":["y"]},"pebbles":3,"max_steps":40,"timeout_ms":500}"#;

/// A request frame naming a builtin DAG, with boolean and integer fields.
const BUILTIN_FRAME: &str = r#"{"name":"job-1","dag":"c17","minimize":true,"portfolio":2,"share_clauses":true,"diversify":false,"incremental":true,"quota":100000,"deadline_ms":2500}"#;

/// The valid inputs both properties start from.
const SEEDS: [&str; 3] = [INLINE_FRAME, C17_BENCH, BUILTIN_FRAME];

/// Fragments the random inputs are assembled from: JSON and `.bench`
/// syntax, the keys the readers look up, numbers at the edges of their
/// types, escapes (lone surrogates among them), control characters and
/// non-ASCII text.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udfff",
    "\\n",
    "0",
    "7",
    "-",
    ".",
    "e",
    "E+",
    "18446744073709551616",
    "-0",
    "1e999",
    "true",
    "false",
    "null",
    " ",
    "\n",
    "\t",
    "\r",
    "\u{0}",
    "\u{7f}",
    "é",
    "\u{1F600}",
    "\"dag\"",
    "\"c17\"",
    "\"inputs\"",
    "\"nodes\"",
    "\"outputs\"",
    "\"name\"",
    "\"op\"",
    "\"fanins\"",
    "\"weight\"",
    "\"pebbles\"",
    "\"and\"",
    "\"x\"",
    "INPUT(",
    "OUTPUT(",
    "G1",
    ")",
    " = ",
    "NAND(",
    "NOT(",
    "#",
];

/// Runs every reader on `text`. A panic anywhere fails the property; an
/// error must render a message, since the daemon sends it to the client.
fn read_everything(text: &str) {
    if let Err(err) = parse_json(text) {
        assert!(!err.to_string().is_empty());
    }
    if let Err(err) = Dag::from_json(text) {
        assert!(!err.to_string().is_empty());
    }
    if let Err(err) = Request::parse(text) {
        assert!(!err.to_string().is_empty());
    }
    if let Err(err) = parse_bench(text) {
        assert!(!err.to_string().is_empty());
    }
}

/// Applies byte edits to `seed`: each edit is `(position, kind, byte)`,
/// where kind 0 overwrites, 1 inserts and 2 deletes the byte at
/// `position` (modulo the current length; every seed is far longer than
/// the four deletions it can lose). The result need not be UTF-8, so it
/// is decoded lossily.
fn mutate(seed: &str, edits: &[(u64, u8, u8)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(position, kind, byte) in edits {
        let at = (position % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_mutation_seeds_are_valid_inputs() {
    assert!(Request::parse(INLINE_FRAME).is_ok());
    assert!(Request::parse(BUILTIN_FRAME).is_ok());
    assert!(parse_bench(C17_BENCH).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30_000))]

    #[test]
    fn random_token_soups_never_panic_a_reader(
        seed in 0usize..4,
        cut in any::<usize>(),
        picks in prop::collection::vec(any::<u32>(), 0..12),
    ) {
        // A soup starts with a random byte prefix of a valid input (or
        // with nothing), so it reaches the states deep inside each
        // reader, then continues with random picks: three in four name a
        // token, the rest an arbitrary code point.
        let prefix = SEEDS.get(seed).map_or("".into(), |text| {
            String::from_utf8_lossy(&text.as_bytes()[..cut % (text.len() + 1)])
        });
        let soup: String = picks
            .iter()
            .map(|&pick| match pick % 4 {
                0 => char::from_u32((pick >> 2) % 0x11_0000)
                    .unwrap_or(char::REPLACEMENT_CHARACTER)
                    .to_string(),
                _ => TOKENS[(pick >> 2) as usize % TOKENS.len()].to_owned(),
            })
            .collect();
        read_everything(&format!("{prefix}{soup}"));
    }

    #[test]
    fn mutated_valid_inputs_never_panic_a_reader(
        seed in 0usize..3,
        edits in prop::collection::vec((any::<u64>(), 0u8..3, any::<u8>()), 1..=4),
    ) {
        read_everything(&mutate(SEEDS[seed], &edits));
    }
}
