//! No-panic fuzz of the outside-input parsers in this crate: the JSON
//! reader and the scenario loader must answer every input, however
//! malformed, with a value or an error — never a panic. Scenario errors
//! must also keep their dotted field path.

use proptest::collection::vec;
use proptest::prelude::*;

use metis_workload::json::Json;
use metis_workload::scenario::Scenario;

/// JSON-ish fragments: structure, literals (some truncated), strings with
/// escapes, and numbers at the edges of `f64`, `u64` and `usize`.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\n",
    "\"",
    "\\",
    "\"a\"",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\"\\u12",
    "\"\\x\"",
    "null",
    "nul",
    "true",
    "tru",
    "false",
    "0",
    "-0",
    "1",
    "-1",
    "1.5",
    "1e400",
    "-1e400",
    "1e-400",
    "9007199254740993",
    "18446744073709551616",
    "1e",
    "--1",
    "0x1F",
    ".5",
    "é",
    "\u{0}",
    "\"version\"",
    "\"horizon\"",
];

/// Numeric replacements for a scenario's numbers: zero, negatives,
/// fractions, huge and out-of-range values.
const NUMBERS: &[&str] = &[
    "0",
    "-1",
    "0.5",
    "1e308",
    "-1e308",
    "1e400",
    "4294967297",
    "9007199254740992",
    "4503599627370496",
    "65536",
    "3",
    "\"3\"",
    "null",
    "[]",
];

fn concat(tokens: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect()
}

/// The checked-in scenario documents, the seeds for mutation.
fn scenario_texts() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("readable scenario"))
        .collect()
}

/// Byte ranges of the number literals in `text`.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() || (b[i] == b'-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            let start = i;
            i += 1;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                i += 1;
            }
            // Digits inside strings (names, descriptions) are not numbers.
            if b[..start].iter().filter(|&&c| c == b'"').count() % 2 == 0 {
                spans.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    spans
}

/// A scenario error must name a field under the document root.
fn check_scenario(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = Scenario::from_json_text(text) {
        prop_assert!(
            e.path == "scenario"
                || e.path.starts_with("scenario.")
                || e.path.starts_with("scenario["),
            "error path `{}` is not rooted at `scenario` ({})",
            e.path,
            e.message
        );
        prop_assert!(!e.message.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn json_parse_never_panics_on_bytes(bytes in vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
    }

    #[test]
    fn json_parse_never_panics_on_token_soup(picks in vec(any::<usize>(), 0..64)) {
        let text = concat(JSON_TOKENS, &picks);
        if let Ok(v) = Json::parse(&text) {
            // Whatever parses must survive a print/parse round trip.
            prop_assert_eq!(Json::parse(&v.to_pretty()), Ok(v));
        }
    }

    #[test]
    fn scenario_loader_rejects_arbitrary_input(
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(any::<usize>(), 0..64),
    ) {
        for text in [String::from_utf8_lossy(&bytes).into_owned(), concat(JSON_TOKENS, &picks)] {
            prop_assert!(Scenario::from_json_text(&text).is_err(), "accepted {text:?}");
            check_scenario(&text)?;
        }
    }

    #[test]
    fn scenario_loader_survives_mutated_scenarios(
        which in any::<usize>(),
        edits in vec((any::<usize>(), any::<usize>()), 1..4),
        cut in any::<usize>(),
    ) {
        let texts = scenario_texts();
        let mut text = texts[which % texts.len()].clone();
        for (at, with) in edits {
            let spans = number_spans(&text);
            let (s, e) = spans[at % spans.len()];
            text.replace_range(s..e, NUMBERS[with % NUMBERS.len()]);
        }
        check_scenario(&text)?;
        // Truncations at every kind of boundary must be rejected.
        let cut = cut % text.trim_end().len();
        if text.is_char_boundary(cut) {
            prop_assert!(Scenario::from_json_text(&text[..cut]).is_err());
        }
    }
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(100_000);
        assert!(Json::parse(&text).is_err());
    }
}

#[test]
fn out_of_range_numbers_are_errors() {
    // `1e400` used to parse as infinity and print back as `null`.
    for text in ["1e400", "[-1e400]", "{\"a\": 1e999}"] {
        let err = Json::parse(text).unwrap_err();
        assert!(err.contains("out of range"), "{text}: {err}");
    }
    assert_eq!(Json::parse("1e-400"), Ok(Json::Num(0.0)));
}

#[test]
fn horizon_overflow_is_an_error() {
    // slots_per_cycle × cycles overflows `usize` and used to wrap (or
    // panic with overflow checks on) past the horizon cap.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/diurnal_b4.json"
    ))
    .unwrap()
    .replace(
        "\"slots_per_cycle\": 12, \"cycles\": 2",
        "\"slots_per_cycle\": 4503599627370496, \"cycles\": 4096",
    );
    let err = Scenario::from_json_text(&text).unwrap_err();
    assert_eq!(err.path, "scenario.horizon");
    assert!(err.message.contains("too large"), "{}", err.message);
}
