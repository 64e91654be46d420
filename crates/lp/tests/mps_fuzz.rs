//! No-panic fuzz of the MPS reader: every input, however malformed,
//! must come back as a [`Problem`] or an [`MpsParseError`] — never a
//! panic.

use proptest::collection::vec;
use proptest::prelude::*;

use metis_lp::mps;

/// Line fragments: section headers, row types, bound types, names and
/// numbers at the edges of `f64` (NaN and infinities included).
const TOKENS: &[&str] = &[
    "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "OBJSENSE", "ENDATA", "MAX", "MIN", " N",
    " L", " G", " E", "COST", "R1", "R2", "X1", "X2", "BND", "UP", "LO", "FX", "FR", "MI", "PL",
    "BV", "UI", "LI", "'MARKER'", "'INTORG'", "'INTEND'", "1", "-1", "0", "2.5", "1e308", "nan",
    "NaN", "inf", "-inf", "infinity", "x", "*", " ", "  ", "\t", "\n", "\n ",
];

/// A well-formed document the structured cases start from.
const SEED_DOC: &str = "\
NAME demo
ROWS
 N COST
 L R1
 G R2
 E R3
COLUMNS
    X1 COST 1 R1 2
    X1 R2 1 R3 1
    X2 COST 3 R1 1
    X2 R3 1
RHS
    RHS R1 10 R2 1
    RHS R3 2
RANGES
    RNG R1 4 R3 -1
BOUNDS
 UP BND X1 4
 LO BND X2 1
ENDATA
";

/// Numbers spliced over the seed document's numbers.
const NUMBERS: &[&str] = &["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "1e-320"];

fn soup(picks: &[usize]) -> String {
    let mut text = String::new();
    for &i in picks {
        text.push_str(TOKENS[i % TOKENS.len()]);
        if i % 3 == 0 {
            text.push(' ');
        }
    }
    text
}

/// The seed document with some of its numbers replaced.
fn mutated(edits: &[(usize, usize)]) -> String {
    let mut fields: Vec<String> = SEED_DOC.split(' ').map(str::to_string).collect();
    let numeric: Vec<usize> = (0..fields.len())
        .filter(|&i| fields[i].trim().parse::<f64>().is_ok())
        .collect();
    for &(at, with) in edits {
        let i = numeric[at % numeric.len()];
        let tail = if fields[i].ends_with('\n') { "\n" } else { "" };
        fields[i] = format!("{}{tail}", NUMBERS[with % NUMBERS.len()]);
    }
    fields.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mps_parse_never_panics_on_bytes(bytes in vec(any::<u8>(), 0..256)) {
        let _ = mps::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mps_parse_never_panics_on_token_soup(picks in vec(any::<usize>(), 0..96)) {
        let _ = mps::parse(&soup(&picks));
    }

    #[test]
    fn mps_parse_never_panics_on_mutated_numbers(
        edits in vec((any::<usize>(), any::<usize>()), 1..4),
    ) {
        let _ = mps::parse(&mutated(&edits));
    }
}

#[test]
fn seed_document_parses() {
    let p = mps::parse(SEED_DOC).unwrap();
    assert_eq!((p.num_vars(), p.num_constraints()), (2, 5));
}

#[test]
fn nan_numbers_are_parse_errors() {
    // A NaN bound or right-hand side used to reach the `Problem`
    // builders' NaN assertions and panic.
    for (from, to) in [
        ("UP BND X1 4", "UP BND X1 nan"),
        ("RHS R1 10", "RHS R1 NaN"),
        ("RNG R1 4", "RNG R1 nan"),
        ("X2 COST 3", "X2 COST nan"),
    ] {
        let err = mps::parse(&SEED_DOC.replace(from, to)).unwrap_err();
        assert!(err.message.contains("bad number"), "{to}: {err}");
    }
}

#[test]
fn infinite_numbers_on_rows_are_parse_errors() {
    // An infinite right-hand side on a plain row used to reach the
    // simplex, which tripped its `leaving variable far from its bound`
    // debug assertion; `Problem` now rejects it, so the reader must.
    for (from, to, what) in [
        ("RHS R3 2", "RHS R3 inf", "right-hand side inf of row R3"),
        (
            "RHS R1 10 R2 1",
            "RHS R1 10 R2 -inf",
            "right-hand side -inf of row R2",
        ),
        ("RNG R1 4", "RNG R1 -inf", "range -inf on row R1"),
    ] {
        let err = mps::parse(&SEED_DOC.replace(from, to)).unwrap_err();
        assert!(err.message.contains(what), "{to}: {err}");
        assert!(err.line > 0, "{to}: {err}");
    }
}

#[test]
fn infinite_range_on_infinite_rhs_is_an_error() {
    // `inf − |inf|` is NaN: the mirrored side of the ranged row has no
    // right-hand side.
    let text = SEED_DOC
        .replace("RHS R1 10", "RHS R1 inf")
        .replace("RNG R1 4", "RNG R1 inf");
    let err = mps::parse(&text).unwrap_err();
    assert!(err.message.contains("range"), "{err}");
}
