//! The two code rules clippy has no counterpart for, as line checks over
//! a [`Scan`]. Every other rule is a clippy or rustc lint level
//! (DESIGN.md §8.1).
//!
//! | rule | bans | scope |
//! |---|---|---|
//! | `FP-02` | `.partial_cmp(..).unwrap()` / `.expect(..)`: panics on NaN; use `f64::total_cmp` | every workspace file |
//! | `PANIC-02` | an arithmetic slice index (`a[i * m + k]`) with no visible bound | non-test code of `core` and `lp` |
//!
//! A `PANIC-02` site passes when an `assert!`/`debug_assert!` sits within
//! three lines above it, the index clamps itself with `.min(…)`, or a
//! `// INDEX: <invariant>` comment ends within three lines above it.

use crate::scan::{is_word_char, matching, test_regions, Scan};
use crate::Diagnostic;

/// Directories whose non-test code `PANIC-02` polices.
const INDEX_PATHS: &[&str] = &["crates/core/src/", "crates/lp/src/"];

/// The one file exempt from `PANIC-02`: its dense-basis kernels index
/// flat `m × m` arrays (`binv[i * m + k]`, augmented Gauss-Jordan
/// tableaus) in tight loops whose `row, col < m` bound is the
/// representation invariant; per-site `INDEX:` comments would drown the
/// arithmetic.
const INDEX_EXEMPT: &str = "crates/lp/src/simplex.rs";

/// Words before a `[` that start a type or pattern, not an index.
const NOT_AN_OPERAND: &[&str] = &[
    "mut", "dyn", "ref", "in", "as", "return", "break", "else", "impl", "where", "const", "static",
    "use", "pub", "move",
];

/// Runs both checks on one file at workspace-relative path `rel`.
pub fn check_file(rel: &str, scan: &Scan) -> Vec<Diagnostic> {
    let mut out = fp02_partial_cmp_unwrap(rel, scan);
    if INDEX_PATHS.iter().any(|p| rel.starts_with(p)) && rel != INDEX_EXEMPT {
        out.extend(panic02_computed_indices(rel, scan));
    }
    out
}

fn diag(rel: &str, line: u32, rule: &'static str, message: &str) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line,
        rule,
        message: message.to_string(),
    }
}

/// 1-based line of char index `pos`.
fn line_of(chars: &[char], pos: usize) -> u32 {
    1 + chars[..pos].iter().filter(|&&c| c == '\n').count() as u32
}

/// The word ending just before char index `end` (exclusive).
fn word_before(chars: &[char], end: usize) -> String {
    let start = (0..end)
        .rev()
        .find(|&j| !is_word_char(chars[j]))
        .map_or(0, |j| j + 1);
    chars[start..end].iter().collect()
}

/// `FP-02`: `.partial_cmp(..)` followed by `.unwrap()` or `.expect(..)`.
fn fp02_partial_cmp_unwrap(rel: &str, scan: &Scan) -> Vec<Diagnostic> {
    let chars: Vec<char> = scan.code.chars().collect();
    let mut out = Vec::new();
    for (at, _) in scan.code.match_indices("partial_cmp") {
        let i = scan.code[..at].chars().count();
        let end = i + "partial_cmp".len();
        if i > 0 && is_word_char(chars[i - 1]) {
            continue;
        }
        let Some(open) = (end..chars.len()).find(|&j| !chars[j].is_whitespace()) else {
            continue;
        };
        if chars[open] != '(' {
            continue;
        }
        let Some(close) = matching(&chars, open) else {
            continue;
        };
        let rest: String = chars[close + 1..]
            .iter()
            .take(64)
            .filter(|c| !c.is_whitespace())
            .collect();
        if rest.starts_with(".unwrap(") || rest.starts_with(".expect(") {
            out.push(diag(
                rel,
                line_of(&chars, i),
                "FP-02",
                "`.partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp`",
            ));
        }
    }
    out
}

/// `PANIC-02`: an index computed with binary `+ - * / %` and no visible
/// bound (see the module docs for the three ways to show one).
fn panic02_computed_indices(rel: &str, scan: &Scan) -> Vec<Diagnostic> {
    let chars: Vec<char> = scan.code.chars().collect();
    let lines: Vec<&str> = scan.code.lines().collect();
    let tests = test_regions(&scan.code);
    let mut out = Vec::new();
    let mut line = 1u32;
    for (i, &c) in chars.iter().enumerate() {
        if c == '\n' {
            line += 1;
        }
        if c != '[' || !indexes_an_expression(&chars, i) {
            continue;
        }
        if tests.iter().any(|&(lo, hi)| lo <= line && line <= hi) {
            continue;
        }
        let Some(close) = matching(&chars, i) else {
            continue;
        };
        let index = &chars[i + 1..close];
        if !has_arithmetic(index) || bounded(scan, &lines, index, line) {
            continue;
        }
        out.push(diag(
            rel,
            line,
            "PANIC-02",
            "arithmetic slice index in a solver path without a visible bound: add an \
`assert!`/`debug_assert!` within three lines, clamp with `.min(…)`, or justify with an \
adjacent `// INDEX:` comment",
        ));
    }
    out
}

/// Whether the `[` at `open` indexes an expression: it follows a name
/// (`load[…]`) or a call or index result (`f(x)[…]`, `a[i][…]`), not a
/// keyword, a lifetime, `#`, `!` or an operator.
fn indexes_an_expression(chars: &[char], open: usize) -> bool {
    let Some(p) = (0..open).rev().find(|&j| !chars[j].is_whitespace()) else {
        return false;
    };
    match chars[p] {
        ')' | ']' => true,
        c if is_word_char(c) => {
            let word = word_before(chars, p + 1);
            let before = p + 1 - word.chars().count();
            let lifetime = before > 0 && chars[before - 1] == '\'';
            !lifetime && !NOT_AN_OPERAND.contains(&word.as_str())
        }
        _ => false,
    }
}

/// Whether the index applies a binary operator at its own level, or
/// inside a parenthesized operand. A range (`a[lo..hi]`) is slicing, not
/// indexing; nested `[…]`/`{…}` groups are checked on their own.
fn has_arithmetic(index: &[char]) -> bool {
    let mut arithmetic = false;
    let mut operand = false;
    let mut j = 0;
    while j < index.len() {
        let c = index[j];
        match c {
            '(' | '[' | '{' => {
                let close = matching(index, j).unwrap_or(index.len() - 1);
                if c == '(' && index[j..close].iter().any(|c| "+-*/%".contains(*c)) {
                    arithmetic = true;
                }
                operand = true;
                j = close;
            }
            '.' if index.get(j + 1) == Some(&'.') => return false,
            '+' | '-' | '*' | '/' | '%' => {
                arithmetic |= operand;
                operand = false;
            }
            c if c.is_whitespace() => {}
            c => operand = is_word_char(c),
        }
        j += 1;
    }
    arithmetic
}

/// The three `PANIC-02` escape hatches for an index on `line`.
fn bounded(scan: &Scan, lines: &[&str], index: &[char], line: u32) -> bool {
    let lo = line.saturating_sub(3);
    let index_comment = scan
        .comments
        .iter()
        .any(|(end, text)| (lo..=line).contains(end) && text.contains("INDEX:"));
    let asserted = (lo.max(1)..=line).any(|l| {
        lines.get(l as usize - 1).is_some_and(|text| {
            text.split(|c: char| !is_word_char(c))
                .any(|w| w.starts_with("assert") || w.starts_with("debug_assert"))
        })
    });
    let clamped = index
        .split(|c| !is_word_char(*c))
        .any(|w| w.iter().collect::<String>() == "min");
    index_comment || asserted || clamped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn rules(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, &scan(src)).iter().map(|d| d.rule).collect()
    }

    #[test]
    fn fp02_fails_on_unwrapped_partial_cmp_and_passes_total_cmp() {
        let fail = "fn rank(mut xs: Vec<f64>) -> Vec<f64> {\n\
                    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    xs\n}\n";
        assert_eq!(rules("crates/bench/src/x.rs", fail), ["FP-02"]);
        assert_eq!(check_file("crates/bench/src/x.rs", &scan(fail))[0].line, 2);
        let split =
            "fn f(a: f64, b: f64) {\n    a.partial_cmp(&b)\n        .expect(\"no NaN\");\n}\n";
        assert_eq!(rules("tests/x.rs", split), ["FP-02"]);
        let pass = "fn rank(mut xs: Vec<f64>) -> Vec<f64> {\n\
                    xs.sort_by(|a, b| a.total_cmp(b));\n\
                    let _ = 1.0f64.partial_cmp(&2.0).unwrap_or(Ordering::Equal);\n\
                    // a.partial_cmp(b).unwrap()\n    xs\n}\n";
        assert!(rules("crates/bench/src/x.rs", pass).is_empty());
    }

    #[test]
    fn panic02_fails_on_a_flat_matrix_index_in_solver_paths_only() {
        let fail = "fn peak(load: &[f64], edge: usize, slots: usize, t: usize) -> f64 {\n\
                    load[edge * slots + t]\n}\n";
        assert_eq!(rules("crates/lp/src/x.rs", fail), ["PANIC-02"]);
        assert_eq!(rules("crates/core/src/x.rs", fail), ["PANIC-02"]);
        assert!(rules("crates/bench/src/x.rs", fail).is_empty());
        assert!(rules("crates/lp/src/simplex.rs", fail).is_empty());
        let len = "fn last(a: &[f64]) -> f64 { a[a.len() - 1] }\n";
        assert_eq!(rules("crates/lp/src/x.rs", len), ["PANIC-02"]);
        let paren = "fn f(a: &[f64], i: usize) -> f64 { a[(i + 1)] }\n";
        assert_eq!(rules("crates/lp/src/x.rs", paren), ["PANIC-02"]);
    }

    #[test]
    fn panic02_passes_its_escape_hatches_and_non_arithmetic_brackets() {
        let pass = "fn justified(load: &[f64], edge: usize, slots: usize, t: usize) -> f64 {\n\
                    // INDEX: edge < num_edges and t < slots by construction; flat layout.\n\
                    load[edge * slots + t]\n}\n\
                    fn asserted(load: &[f64], edge: usize, slots: usize, t: usize) -> f64 {\n\
                    debug_assert!(edge * slots + t < load.len());\n\
                    load[edge * slots + t]\n}\n\
                    fn clamped(load: &[f64], i: usize) -> f64 {\n\
                    load[(i + 1).min(load.len() - 1)]\n}\n\
                    fn plain_and_ranges(load: &[f64], i: usize, m: usize) -> f64 {\n\
                    let window = &load[i * m..(i + 1) * m];\n\
                    window[0] + load[i] + load[*p] + load[-1]\n}\n\
                    fn types<'a>(x: &'a [f64], y: &mut [f64]) -> [u8; 4] { let z = vec![1 + 2]; [0; 4] }\n\
                    #[cfg(test)]\nmod tests {\n    fn t(a: &[f64], i: usize) -> f64 { a[i + 1] }\n}\n\
                    const S: &str = \"a[i + 1]\";\n";
        assert!(rules("crates/lp/src/x.rs", pass).is_empty());
    }
}
