//! Cross-artifact consistency checks.
//!
//! The repo commits several *derived* artifacts that restate facts the
//! code already encodes: the telemetry schema fixture, the DESIGN.md §7
//! metric catalog and §5b family table, and the README's CLI flag
//! documentation. Prose drifts; these checks make the drift a CI
//! failure with a dotted-path message instead of a stale doc. Same
//! philosophy as the runtime certificate layer (`metis_lp::verify`,
//! `metis_core::audit`): verify the machine-checkable contract, don't
//! trust the narrative.
//!
//! | check | artifact | direction |
//! |---|---|---|
//! | `ART-01` | `tests/fixtures/telemetry_schema.json` | fixture → `metis_telemetry::names` (every recorded name must be declared) |
//! | `ART-02` | DESIGN.md §7 metric catalog | bidirectional with metric + event constants |
//! | `ART-03` | README.md | every `spm`/`zoo` CLI flag must be documented |
//! | `ART-04` | DESIGN.md §5b | every `crates/workload/src/families/` module must be described |
//! | `ART-05` | README.md, DESIGN.md | every backticked snake_case identifier, and each snake_case segment of a backticked `::` path, must occur in workspace Rust source |
//!
//! The fixture check is deliberately one-directional: the schema
//! fixture pins the snapshot of one golden offline run, which touches
//! only a subset of the declared names (no incidents, no online epochs
//! on the happy path). Every name it does contain, though, must exist
//! in code — an injected or misspelled name is exactly the drift this
//! catches.
//!
//! All checks are pure functions over artifact text so tests can inject
//! synthetic drift; [`run_artifacts`] wires them to the real files.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use metis_workload::json::Json;

use crate::scan::{scan, Scan};
use crate::{collect_files, Diagnostic};

/// The telemetry name constants declared in
/// `crates/telemetry/src/lib.rs`'s `names` module, classified by the
/// constant-name prefix convention (`SPAN_*`, `EVENT_*`, `ARG_*`,
/// everything else a metric).
#[derive(Clone, Debug, Default)]
pub struct TelemetryNames {
    /// Counter/gauge/histogram/series names.
    pub metrics: Vec<String>,
    /// Event-stream names (`EVENT_*`).
    pub events: Vec<String>,
    /// Span names (`SPAN_*`).
    pub spans: Vec<String>,
    /// Span-argument names (`ARG_*`).
    pub args: Vec<String>,
}

impl TelemetryNames {
    fn is_metric(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m == name)
    }

    fn is_span(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s == name)
    }
}

/// Extracts `pub const NAME: &str = "value";` declarations from the
/// telemetry crate's source.
pub fn extract_names(src: &str) -> TelemetryNames {
    let Scan { code, strings, .. } = scan(src);
    let mut out = TelemetryNames::default();
    for (idx, line) in code.lines().enumerate() {
        // `IDENT: &str = "…"`, the tail of a `pub const` declaration;
        // the value is the string literal opening on the same line.
        let Some((head, _)) = line.split_once(": &str =") else {
            continue;
        };
        let Some(ident) = head.split_whitespace().last() else {
            continue;
        };
        let Some((_, value)) = strings.iter().find(|(l, _)| *l as usize == idx + 1) else {
            continue;
        };
        let bucket = if ident.starts_with("SPAN_") {
            &mut out.spans
        } else if ident.starts_with("EVENT_") {
            &mut out.events
        } else if ident.starts_with("ARG_") {
            &mut out.args
        } else {
            &mut out.metrics
        };
        bucket.push(value.clone());
    }
    out
}

/// Extracts the `"--flag"` string literals a CLI binary matches on,
/// `--help` excluded (it is conventional, not documented per binary).
pub fn extract_cli_flags(src: &str) -> Vec<String> {
    let mut flags: Vec<String> = scan(src)
        .strings
        .iter()
        .filter_map(|(_, s)| {
            let rest = s.strip_prefix("--")?;
            (!rest.is_empty()
                && rest
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                && s != "--help")
                .then(|| s.to_string())
        })
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

fn finding(file: &str, line: u32, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

/// 1-based line of the first occurrence of `needle` in `text` (1 when
/// absent, so every finding has a clickable anchor).
fn line_of(text: &str, needle: &str) -> u32 {
    match text.find(needle) {
        Some(pos) => 1 + text[..pos].bytes().filter(|&b| b == b'\n').count() as u32,
        None => 1,
    }
}

/// `ART-01`: every name the schema fixture records must be declared in
/// `metis_telemetry::names` — metric sections against metric constants,
/// the `spans` section against span constants.
pub fn check_schema_fixture(fixture: &str, names: &TelemetryNames) -> Vec<Diagnostic> {
    const FILE: &str = "tests/fixtures/telemetry_schema.json";
    let json = match Json::parse(fixture) {
        Ok(j) => j,
        Err(e) => {
            return vec![finding(
                FILE,
                1,
                "ART-01",
                format!("telemetry schema fixture is not valid JSON: {e}"),
            )];
        }
    };
    let mut out = Vec::new();
    let keys = |section: &str| -> Vec<&str> {
        json.get(section)
            .and_then(Json::as_obj)
            .map(|fields| fields.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default()
    };
    for section in ["counters", "gauges", "histograms", "series"] {
        for key in keys(section) {
            if !names.is_metric(key) {
                out.push(finding(
                    FILE,
                    line_of(fixture, &format!("\"{key}\"")),
                    "ART-01",
                    format!(
                        "{section}.{key}: name is not declared in `metis_telemetry::names` \
— fix the spelling or declare the constant"
                    ),
                ));
            }
        }
    }
    for key in keys("spans") {
        if !names.is_span(key) {
            out.push(finding(
                FILE,
                line_of(fixture, &format!("\"{key}\"")),
                "ART-01",
                format!(
                    "spans.{key}: span name is not declared in `metis_telemetry::names` \
— fix the spelling or declare the `SPAN_*` constant"
                ),
            ));
        }
    }
    out
}

/// `ART-02`: the DESIGN.md §7 metric catalog must list exactly the
/// metric and event constants — a missing row hides an instrument, an
/// extra row documents a ghost.
pub fn check_design_catalog(design: &str, names: &TelemetryNames) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let catalog = catalog_names(design);
    let mut declared: Vec<&str> = names
        .metrics
        .iter()
        .chain(&names.events)
        .map(String::as_str)
        .collect();
    declared.sort_unstable();
    for name in &declared {
        if !catalog.iter().any(|(c, _)| c == name) {
            out.push(finding(
                "DESIGN.md",
                line_of(design, "**Metric catalog**"),
                "ART-02",
                format!(
                    "§7 catalog.{name}: declared in `metis_telemetry::names` but missing \
from the DESIGN.md §7 metric catalog table — add a row"
                ),
            ));
        }
    }
    for (name, line) in &catalog {
        if !declared.contains(&name.as_str()) {
            out.push(finding(
                "DESIGN.md",
                *line,
                "ART-02",
                format!(
                    "§7 catalog.{name}: listed in the DESIGN.md §7 catalog but not \
declared in `metis_telemetry::names` — delete the row or declare the constant"
                ),
            ));
        }
    }
    out
}

/// Backticked names in the first column of the §7 metric catalog table,
/// with their 1-based lines.
fn catalog_names(design: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (idx, line) in design.lines().enumerate() {
        let trimmed = line.trim();
        if !in_table {
            if trimmed.starts_with("| name |") {
                in_table = true;
            }
            continue;
        }
        if !trimmed.starts_with('|') {
            break;
        }
        let first_cell = trimmed.trim_start_matches('|');
        let Some(cell) = first_cell.split('|').next() else {
            continue;
        };
        // Every `token` in the first cell is a name (one row may list
        // several related names).
        let mut rest = cell;
        while let Some(open) = rest.find('`') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('`') else { break };
            let name = &tail[..close];
            if !name.is_empty() && !name.starts_with('-') {
                out.push((name.to_string(), (idx + 1) as u32));
            }
            rest = &tail[close + 1..];
        }
    }
    out
}

/// `ART-03`: every flag an `spm`/`zoo` binary accepts must occur in the
/// README (code blocks count), matched on whole-flag boundaries so
/// `--telemetry` does not satisfy `--telemetry-prometheus`.
pub fn check_readme_flags(readme: &str, binary: &str, flags: &[String]) -> Vec<Diagnostic> {
    let bytes = readme.as_bytes();
    let flag_char = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-';
    let documented = |flag: &str| {
        let mut from = 0usize;
        while let Some(pos) = readme[from..].find(flag) {
            let start = from + pos;
            let end = start + flag.len();
            let ok_before = start == 0 || !flag_char(bytes[start - 1]);
            let ok_after = end == bytes.len() || !flag_char(bytes[end]);
            if ok_before && ok_after {
                return true;
            }
            from = start + 1;
        }
        false
    };
    flags
        .iter()
        .filter(|f| !documented(f))
        .map(|f| {
            finding(
                "README.md",
                1,
                "ART-03",
                format!("flags.{binary}.{f}: the `{binary}` binary accepts `{f}` but README.md never mentions it"),
            )
        })
        .collect()
}

/// `ART-04`: every generator module under `crates/workload/src/families/`
/// must be described in DESIGN.md §5b. A module stem counts as described
/// when §5b backticks a name starting with it (`geo` → `geo_locality`).
pub fn check_family_docs(design: &str, stems: &[String]) -> Vec<Diagnostic> {
    let section = section_5b(design);
    stems
        .iter()
        .filter(|stem| !section.contains(&format!("`{stem}")))
        .map(|stem| {
            finding(
                "DESIGN.md",
                line_of(design, "## 5b."),
                "ART-04",
                format!(
                    "§5b.families.{stem}: generator module \
`crates/workload/src/families/{stem}.rs` is not described in the DESIGN.md §5b \
family list"
                ),
            )
        })
        .collect()
}

fn section_5b(design: &str) -> &str {
    let Some(start) = design.find("## 5b.") else {
        return "";
    };
    let body = &design[start..];
    match body[3..].find("\n## ") {
        Some(end) => &body[..end + 3],
        None => body,
    }
}

/// `ART-05`: every backticked snake_case identifier in a prose document
/// (inline code spans; fenced code blocks are skipped) must occur as a
/// word of the workspace's Rust source — a deleted or renamed function,
/// field, or crate must not live on in the docs. A path span like
/// `Type::member` is checked segment by segment. `code` holds those
/// words (see [`code_words`]).
pub fn check_doc_identifiers(file: &str, doc: &str, code: &BTreeSet<String>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Odd segments between backticks are inline code spans.
        for span in line.split('`').skip(1).step_by(2) {
            for word in span.split("::") {
                if is_snake_case(word) && !code.contains(word) {
                    out.push(finding(
                        file,
                        (idx + 1) as u32,
                        "ART-05",
                        format!(
                            "identifiers.{word}: `{span}` is backticked in {file} but `{word}` \
occurs in no workspace Rust source — rename or remove it"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// A lowercase identifier with at least one underscore (`try_subset`),
/// which plain backticked words and dotted metric names are not.
fn is_snake_case(s: &str) -> bool {
    s.contains('_')
        && s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The words of one Rust source file that docs may cite: identifier
/// tokens, plus the identifier-shaped words inside string literals (span
/// and family names like `taa.u_root`) and rustdoc comments (math
/// symbols like `y_i`). Plain `//` comments do not count: they document
/// nothing a reader of README.md or DESIGN.md can look up.
pub fn code_words(src: &str) -> BTreeSet<String> {
    let Scan {
        code,
        strings,
        docs,
        ..
    } = scan(src);
    let mut words = BTreeSet::new();
    let mut add_words = |text: &str| {
        words.extend(
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .map(String::from),
        );
    };
    add_words(&code);
    for text in strings.iter().map(|(_, s)| s).chain(&docs) {
        add_words(text);
    }
    words
}

/// Runs every artifact check against the real workspace checkout.
///
/// # Errors
///
/// Returns a message when a required artifact file cannot be read —
/// a missing artifact is an infrastructure failure, not a finding.
pub fn run_artifacts(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let names = extract_names(&read("crates/telemetry/src/lib.rs")?);
    let design = read("DESIGN.md")?;
    let readme = read("README.md")?;

    let mut out = Vec::new();
    out.extend(check_schema_fixture(
        &read("tests/fixtures/telemetry_schema.json")?,
        &names,
    ));
    out.extend(check_design_catalog(&design, &names));
    for bin in ["spm", "zoo"] {
        let flags = extract_cli_flags(&read(&format!("crates/bench/src/bin/{bin}.rs"))?);
        out.extend(check_readme_flags(&readme, bin, &flags));
    }
    let mut stems = Vec::new();
    let fam_dir = root.join("crates/workload/src/families");
    let entries =
        fs::read_dir(&fam_dir).map_err(|e| format!("cannot read {}: {e}", fam_dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name.strip_suffix(".rs") {
            if stem != "mod" && stem != "common" {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();
    out.extend(check_family_docs(&design, &stems));
    let mut code = BTreeSet::new();
    for path in collect_files(root) {
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        code.extend(code_words(&src));
    }
    out.extend(check_doc_identifiers("README.md", &readme, &code));
    out.extend(check_doc_identifiers("DESIGN.md", &design, &code));
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> TelemetryNames {
        TelemetryNames {
            metrics: vec!["lp.solves".into(), "taa.mu".into(), "audit.checks".into()],
            events: vec!["incident".into()],
            spans: vec!["metis".into(), "alternation.round".into()],
            args: vec!["lp.iterations".into()],
        }
    }

    #[test]
    fn extract_names_classifies_by_prefix() {
        let src = r#"
            pub mod names {
                pub const LP_SOLVES: &str = "lp.solves";
                pub const EVENT_INCIDENT: &str = "incident";
                pub const SPAN_METIS: &str = "metis";
                pub const ARG_LP_ITERATIONS: &str = "lp.iterations";
            }
        "#;
        let n = extract_names(src);
        assert_eq!(n.metrics, vec!["lp.solves"]);
        assert_eq!(n.events, vec!["incident"]);
        assert_eq!(n.spans, vec!["metis"]);
        assert_eq!(n.args, vec!["lp.iterations"]);
    }

    #[test]
    fn schema_check_accepts_declared_names() {
        let fixture = r#"{"counters": {"lp.solves": 1}, "series": {"taa.mu": []},
                          "spans": {"metis": {}}}"#;
        assert!(check_schema_fixture(fixture, &names()).is_empty());
    }

    #[test]
    fn schema_check_reports_dotted_path_for_fake_metric() {
        let fixture = r#"{
  "counters": {"lp.solves": 1, "lp.fake_metric": 2}
}"#;
        let out = check_schema_fixture(fixture, &names());
        assert_eq!(out.len(), 1);
        assert!(
            out[0].message.contains("counters.lp.fake_metric"),
            "{}",
            out[0]
        );
        assert_eq!(out[0].line, 2);
        let fake_span = r#"{"spans": {"metis": {}, "bogus.span": {}}}"#;
        let out = check_schema_fixture(fake_span, &names());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("spans.bogus.span"), "{}", out[0]);
    }

    #[test]
    fn catalog_check_is_bidirectional() {
        let complete = "**Metric catalog**\n\n| name | kind | meaning |\n|---|---|---|\n\
                        | `lp.solves` | counter | solves |\n\
                        | `taa.mu` | series | mu |\n\
                        | `audit.checks` | counter | audits |\n\
                        | `incident` | event | incidents |\n";
        assert!(check_design_catalog(complete, &names()).is_empty());
        let missing = "**Metric catalog**\n\n| name | kind | meaning |\n|---|---|---|\n\
                       | `lp.solves` | counter | solves |\n\
                       | `taa.mu` | series | mu |\n\
                       | `incident` | event | incidents |\n\
                       | `ghost.metric` | counter | gone |\n";
        let out = check_design_catalog(missing, &names());
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out
            .iter()
            .any(|d| d.message.contains("catalog.audit.checks") && d.message.contains("missing")));
        assert!(out
            .iter()
            .any(|d| d.message.contains("catalog.ghost.metric") && d.line == 8));
    }

    #[test]
    fn readme_flag_check_matches_whole_flags() {
        let readme = "Run `spm --telemetry out.json` or\n    --requests 200 --seed 7\n";
        let flags = vec![
            "--requests".to_string(),
            "--seed".to_string(),
            "--telemetry".to_string(),
        ];
        assert!(check_readme_flags(readme, "spm", &flags).is_empty());
        // `--telemetry` being documented must not satisfy the longer flag.
        let flags = vec!["--telemetry-prometheus".to_string()];
        let out = check_readme_flags(readme, "spm", &flags);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("flags.spm.--telemetry-prometheus"));
    }

    #[test]
    fn family_check_allows_prefix_names() {
        let design =
            "## 5b. Families\n\n* `uniform` — base\n* `geo_locality` — pops\n\n## 6. Next\n";
        let stems = vec!["geo".to_string(), "uniform".to_string()];
        assert!(check_family_docs(design, &stems).is_empty());
        let stems = vec!["hose".to_string()];
        let out = check_family_docs(design, &stems);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("§5b.families.hose"), "{}", out[0]);
    }

    #[test]
    fn doc_identifier_check_flags_unknown_snake_case_names() {
        let code: BTreeSet<String> = ["try_subset", "metis", "metis_lp", "round_trace"]
            .map(String::from)
            .into();
        let doc = "Call `try_subset` from `metis`, see `lp.solves` and `Foo_Bar`.\n\
                   Then `ghost_helper` explains it.\n\
                   ```text\nfenced_only_name\n```\n\
                   Read `MetisResult::round_trace`, `metis_lp::Problem`, `Config::gone_field`.\n";
        let out = check_doc_identifiers("README.md", doc, &code);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "ART-05"));
        assert_eq!(out[0].line, 2);
        assert!(
            out[0].message.contains("identifiers.ghost_helper"),
            "{}",
            out[0]
        );
        assert_eq!(out[1].line, 6);
        assert!(
            out[1].message.contains("identifiers.gone_field"),
            "{}",
            out[1]
        );
    }

    #[test]
    fn doc_identifier_check_accepts_known_names_and_skips_fences() {
        let code: BTreeSet<String> = ["try_subset", "round_trace"].map(String::from).into();
        let doc = "Use `try_subset` and `round_trace`; `metis.round` is a span.\n\
                   ```rust\nlet x = `not_a_span`;\n```\n";
        assert!(check_doc_identifiers("DESIGN.md", doc, &code).is_empty());
    }

    #[test]
    fn code_words_skip_plain_comments_only() {
        let src = "/// Bound `y_i` per request.\n\
                   // plain_note stays private\n\
                   const SPAN: &str = \"taa.u_root\";\n\
                   fn try_subset() {}\n";
        let words = code_words(src);
        for w in ["y_i", "u_root", "try_subset", "SPAN"] {
            assert!(words.contains(w), "{w} missing from {words:?}");
        }
        assert!(!words.contains("plain_note"));
    }
}
