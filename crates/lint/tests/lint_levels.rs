//! The workspace's code-rule policy as one table: each rule, the clippy
//! or rustc lint that enforces it, and the crates it covers. The test
//! holds every crate's `Cargo.toml` `[lints]` table, the root
//! `clippy.toml` and `metis-core`'s clippy-only fixtures to it, so
//! `cargo test --workspace` fails when a lint level or list entry is
//! dropped.

use std::fs;
use std::path::{Path, PathBuf};

/// The packages a rule covers.
enum Scope {
    /// Every workspace package: the root `metis-suite` (its `tests/` and
    /// `examples/`) and each crate under `crates/`.
    All,
    /// These package directories only.
    Only(&'static [&'static str]),
}
use Scope::{All, Only};

/// The crates whose library code must not panic.
const NO_PANIC: Scope = Only(&["crates/core", "crates/lp", "crates/telemetry"]);
/// The crates whose public `Result`s must document their errors.
const API: Scope = Only(&["crates/core", "crates/lp"]);

/// (rule, `[lints.<table>]`, lint, packages).
const CATALOG: &[(&str, &str, &str, Scope)] = &[
    ("DET-01", "clippy", "disallowed_types", All),
    ("DET-02", "clippy", "disallowed_methods", All),
    ("CONC-01", "clippy", "disallowed_methods", All),
    ("DET-03", "clippy", "iter_over_hash_type", All),
    ("FP-01", "clippy", "float_cmp", All),
    ("PANIC-01", "clippy", "unwrap_used", NO_PANIC),
    ("PANIC-01", "clippy", "expect_used", NO_PANIC),
    ("PANIC-01", "clippy", "panic", NO_PANIC),
    ("PANIC-01", "clippy", "unreachable", NO_PANIC),
    ("PANIC-01", "clippy", "todo", NO_PANIC),
    ("PANIC-01", "clippy", "unimplemented", NO_PANIC),
    ("API-01", "clippy", "missing_errors_doc", API),
    ("SAFE-01", "clippy", "undocumented_unsafe_blocks", All),
    ("DOC-01", "rust", "missing_docs", Only(&["crates/core"])),
    ("LINT-00", "clippy", "allow_attributes_without_reason", All),
    ("LINT-01", "rust", "unfulfilled_lint_expectations", All),
];

/// (rule, `clippy.toml` line fragment) for the lists and exemptions the
/// lints above read.
const CLIPPY_TOML: &[(&str, &str)] = &[
    ("DET-01", r#"{ path = "std::collections::HashMap","#),
    ("DET-01", r#"{ path = "std::collections::HashSet","#),
    ("DET-02", r#"{ path = "std::time::Instant::now","#),
    ("DET-02", r#"{ path = "std::time::SystemTime::now","#),
    ("CONC-01", r#"{ path = "std::thread::spawn","#),
    ("CONC-01", r#"{ path = "std::thread::Scope::spawn","#),
    ("CONC-01", r#"{ path = "std::thread::Builder::spawn","#),
    ("PANIC-01", "allow-unwrap-in-tests = true"),
    ("PANIC-01", "allow-expect-in-tests = true"),
    ("PANIC-01", "allow-panic-in-tests = true"),
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf()
}

/// Every package directory, relative to the root (`.` for the root).
fn packages(root: &Path) -> Vec<String> {
    let mut out = vec![".".to_string()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let path = entry.expect("crates/ entry").path();
        if path.join("Cargo.toml").is_file() {
            let name = path.file_name().expect("named dir").to_string_lossy();
            out.push(format!("crates/{name}"));
        }
    }
    out.sort();
    out
}

/// The `lint = "level"` entries of `[lints.<table>]` in a manifest.
fn lint_levels(manifest: &str, table: &str) -> Vec<(String, String)> {
    let header = format!("[lints.{table}]");
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let (name, rest) = l.split_once('=')?;
            let level = rest.split('#').next()?.trim().trim_matches('"');
            Some((name.trim().to_string(), level.to_string()))
        })
        .collect()
}

#[test]
fn every_rule_has_its_lint_level_in_every_crate_it_covers() {
    let root = root();
    let packages = packages(&root);
    assert!(packages.len() >= 9, "{packages:?}");
    let mut missing = Vec::new();
    for (rule, table, lint, scope) in CATALOG {
        let covered: Vec<&str> = match scope {
            All => packages.iter().map(String::as_str).collect(),
            Only(dirs) => dirs.to_vec(),
        };
        for pkg in covered {
            let manifest = fs::read_to_string(root.join(pkg).join("Cargo.toml"))
                .unwrap_or_else(|e| panic!("{pkg}/Cargo.toml: {e}"));
            let levels = lint_levels(&manifest, table);
            let level = levels.iter().find(|(n, _)| n == lint).map(|(_, l)| l);
            if !matches!(level.map(String::as_str), Some("deny" | "forbid")) {
                missing.push(format!(
                    "{rule}: {pkg}/Cargo.toml [lints.{table}] {lint} = {level:?}, want \"deny\""
                ));
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn clippy_toml_lists_every_banned_api_and_test_exemption() {
    let toml = fs::read_to_string(root().join("clippy.toml")).expect("root clippy.toml");
    let missing: Vec<String> = CLIPPY_TOML
        .iter()
        .filter(|(_, fragment)| !toml.lines().any(|l| l.trim_start().starts_with(fragment)))
        .map(|(rule, fragment)| format!("{rule}: clippy.toml lacks `{fragment}`"))
        .collect();
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn every_rule_has_a_clippy_fixture_in_core() {
    let fixtures = fs::read_to_string(root().join("crates/core/src/lint_fixtures.rs"))
        .expect("crates/core/src/lint_fixtures.rs");
    let missing: Vec<String> = CATALOG
        .iter()
        // rustc refuses to expect `unfulfilled_lint_expectations`; every
        // other fixture depends on it instead.
        .filter(|(rule, ..)| *rule != "LINT-01")
        .filter_map(|(rule, table, lint, _)| {
            let path = if *table == "clippy" {
                format!("clippy::{lint}")
            } else {
                (*lint).to_string()
            };
            let attr = format!("#[expect({path}, reason = \"{rule} fixture\")]");
            (!fixtures.contains(&attr)).then(|| format!("{rule}: no `{attr}`"))
        })
        .collect();
    assert!(missing.is_empty(), "{}", missing.join("\n"));
    let lib = fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("core lib.rs");
    assert!(
        lib.contains("#[cfg(clippy)]\npub mod lint_fixtures;"),
        "the fixtures must compile under clippy only"
    );
}
