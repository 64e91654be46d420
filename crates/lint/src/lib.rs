//! `metis-lint`: the workspace checks clippy and rustc cannot express.
//!
//! The paper's guarantees (MAA's approximation bound, TAA's Chernoff
//! feasibility) survive only if the implementation keeps exact
//! accounting and bit-identical determinism. Clippy and rustc enforce
//! most of the code rules that protect them, through each crate's
//! `[lints]` table and the root `clippy.toml` (DESIGN.md §8.1 maps every
//! rule to its lint). This crate keeps the rest:
//!
//! - [`artifacts`]: `ART-01`…`ART-05`, the committed docs and fixtures
//!   against the code they describe;
//! - [`checks`]: `FP-02` and `PANIC-02`, two line checks clippy has no
//!   counterpart for.
//!
//! Both read source through [`scan`], which blanks comments and literals
//! so no check matches prose. They run as tests:
//!
//! ```text
//! cargo test -p metis-lint
//! ```

use std::fs;
use std::path::{Path, PathBuf};

pub mod artifacts;
pub mod checks;
pub mod scan;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`ART-01`, `FP-02`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The workspace's own `.rs` files (vendored crates, build output and
/// test fixtures excluded), sorted.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.flatten().map(|e| e.path()) {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !matches!(name, "vendor" | "target" | ".git" | "fixtures" | "results") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Runs [`checks::check_file`] over every workspace source file.
///
/// # Errors
///
/// Returns a message when a source file cannot be read.
pub fn run_checks(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    for path in collect_files(root) {
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.extend(checks::check_file(&rel, &scan::scan(&src)));
    }
    Ok(out)
}
