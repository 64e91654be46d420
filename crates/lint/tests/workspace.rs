//! Runs the two line checks (`FP-02`, `PANIC-02`) over the real
//! workspace, so `cargo test --workspace` enforces them on every change.

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf();
    let diags = metis_lint::run_checks(&root).expect("workspace sources readable");
    assert!(
        diags.is_empty(),
        "metis-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
