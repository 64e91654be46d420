//! End-to-end CLI checks for `bench_lp` argument handling: a malformed
//! `--sizes` list prints the usage line and exits 2 instead of
//! panicking, and a well-formed one still runs and writes its JSON.
//!
//! The binary is located through `CARGO_BIN_EXE_bench_lp`, so these
//! tests exercise exactly what a user runs.

use std::process::{Command, Output};

use metis_workload::json::Json;

fn bench_lp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_lp"))
        .args(args)
        .output()
        .expect("spawn bench_lp")
}

#[test]
fn malformed_sizes_print_usage_and_exit_2() {
    for bad in [
        &["--sizes", "abc"][..],
        &["--sizes", "100,x"],
        &["--sizes", ""],
        &["--sizes"],
    ] {
        let out = bench_lp(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: bench_lp"),
            "{bad:?}: no usage line in {stderr:?}"
        );
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr:?}");
    }
}

#[test]
fn well_formed_sizes_run_and_write_json() {
    let path = std::env::temp_dir().join(format!("bench_lp_cli_{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let out = bench_lp(&["--sizes", "8", "--out", path_str]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("bench_lp wrote its output");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("output is JSON");
    let entries = doc.get("entries").and_then(Json::as_arr).expect("entries");
    assert_eq!(entries.len(), 1);
    let configs = entries[0].get("configs").expect("configs");
    for key in ["dense", "sparse_lu"] {
        assert!(configs.get(key).is_some(), "missing config {key}");
    }
}
