//! End-to-end CLI checks for `bench_lp`: a malformed `--sizes` list
//! prints the usage line and exits 2 instead of panicking, a well-formed
//! one still runs and writes its JSON, and `--trend-check` fails exactly
//! when a pivot count or objective differs from the baseline.
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

/// A scratch path unique to this process and `tag`.
fn temp_json(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bench_lp_cli_{tag}_{}.json", std::process::id()))
}

/// `doc` with every object field named `key` replaced by `value(old)`.
fn with_field(doc: &Json, key: &str, value: &dyn Fn(&Json) -> Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == key {
                        value(v)
                    } else {
                        with_field(v, key, value)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(|v| with_field(v, key, value)).collect()),
        other => other.clone(),
    }
}

/// Runs `--sizes 8 --trend-check` against a baseline made from a first
/// run by `edit`. The baseline's `pivot_ratio`s are set out of reach, so
/// only the exact-count gate can fail.
fn trend_check_against(tag: &str, edit: &dyn Fn(&Json) -> Json) -> Output {
    let (first, baseline, second) = (
        temp_json(&format!("{tag}_first")),
        temp_json(&format!("{tag}_baseline")),
        temp_json(&format!("{tag}_second")),
    );
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_string();
    let out = bench_lp(&["--sizes", "8", "--out", &path(&first)]);
    assert!(out.status.success(), "{out:?}");
    let doc = Json::parse(&std::fs::read_to_string(&first).expect("first run output"))
        .expect("output is JSON");
    let doc = with_field(&doc, "pivot_ratio", &|_| Json::Num(1e9));
    std::fs::write(&baseline, edit(&doc).to_pretty()).expect("write baseline");
    let out = bench_lp(&[
        "--sizes",
        "8",
        "--out",
        &path(&second),
        "--trend-check",
        &path(&baseline),
    ]);
    for p in [first, baseline, second] {
        let _ = std::fs::remove_file(p);
    }
    out
}

#[test]
fn trend_check_passes_on_identical_pivot_counts() {
    let out = trend_check_against("same", &|doc| doc.clone());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("match the baseline"), "{stdout}");
}

#[test]
fn trend_check_fails_on_changed_pivot_counts() {
    let bump = |field: &'static str| {
        move |doc: &Json| {
            with_field(doc, field, &|v| {
                Json::Num(v.as_f64().expect("numeric field") + 1.0)
            })
        }
    };
    for field in ["iterations", "phase1_iterations", "objective"] {
        let out = trend_check_against(field, &bump(field));
        assert_eq!(out.status.code(), Some(1), "{field}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("sparse_lu {field}:")),
            "{field}: {stderr}"
        );
    }
}
