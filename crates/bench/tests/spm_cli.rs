//! End-to-end CLI check for `spm`: every malformed flag is a usage
//! error that exits 2 with a message, never a panic.
//!
//! The binary is located through `CARGO_BIN_EXE_spm`, so this test
//! exercises exactly what a user runs.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_without_panicking() {
    for bad in [
        &["--paths", "0"][..],
        &["--requests", "x"],
        &["--seed"],
        &["--bogus"],
        &["--opt-seconds", "-1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_spm"))
            .args(bad)
            .output()
            .expect("spawn spm");
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.trim().is_empty(), "{bad:?}: empty stderr");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr:?}");
    }
}
