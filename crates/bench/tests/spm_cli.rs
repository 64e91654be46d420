//! End-to-end CLI check for `spm` and `zoo`: every malformed flag is a
//! usage error that exits 2 with a message, never a panic.
//!
//! The binaries are located through `CARGO_BIN_EXE_*`, so this test
//! exercises exactly what a user runs.

use std::process::Command;

#[test]
fn malformed_flags_exit_2_without_panicking() {
    let spm = env!("CARGO_BIN_EXE_spm");
    let zoo = env!("CARGO_BIN_EXE_zoo");
    for (bin, bad) in [
        (spm, &["--paths", "0"][..]),
        (spm, &["--requests", "x"]),
        (spm, &["--requests", "18446744073709551615"]),
        (spm, &["--seed"]),
        (spm, &["--bogus"]),
        (spm, &["--opt-seconds", "-1"]),
        (zoo, &["--quick"]),
    ] {
        let out = Command::new(bin)
            .args(bad)
            .output()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.trim().is_empty(), "{bad:?}: empty stderr");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr:?}");
        if bin == zoo {
            assert!(stderr.contains("unknown flag"), "{bad:?}: {stderr:?}");
        }
    }
}
