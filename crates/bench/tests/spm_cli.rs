//! End-to-end CLI checks for `spm` and `zoo`: every malformed flag is a
//! usage error that exits 2 with a message, never a panic, and a reader
//! that stops reading `spm`'s output early ends it with status 0.
//!
//! The binaries are located through `CARGO_BIN_EXE_*`, so this test
//! exercises exactly what a user runs.

use std::io::Read;
use std::process::{Command, Stdio};

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

#[test]
fn a_reader_that_leaves_early_ends_the_run_quietly() {
    // K = 400 prints about 110 kB of JSON, more than a pipe holds, so
    // `spm` is still writing when the pipe closes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_spm"))
        .args([
            "--network",
            "b4",
            "--requests",
            "400",
            "--seed",
            "7",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spm");
    let mut head = [0u8; 300];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("read the first bytes");
    // The pipe's read end is dropped, and closed, here.
    let out = child.wait_with_output().expect("wait for spm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        head.starts_with(b"{"),
        "{:?}",
        String::from_utf8_lossy(&head)
    );
}
