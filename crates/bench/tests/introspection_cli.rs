//! End-to-end CLI checks for the introspection surface: `spm --serve`
//! answers live HTTP scrapes with valid Prometheus text and trace JSON,
//! and `spm --trace-chrome` writes a parseable trace-event file.
//!
//! The binary is located through `CARGO_BIN_EXE_spm`, so these tests
//! exercise exactly what a user runs.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use metis_telemetry::json::Json;
use metis_telemetry::validate_prometheus;

/// Kills the child on scope exit so a failing assertion cannot leak a
/// parked `--serve` process.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spm() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spm"));
    cmd.args([
        "--network",
        "sub-b4",
        "--requests",
        "25",
        "--seed",
        "3",
        "--theta",
        "3",
    ]);
    cmd
}

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to spm --serve");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: metis\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

#[test]
fn spm_serve_answers_live_scrapes() {
    let child = spm()
        .args(["--serve", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spm");
    let mut child = KillOnDrop(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();

    // The bound address is printed before the solve starts.
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("serving telemetry on http://") {
                    break rest.trim_end_matches("/metrics").to_string();
                }
            }
            _ => {
                let status = child.0.wait().expect("wait for spm");
                panic!("spm --serve exited ({status}) without printing its address");
            }
        }
    };
    // Drain the remaining output so the child never blocks on a full pipe.
    #[expect(
        clippy::disallowed_methods,
        reason = "draining the child's pipe must not block the scrape"
    )]
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    // Scrape immediately: mid-run and post-run snapshots are equally
    // valid, so no synchronization with the solve is needed.
    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    validate_prometheus(&metrics).expect("live /metrics must be valid Prometheus text");
    assert!(metrics.contains("metis_telemetry_http_requests"));

    let (status, trace) = http_get(&addr, "/trace.json");
    assert_eq!(status, 200);
    let doc = Json::parse(&trace).expect("/trace.json must be valid JSON");
    assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());

    let (status, snapshot) = http_get(&addr, "/snapshot.json");
    assert_eq!(status, 200);
    Json::parse(&snapshot).expect("/snapshot.json must be valid JSON");

    drop(child); // kill the parked server
    drain.join().expect("drain thread");
}

#[test]
fn spm_trace_chrome_writes_parseable_file() {
    let path = std::env::temp_dir().join(format!("metis_trace_chrome_{}.json", std::process::id()));
    let output = spm()
        .args(["--trace-chrome", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("run spm");
    assert!(output.status.success(), "spm failed: {output:?}");
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let doc = Json::parse(&text).expect("trace-chrome output must be valid JSON");
            let events = doc
                .get("traceEvents")
                .and_then(Json::as_arr)
                .expect("traceEvents array");
            assert!(!events.is_empty());
            let _ = std::fs::remove_file(&path);
        }
        Err(_) => {
            // Capture compiled out: the run still succeeds but warns on
            // stderr instead of writing the file.
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("not written") || stderr.contains("compiled out"));
        }
    }
}
