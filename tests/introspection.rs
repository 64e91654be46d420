//! Live introspection guarantees, pinned at the workspace level:
//!
//! 1. **HTTP round-trip** — a [`Telemetry::serve`] endpoint returns
//!    valid Prometheus text on `/metrics`, parseable JSON on
//!    `/snapshot.json` and `/trace.json`, and sane errors elsewhere.
//! 2. **Non-perturbation under scraping** — a run being scraped
//!    concurrently over HTTP is bit-identical to a plain run at every
//!    parallelism level (extends the telemetry on/off guarantee of
//!    `tests/telemetry.rs` to the live-server case).
//! 3. **Trace-event well-formedness** — the Chrome trace export parses
//!    with the in-repo JSON parser, spans nest within their parents on
//!    the same thread lane, and every lane is named by metadata.
//! 4. **Convergence-trace agreement** — [`MetisResult::round_trace`]
//!    agrees with the result it annotates: completed entries mirror the
//!    profit history, attributed incidents sum to the incident list, and
//!    the running record ends at the reported profit.

#![expect(
    clippy::float_cmp,
    reason = "FP-01 polices library code; tests assert exact expected values"
)]

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use metis_suite::core::{
    metis, metis_instrumented, FaultPlan, MetisConfig, ParallelConfig, SpmInstance,
};
use metis_suite::netsim::topologies;
use metis_suite::telemetry::{names, validate_prometheus, Telemetry};
use metis_suite::workload::json::Json;
use metis_suite::workload::{generate, ValueModel, WorkloadConfig};

/// The golden fixture of `tests/golden.rs`: B4, 40 requests, seed 2024.
fn fixture() -> SpmInstance {
    let topo = topologies::b4();
    let cfg = WorkloadConfig {
        num_requests: 40,
        value_model: ValueModel::PricedPath {
            low: 2.0,
            high: 8.0,
        },
        seed: 2024,
        ..WorkloadConfig::default()
    };
    let requests = generate(&topo, &cfg);
    SpmInstance::new(topo, requests, 12, 3)
}

const THETA: usize = 6;

/// A Metis config with LP tracing on, as `spm --serve`/`--telemetry`
/// enables it.
fn traced_config() -> MetisConfig {
    let mut cfg = MetisConfig::with_theta(THETA);
    cfg.maa.lp.trace = true;
    cfg.taa.lp.trace = true;
    cfg
}

/// Minimal HTTP/1.1 GET against the metrics endpoint; returns
/// `(status, head, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: metis\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, head.to_string(), body.to_string()))
}

#[test]
fn endpoints_round_trip_on_live_server() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    let server = tele.serve("127.0.0.1:0").expect("bind an ephemeral port");
    let result = metis_instrumented(&inst, &traced_config(), &FaultPlan::none(), &tele).unwrap();
    let addr = server.addr();

    let (status, head, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");
    validate_prometheus(&body).expect("live /metrics must satisfy the line format");
    assert!(body.contains("metis_lp_simplex_iterations"));
    assert!(body.contains("metis_telemetry_http_requests"));
    assert!(body.contains("metis_lp_trace_records"));

    let (status, head, body) = http_get(addr, "/snapshot.json").unwrap();
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "head: {head}");
    let snap = Json::parse(&body).expect("snapshot must be valid JSON");
    let counters = snap
        .get("counters")
        .and_then(Json::as_obj)
        .expect("counters object");
    assert!(!counters.is_empty());
    // The dropped-record counters surface in the snapshot even at zero.
    for name in [
        names::TELEMETRY_SPANS_DROPPED,
        names::TELEMETRY_EVENTS_DROPPED,
    ] {
        assert!(counters.iter().any(|(k, _)| k == name), "missing {name}");
    }
    // The convergence trace flows into the snapshot as series.
    let trace_accepted = snap
        .get("series")
        .and_then(|s| s.get(names::TRACE_ACCEPTED))
        .expect("alternation.trace.accepted series");
    assert_eq!(
        trace_accepted
            .get("points")
            .and_then(Json::as_arr)
            .expect("points")
            .len(),
        result.round_trace.len()
    );

    let (status, _, body) = http_get(addr, "/trace.json").unwrap();
    assert_eq!(status, 200);
    assert_trace_events_well_formed(&body);

    let (status, _, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // All four GETs above were counted.
    let snap = tele.snapshot().expect("enabled handle snapshots");
    assert!(snap.counter(names::TELEMETRY_HTTP_REQUESTS) >= 4);
    drop(server);
}

/// Parses a Chrome trace-event document and checks its structure: every
/// complete event carries the required fields, child spans sit inside
/// their parent's interval on the same thread lane, and every lane used
/// by an event is named by a `thread_name` metadata record.
fn assert_trace_events_well_formed(text: &str) {
    let doc = Json::parse(text).expect("trace must be valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64);
    let mut lanes_named = Vec::new();
    let mut complete = Vec::new();
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("M") => {
                if e.get("name").and_then(Json::as_str) == Some("thread_name") {
                    lanes_named.push(field(e, "tid").expect("metadata tid") as u64);
                }
            }
            Some("X") => {
                let name = e.get("name").and_then(Json::as_str).expect("event name");
                let ts = field(e, "ts").expect("ts");
                let dur = field(e, "dur").expect("dur");
                let tid = field(e, "tid").expect("tid") as u64;
                assert_eq!(field(e, "pid"), Some(1.0));
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("metis"));
                assert!(dur >= 0.0);
                let parent = e
                    .get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                complete.push((name.to_string(), ts, dur, tid, parent));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(!complete.is_empty(), "no complete events in trace");
    for (name, _, _, tid, _) in &complete {
        assert!(lanes_named.contains(tid), "{name}: unnamed lane {tid}");
    }
    // Each child lies within some same-lane parent instance (2 µs slack
    // for the independent floor-rounding of start and duration).
    for (name, ts, dur, tid, parent) in &complete {
        let Some(parent) = parent else { continue };
        let ok = complete.iter().any(|(pn, pts, pdur, ptid, _)| {
            pn == parent && ptid == tid && *pts <= ts + 2.0 && pts + pdur + 2.0 >= ts + dur
        });
        assert!(ok, "{name} (lane {tid}) not nested in any {parent}");
    }
}

#[test]
fn concurrent_scraping_preserves_bit_identity() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    let server = tele.serve("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    #[expect(
        clippy::disallowed_methods,
        reason = "the scraper must run beside the solve on its own OS thread"
    )]
    let scraper = std::thread::spawn(move || {
        let mut scrapes = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            for path in ["/metrics", "/snapshot.json", "/trace.json"] {
                if http_get(addr, path).is_ok_and(|(status, _, _)| status == 200) {
                    scrapes += 1;
                }
            }
        }
        scrapes
    });

    for threads in [1usize, 2, 8] {
        let cfg = MetisConfig {
            parallel: ParallelConfig { threads },
            ..traced_config()
        };
        let plain = metis(&inst, &cfg).unwrap();
        let scraped = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &tele).unwrap();
        let ctx = format!("threads = {threads}");
        assert_eq!(scraped.schedule, plain.schedule, "{ctx}");
        assert_eq!(scraped.evaluation, plain.evaluation, "{ctx}");
        assert_eq!(scraped.round_trace, plain.round_trace, "{ctx}");
    }

    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "scraper never completed a request");
}

#[test]
fn chrome_trace_export_is_well_formed() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    let _ = metis_instrumented(&inst, &traced_config(), &FaultPlan::none(), &tele).unwrap();
    let trace = tele.chrome_trace().expect("enabled handle records spans");
    assert_trace_events_well_formed(&trace);
    // The relax spans carry the LP effort as an argument.
    let doc = Json::parse(&trace).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let relax = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(names::SPAN_MAA_RELAX))
        .expect("maa relax span in trace");
    assert!(
        relax
            .get("args")
            .and_then(|a| a.get(names::ARG_LP_ITERATIONS))
            .and_then(Json::as_f64)
            .is_some(),
        "relax span must carry lp.iterations"
    );
}

#[test]
fn round_trace_agrees_with_reported_result() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    let result = metis_instrumented(&inst, &traced_config(), &FaultPlan::none(), &tele).unwrap();

    // Each entry's record is the best completed profit so far.
    let mut best = 0.0_f64;
    for t in &result.round_trace {
        if t.completed {
            best = best.max(t.profit);
        }
        assert_eq!(t.best_profit, best);
    }
    // Incident attribution is exhaustive and the record converges to the
    // reported profit.
    let attributed: usize = result.round_trace.iter().map(|t| t.incidents).sum();
    assert_eq!(attributed, result.incidents.len());
    let last = result.round_trace.last().expect("round 0 always traced");
    assert_eq!(last.best_profit, result.evaluation.profit);

    // The LP per-iteration ring was live and flowed into the registry.
    let snap = tele.snapshot().expect("enabled handle snapshots");
    assert!(snap.counter(names::LP_TRACE_RECORDS) > 0);
    // One trace record per pivot or bound flip, across every solve.
    let traced_steps =
        snap.counter(names::LP_TRACE_RECORDS) + snap.counter(names::LP_TRACE_DROPPED);
    assert_eq!(
        traced_steps,
        snap.counter(names::LP_SIMPLEX_ITERATIONS) + snap.counter(names::LP_SIMPLEX_BOUND_FLIPS)
    );
    let lp_series = snap
        .series(names::TRACE_LP_ITERATIONS)
        .expect("trace lp series");
    assert_eq!(lp_series.points.len(), result.round_trace.len());
}

#[test]
fn fault_injected_round_trace_flags_incidents() {
    let inst = fixture();
    for seed in 0..4u64 {
        let faults = FaultPlan::random(seed, 0.3, 16);
        let cfg = MetisConfig {
            warm_start: seed % 2 == 1,
            ..MetisConfig::with_theta(4)
        };
        let run = metis_instrumented(&inst, &cfg, &faults, &Telemetry::disabled()).unwrap();
        let attributed: usize = run.round_trace.iter().map(|t| t.incidents).sum();
        assert_eq!(attributed, run.incidents.len(), "seed {seed}");
        let failed = run.round_trace.iter().filter(|t| !t.completed).count();
        assert_eq!(failed, run.failed_rounds(), "seed {seed}");
    }
}
