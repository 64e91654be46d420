//! End-to-end telemetry guarantees, pinned at the workspace level:
//!
//! 1. **Non-perturbation** — a run with a live collector is bit-identical
//!    to a plain run at every parallelism level (telemetry is a
//!    write-only side channel).
//! 2. **Schema stability** — the JSON snapshot's shape is pinned by a
//!    golden fixture (`tests/fixtures/telemetry_schema.json`); adding,
//!    renaming, or dropping a metric is a deliberate fixture update.
//! 3. **Histogram bucket math** — `le` boundary semantics on the shared
//!    1–2–5 grid, checked both directly and through a collector.
//! 4. **Span nesting sanity** — depth and parentage stay bounded even
//!    while fault injection reroutes the alternation's control flow.
//! 5. **Prometheus line format** — the exporter's output passes the
//!    built-in promtool-style validator (and the validator itself
//!    rejects malformed text).
//!
//! Regenerate the schema fixture after intentional metric changes with:
//! `BLESS=1 cargo test --test telemetry -- schema`.

use metis_suite::core::{
    metis, metis_instrumented, online_metis, online_metis_instrumented, FaultPlan, MetisConfig,
    OnlineOptions, ParallelConfig, SpmInstance,
};
use metis_suite::netsim::topologies;
use metis_suite::telemetry::{
    bucket_index, names, to_prometheus, validate_prometheus, Telemetry, BUCKET_COUNT,
    HISTOGRAM_BOUNDS,
};
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

#[test]
fn telemetry_on_off_bit_identical_across_thread_counts() {
    let inst = fixture();
    for threads in [1usize, 2, 8] {
        for warm_start in [false, true] {
            let cfg = MetisConfig {
                warm_start,
                parallel: ParallelConfig { threads },
                ..MetisConfig::with_theta(THETA)
            };
            let plain = metis(&inst, &cfg).unwrap();
            let off = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &Telemetry::disabled())
                .unwrap();
            let tele = Telemetry::enabled();
            let on = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &tele).unwrap();
            let ctx = format!("threads = {threads}, warm_start = {warm_start}");
            assert_eq!(on.schedule, plain.schedule, "{ctx}");
            assert_eq!(on.round_trace, plain.round_trace, "{ctx}");
            assert_eq!(on.evaluation, plain.evaluation, "{ctx}");
            assert_eq!(off.schedule, plain.schedule, "{ctx}");
            assert_eq!(off.round_trace, plain.round_trace, "{ctx}");
            assert_eq!(off.evaluation, plain.evaluation, "{ctx}");
        }
    }
}

#[test]
fn telemetry_online_on_off_bit_identical() {
    let inst = fixture();
    let options = OnlineOptions::default();
    let plain = online_metis(&inst, &options).unwrap();
    let tele = Telemetry::enabled();
    let on = online_metis_instrumented(&inst, &options, &FaultPlan::none(), &tele).unwrap();
    assert_eq!(on.schedule, plain.schedule);
    assert_eq!(on.epochs, plain.epochs);
    assert_eq!(on.evaluation, plain.evaluation);
}

/// Pins the snapshot *shape* (metric names, span parentage, series
/// lengths) for the deterministic single-threaded golden run. Numeric
/// values are zeroed by `schema_json`, so timing noise cannot fail this.
#[test]
fn snapshot_schema_matches_golden_fixture() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    // Audit explicitly on: debug builds audit regardless, so forcing the
    // flag keeps the recorded schema (which includes the audit counters)
    // identical across build profiles.
    let cfg = MetisConfig {
        audit: true,
        ..MetisConfig::with_theta(THETA)
    };
    let _ = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &tele).unwrap();
    let snap = tele.snapshot().expect("enabled handle snapshots");
    // Acceptance floor: the run actually exercised the instrumented paths.
    assert!(snap.counter(names::LP_SIMPLEX_ITERATIONS) > 0);
    assert!(snap
        .histogram(names::ROUND_DURATION_US)
        .is_some_and(|h| h.count > 0));
    assert!(snap
        .series(names::TAA_MU)
        .is_some_and(|s| !s.points.is_empty()));
    assert!(snap
        .series(names::TAA_U_ROOT)
        .is_some_and(|s| !s.points.is_empty()));

    let schema = snap.schema_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/telemetry_schema.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &schema).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "missing tests/fixtures/telemetry_schema.json — run \
`BLESS=1 cargo test --test telemetry -- schema` to create it",
    );
    assert_eq!(
        schema, golden,
        "telemetry snapshot schema drifted from the golden fixture; if the \
change is intended, regenerate with BLESS=1 and say so in the commit message"
    );
}

#[test]
fn histogram_bucket_boundaries() {
    // Exact bounds land in their own bucket (`le` semantics); anything
    // just above moves one bucket up.
    for (i, &bound) in HISTOGRAM_BOUNDS.iter().enumerate() {
        assert_eq!(bucket_index(bound), i, "at bound {bound}");
        assert_eq!(bucket_index(bound * (1.0 + 1e-9)), i + 1, "above {bound}");
    }
    // Degenerate inputs.
    assert_eq!(bucket_index(0.0), 0);
    assert_eq!(bucket_index(-1.0), 0);
    assert_eq!(bucket_index(f64::NAN), BUCKET_COUNT - 1);
    assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT - 1);

    // The same semantics hold through a live collector.
    let tele = Telemetry::enabled();
    tele.observe("t.hist", HISTOGRAM_BOUNDS[0]);
    tele.observe("t.hist", HISTOGRAM_BOUNDS[0] * (1.0 + 1e-9));
    tele.observe("t.hist", f64::INFINITY);
    let snap = tele.snapshot().expect("enabled handle snapshots");
    let h = snap.histogram("t.hist").expect("histogram");
    assert_eq!(h.count, 3);
    assert_eq!(h.buckets.len(), BUCKET_COUNT);
    assert_eq!(h.buckets[0], 1);
    assert_eq!(h.buckets[1], 1);
    assert_eq!(h.buckets[BUCKET_COUNT - 1], 1);
    assert_eq!(h.min, HISTOGRAM_BOUNDS[0]);
    assert_eq!(h.max, f64::INFINITY);
}

/// Fault injection reroutes the alternation through retry and skip
/// paths; span nesting must stay shallow and correctly parented on
/// every one of them.
#[test]
fn span_nesting_bounded_under_fault_sweep() {
    let inst = fixture();
    for seed in 0..6u64 {
        let faults = FaultPlan::random(seed, 0.3, 16);
        let cfg = MetisConfig {
            warm_start: seed % 2 == 1,
            ..MetisConfig::with_theta(4)
        };
        let tele = Telemetry::enabled();
        let run = metis_instrumented(&inst, &cfg, &faults, &tele).unwrap();
        let snap = tele.snapshot().expect("enabled handle snapshots");
        // metis → round → {limiter, maa.relax, maa.rounding, taa.relax,
        // taa.walk}: never deeper than three.
        assert!(
            snap.max_span_depth <= 3,
            "seed {seed}: depth {} > 3",
            snap.max_span_depth
        );
        for (child, parent) in [
            (names::SPAN_ROUND, names::SPAN_METIS),
            (names::SPAN_MAA_RELAX, names::SPAN_ROUND),
            (names::SPAN_MAA_ROUNDING, names::SPAN_ROUND),
            (names::SPAN_TAA_RELAX, names::SPAN_ROUND),
            (names::SPAN_TAA_WALK, names::SPAN_ROUND),
            (names::SPAN_LIMITER, names::SPAN_ROUND),
        ] {
            if let Some(s) = snap.span(child) {
                assert_eq!(s.parent.as_deref(), Some(parent), "seed {seed}: {child}");
            }
        }
        assert_eq!(snap.dropped.span_records, 0, "seed {seed}");
        // Every contained failure surfaced as both a counter and an event.
        let incident_total =
            snap.counter(names::INCIDENT_SOLVE_FAILED) + snap.counter(names::INCIDENT_WARM_RETRY);
        assert_eq!(incident_total as usize, run.incidents.len(), "seed {seed}");
        assert_eq!(snap.events.len(), run.incidents.len(), "seed {seed}");
    }

    // Online adds two outer levels: online → epoch → metis → round → leaf.
    let tele = Telemetry::enabled();
    let faults = FaultPlan::none().fail_epoch(1);
    let _ = online_metis_instrumented(&inst, &OnlineOptions::default(), &faults, &tele).unwrap();
    let snap = tele.snapshot().expect("enabled handle snapshots");
    assert!(snap.max_span_depth <= 5, "depth {}", snap.max_span_depth);
    let epoch = snap.span(names::SPAN_EPOCH).expect("epoch span");
    assert_eq!(epoch.parent.as_deref(), Some(names::SPAN_ONLINE));
    assert!(snap.counter(names::INCIDENT_EPOCH_SKIPPED) >= 1);
}

#[test]
fn prometheus_export_is_line_format_valid() {
    let inst = fixture();
    let tele = Telemetry::enabled();
    let _ = metis_instrumented(
        &inst,
        &MetisConfig::with_theta(THETA),
        &FaultPlan::none(),
        &tele,
    )
    .unwrap();
    let snap = tele.snapshot().expect("enabled handle snapshots");
    let text = to_prometheus(&snap);
    validate_prometheus(&text).expect("exporter output must satisfy the line format");
    assert!(text.contains("metis_lp_simplex_iterations"));
    assert!(text.contains("metis_alternation_round_duration_us_bucket{le=\"+Inf\"}"));
    assert!(text.ends_with('\n'));

    // The validator is not a rubber stamp: promtool's core complaints
    // (bad metric name, bad label syntax, non-numeric value) all fail.
    for bad in [
        "1bad_name 3\n",
        "# TYPE metis_x counter\nmetis_x{le=+Inf} 1\n",
        "# TYPE metis_y gauge\nmetis_y one\n",
    ] {
        assert!(validate_prometheus(bad).is_err(), "accepted: {bad:?}");
    }
}
