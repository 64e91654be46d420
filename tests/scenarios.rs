//! Cross-scenario conformance harness: every scenario checked into
//! `scenarios/` must clear the same bar.
//!
//! The sweep discovers all `scenarios/*.json` at run time, so adding a
//! scenario file automatically enrolls it here — there is no list to
//! keep in sync. Per scenario the harness checks:
//!
//! 1. **Schema** — the strict loader accepts it and the file stem equals
//!    the scenario's `name` (so error messages and CLI output agree with
//!    the filename).
//! 2. **Generator invariants** — every generated request passes
//!    [`Request::validate`], rates stay inside the family's declared
//!    Gbps envelope, arrivals land inside the horizon, the stream is
//!    sorted by start slot with sequential ids.
//! 3. **Determinism** — within a warm-start mode the solve is
//!    bit-identical across 1/2/8 worker threads.
//! 4. **Fault tolerance** — single-point and random [`FaultPlan`]s
//!    degrade the run, never kill it.
//! 5. **Audit** — a fully audited solve reports a clean certificate.
//! 6. **Golden outcomes** — profit/accepted per scenario are pinned in
//!    `tests/fixtures/scenarios_golden.json`; regenerate deliberately
//!    with `BLESS=1 cargo test --test scenarios -- golden` and say so in
//!    the commit message.
//!
//! `METIS_FAULTS_WARM_START=0|1` restricts the warm-start modes (the CI
//! scenario matrix sets it); unset, both run, and any other value fails
//! the suite.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use metis_suite::core::{
    metis, metis_instrumented, FaultPlan, MaaOptions, MetisConfig, MetisResult, ParallelConfig,
    Phase, SpmInstance,
};
use metis_suite::netsim::units_to_gbps;
use metis_suite::telemetry::json::Json;
use metis_suite::telemetry::Telemetry;
use metis_suite::workload::{RequestId, Scenario};

/// Tolerance against the pinned golden profits (same tolerance as
/// `tests/golden.rs`).
const PROFIT_TOL: f64 = 1e-6;

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// Every checked-in scenario, sorted by file name.
fn all_scenarios() -> Vec<(PathBuf, Scenario)> {
    let dir = scenario_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the demo plus the four family scenarios, found {}",
        paths.len()
    );
    paths
        .into_iter()
        .map(|p| {
            let s = Scenario::load(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, s)
        })
        .collect()
}

fn instance_of(scenario: &Scenario) -> (SpmInstance, usize) {
    let topo = scenario.build_topology();
    let requests = scenario.generate(&topo);
    let k = requests.len();
    (
        SpmInstance::new(topo, requests, scenario.num_slots(), scenario.paths),
        k,
    )
}

fn config(scenario: &Scenario, threads: usize, warm_start: bool) -> MetisConfig {
    MetisConfig {
        theta: scenario.theta,
        warm_start,
        parallel: ParallelConfig { threads },
        maa: MaaOptions {
            rounding_repeats: 4,
            seed: 99,
        },
        ..MetisConfig::default()
    }
}

#[test]
fn every_scenario_is_schema_valid_and_named_after_its_file() {
    for (path, scenario) in all_scenarios() {
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            scenario.name,
            stem,
            "{}: scenario name must match the file stem",
            path.display()
        );
        assert!(
            scenario
                .description
                .as_deref()
                .is_some_and(|d| !d.is_empty()),
            "{}: a non-empty description is required reading for the next maintainer",
            path.display()
        );
    }
}

#[test]
fn the_zoo_covers_all_four_new_families() {
    let families: BTreeSet<&'static str> =
        all_scenarios().iter().map(|(_, s)| s.family()).collect();
    for family in ["uniform", "geo_locality", "diurnal", "auction", "hose"] {
        assert!(
            families.contains(family),
            "no checked-in scenario exercises the {family} family (have {families:?})"
        );
    }
}

#[test]
fn generated_workloads_satisfy_the_conformance_invariants() {
    for (path, scenario) in all_scenarios() {
        let label = path.display();
        let topo = scenario.build_topology();
        let requests = scenario.generate(&topo);
        assert!(!requests.is_empty(), "{label}: empty workload");

        let num_slots = scenario.num_slots();
        let (lo_gbps, hi_gbps) = scenario.workload.rate_range_gbps();
        for (i, r) in requests.iter().enumerate() {
            r.validate(topo.num_nodes(), num_slots)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(r.id, RequestId(i as u32), "{label}: ids must be sequential");
            let gbps = units_to_gbps(r.rate);
            assert!(
                gbps >= lo_gbps - 1e-9 && gbps <= hi_gbps + 1e-9,
                "{label}: {} rate {gbps} Gbps outside the family envelope [{lo_gbps}, {hi_gbps}]",
                r.id
            );
        }
        assert!(
            requests.windows(2).all(|w| w[0].start <= w[1].start),
            "{label}: request stream must be sorted by start slot"
        );
    }
}

#[test]
fn every_scenario_is_deterministic_across_threads() {
    for (path, scenario) in all_scenarios() {
        let label = path.display();
        let topo = scenario.build_topology();
        let first = scenario.generate(&topo);
        assert_eq!(
            first,
            scenario.generate(&topo),
            "{label}: generation is not reproducible"
        );

        let (inst, _) = instance_of(&scenario);
        for warm_start in common::warm_modes() {
            let reference = metis(&inst, &config(&scenario, 1, warm_start)).unwrap();
            for threads in [2, 8] {
                let run = metis(&inst, &config(&scenario, threads, warm_start)).unwrap();
                assert_eq!(
                    run.schedule, reference.schedule,
                    "{label}: warm={warm_start} threads={threads}"
                );
                assert_eq!(run.round_trace, reference.round_trace, "{label}");
                assert_eq!(run.evaluation, reference.evaluation, "{label}");
            }
        }
    }
}

#[test]
fn every_scenario_survives_fault_injection() {
    for (path, scenario) in all_scenarios() {
        let label = path.display();
        let (inst, k) = instance_of(&scenario);
        for warm_start in common::warm_modes() {
            let cfg = config(&scenario, 1, warm_start);
            let mut plans: Vec<(String, FaultPlan)> = vec![
                ("maa@0".into(), FaultPlan::none().fail_at(Phase::Maa, 0)),
                ("taa@0".into(), FaultPlan::none().fail_at(Phase::Taa, 0)),
                ("maa@1".into(), FaultPlan::none().fail_at(Phase::Maa, 1)),
            ];
            for seed in 0..3 {
                plans.push((
                    format!("random({seed})"),
                    FaultPlan::random(seed, 0.3, 2 * scenario.theta + 2),
                ));
            }
            for (name, plan) in plans {
                let run = metis_instrumented(&inst, &cfg, &plan, &Telemetry::disabled())
                    .unwrap_or_else(|e| panic!("{label} warm={warm_start} {name}: {e}"));
                assert_degraded_but_well_formed(
                    &inst,
                    &run,
                    k,
                    scenario.theta,
                    &format!("{label} warm={warm_start} {name}"),
                );
            }
        }
    }
}

fn assert_degraded_but_well_formed(
    inst: &SpmInstance,
    result: &MetisResult,
    k: usize,
    theta: usize,
    label: &str,
) {
    assert_eq!(result.schedule.len(), k, "{label}");
    for i in 0..k as u32 {
        if let Some(j) = result.schedule.path_choice(RequestId(i)) {
            assert!(
                j < inst.paths(RequestId(i)).len(),
                "{label}: r{i} routed on nonexistent path {j}"
            );
        }
    }
    assert!(
        result.evaluation.profit >= 0.0,
        "{label}: negative profit {}",
        result.evaluation.profit
    );
    assert_eq!(
        result.schedule.num_accepted(),
        result.evaluation.accepted,
        "{label}"
    );
    assert!(result.rounds <= theta, "{label}");
}

#[test]
fn every_scenario_passes_a_full_audit() {
    for (path, scenario) in all_scenarios() {
        let label = path.display();
        let (inst, _) = instance_of(&scenario);
        for warm_start in common::warm_modes() {
            let cfg = MetisConfig {
                audit: true,
                ..config(&scenario, 1, warm_start)
            };
            let run = metis(&inst, &cfg).unwrap();
            let report = run
                .audit
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: audit requested but absent"));
            assert!(
                report.is_clean(),
                "{label} warm={warm_start}: audit violations {:?}",
                report.violations
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden outcomes
// ---------------------------------------------------------------------

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenarios_golden.json")
}

/// One audited cold solve per scenario — the configuration the fixture
/// pins (thread count does not matter: determinism across threads is
/// checked separately).
fn golden_run(scenario: &Scenario) -> (usize, MetisResult) {
    let (inst, k) = instance_of(scenario);
    let run = metis(&inst, &config(scenario, 1, false)).unwrap();
    (k, run)
}

#[test]
fn golden_outcomes_are_pinned_per_scenario() {
    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        let mut rows = Vec::new();
        for (_, scenario) in all_scenarios() {
            let (k, run) = golden_run(&scenario);
            rows.push((
                scenario.name.clone(),
                Json::Obj(vec![
                    ("requests".into(), Json::Num(k as f64)),
                    ("profit".into(), Json::Num(run.evaluation.profit)),
                    ("accepted".into(), Json::Num(run.evaluation.accepted as f64)),
                ]),
            ));
        }
        std::fs::write(&path, Json::Obj(rows).to_pretty() + "\n").unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `BLESS=1 cargo test --test scenarios -- golden` to create it",
            path.display()
        )
    });
    let fixture = Json::parse(&text).unwrap();
    let pinned = fixture.as_obj().expect("golden fixture must be an object");
    let scenarios = all_scenarios();
    assert_eq!(
        pinned.len(),
        scenarios.len(),
        "fixture pins {} scenarios but {} are checked in; regenerate with BLESS=1",
        pinned.len(),
        scenarios.len()
    );
    for (_, scenario) in &scenarios {
        let pin = fixture.get(&scenario.name).unwrap_or_else(|| {
            panic!(
                "{}: missing from the golden fixture; regenerate with BLESS=1",
                scenario.name
            )
        });
        let want_k = pin.get("requests").and_then(Json::as_usize).unwrap();
        let want_profit = pin.get("profit").and_then(Json::as_f64).unwrap();
        let want_accepted = pin.get("accepted").and_then(Json::as_usize).unwrap();
        let (k, run) = golden_run(scenario);
        assert_eq!(k, want_k, "{}: request count drifted", scenario.name);
        assert!(
            (run.evaluation.profit - want_profit).abs() <= PROFIT_TOL,
            "{}: profit {} != pinned {want_profit}; if the change \
             is intended, regenerate with BLESS=1 and say so in the commit message",
            scenario.name,
            run.evaluation.profit
        );
        assert_eq!(
            run.evaluation.accepted, want_accepted,
            "{}: accepted count drifted",
            scenario.name
        );
    }
}
