//! Cross-crate integration: the full pipeline from workload generation
//! through every scheduler, checked against the model's invariants.

#![expect(
    clippy::float_cmp,
    reason = "FP-01 polices library code; tests assert exact expected values"
)]

mod common;

use metis_suite::baselines::{amoeba, ecoflow, mincost, opt_rlspm, opt_spm, opt_spm_with_start};
use metis_suite::core::{
    maa, metis, taa, MaaOptions, MetisConfig, Schedule, SpmInstance, TaaOptions,
};
use metis_suite::lp::IlpOptions;
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, RequestId, WorkloadConfig};

fn sub_b4_instance(k: usize, seed: u64, paths: usize) -> SpmInstance {
    let topo = topologies::sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, paths)
}

fn b4_instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 3)
}

/// A θ-round config for this suite. `METIS_AUDIT=1` (the CI audit leg
/// sets it, in release mode) forces the solution audits on, so every
/// Metis run below re-derives its load and accounting from scratch and
/// fails loudly on any disagreement.
fn theta(theta: usize) -> MetisConfig {
    MetisConfig {
        audit: common::audit(),
        ..MetisConfig::with_theta(theta)
    }
}

/// Runs Metis under [`theta`] and asserts a clean audit when one ran.
fn run_metis(inst: &SpmInstance, rounds: usize) -> metis_suite::core::MetisResult {
    let result = metis(inst, &theta(rounds)).unwrap();
    if let Some(report) = &result.audit {
        assert!(report.is_clean(), "{report}");
    }
    result
}

#[test]
fn every_scheduler_produces_valid_schedules() {
    let inst = b4_instance(80, 1);
    let caps = vec![10.0; inst.topology().num_edges()];

    let schedules: Vec<(&str, Schedule)> = vec![
        ("mincost", mincost(&inst)),
        ("amoeba", amoeba(&inst, &caps)),
        ("ecoflow", ecoflow(&inst)),
        (
            "maa",
            maa(&inst, &[true; 80], &MaaOptions::default())
                .unwrap()
                .schedule,
        ),
        (
            "taa",
            taa(&inst, &caps, &TaaOptions::default()).unwrap().schedule,
        ),
        ("metis", run_metis(&inst, 4).schedule),
    ];
    for (name, s) in schedules {
        assert_eq!(s.len(), 80, "{name}: wrong request count");
        // Every accepted request routes on one of its own candidate paths.
        for i in 0..80u32 {
            if let Some(j) = s.path_choice(RequestId(i)) {
                assert!(
                    j < inst.paths(RequestId(i)).len(),
                    "{name}: path index out of range"
                );
            }
        }
        // Evaluation identity.
        let ev = s.evaluate(&inst);
        assert!(
            (ev.profit - (ev.revenue - ev.cost)).abs() < 1e-9,
            "{name}: profit identity"
        );
        // Charged capacity covers the load.
        assert!(
            s.check_capacities(&inst, &ev.charged).is_ok(),
            "{name}: charged units below peak load"
        );
    }
}

#[test]
fn capacity_constrained_schedulers_respect_capacities() {
    for seed in 0..3 {
        let inst = b4_instance(150, seed);
        let caps = vec![2.0; inst.topology().num_edges()];
        let t = taa(&inst, &caps, &TaaOptions::default()).unwrap();
        t.schedule.check_capacities(&inst, &caps).unwrap();
        let a = amoeba(&inst, &caps);
        a.check_capacities(&inst, &caps).unwrap();
    }
}

#[test]
fn exact_optimum_dominates_every_heuristic() {
    // Small enough for the MILP to prove optimality.
    let inst = sub_b4_instance(12, 3, 2);
    let opt = opt_spm(&inst, &IlpOptions::default()).unwrap();
    assert!(opt.optimal, "instance must be exactly solvable");

    let eco = ecoflow(&inst).evaluate(&inst);
    let m = run_metis(&inst, 6);
    let serve_all = maa(&inst, &[true; 12], &MaaOptions::default())
        .unwrap()
        .evaluation;

    let opt_profit = opt.evaluation.profit;
    assert!(opt_profit >= eco.profit - 1e-6);
    assert!(opt_profit >= m.evaluation.profit - 1e-6);
    assert!(opt_profit >= serve_all.revenue - serve_all.cost - 1e-6);
}

#[test]
fn opt_rlspm_is_cheapest_way_to_serve_all() {
    let inst = sub_b4_instance(10, 4, 2);
    let opt = opt_rlspm(&inst, &IlpOptions::default()).unwrap();
    assert!(opt.optimal);
    assert_eq!(opt.evaluation.accepted, 10);

    // MAA and MinCost also serve everyone; neither can be cheaper.
    let m = maa(&inst, &[true; 10], &MaaOptions::default()).unwrap();
    assert!(opt.evaluation.cost <= m.evaluation.cost + 1e-6);
    let mc = mincost(&inst).evaluate(&inst);
    assert!(opt.evaluation.cost <= mc.cost + 1e-6);
}

#[test]
fn warm_started_opt_never_loses_to_its_seed() {
    let inst = sub_b4_instance(40, 5, 3);
    let m = run_metis(&inst, 5);
    let opt = opt_spm_with_start(
        &inst,
        &IlpOptions {
            max_nodes: 50,
            ..IlpOptions::default()
        },
        &m.schedule,
    )
    .unwrap();
    assert!(opt.evaluation.profit >= m.evaluation.profit - 1e-6);
    // The reported bound brackets the true optimum from above.
    assert!(opt.bound >= opt.evaluation.profit - 1e-6);
}

#[test]
fn metis_profit_beats_current_service_mode_at_scale() {
    // The headline claim: selective acceptance beats accept-everything.
    let inst = b4_instance(300, 2);
    let serve_all = maa(&inst, &[true; 300], &MaaOptions::default()).unwrap();
    let serve_all_profit = serve_all.evaluation.revenue - serve_all.evaluation.cost;
    let m = run_metis(&inst, 8);
    assert!(
        m.evaluation.profit >= serve_all_profit,
        "metis {} < serve-all {}",
        m.evaluation.profit,
        serve_all_profit
    );
    assert!(m.evaluation.profit > 0.0);
}

#[test]
fn lp_relaxations_bracket_integral_solutions() {
    let inst = b4_instance(60, 6);
    // RL-SPM: fractional cost lower-bounds any integral serving cost.
    let m = maa(&inst, &[true; 60], &MaaOptions::default()).unwrap();
    assert!(m.relaxation.cost <= m.evaluation.cost + 1e-6);
    // BL-SPM: fractional revenue upper-bounds any feasible revenue.
    let caps = vec![5.0; inst.topology().num_edges()];
    let t = taa(&inst, &caps, &TaaOptions::default()).unwrap();
    assert!(t.relaxation.revenue >= t.evaluation.revenue - 1e-6);
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let inst = b4_instance(120, 9);
        let m = run_metis(&inst, 5);
        (
            m.evaluation.profit,
            m.evaluation.accepted,
            m.schedule.clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn declined_requests_cost_nothing() {
    let inst = sub_b4_instance(20, 7, 3);
    let m = run_metis(&inst, 6);
    // Rebuild the load from scratch; only accepted requests contribute.
    let ev = m.schedule.evaluate(&inst);
    let mut expected_revenue = 0.0;
    for r in inst.requests() {
        if m.schedule.is_accepted(r.id) {
            expected_revenue += r.value;
        }
    }
    assert!((ev.revenue - expected_revenue).abs() < 1e-9);
}
