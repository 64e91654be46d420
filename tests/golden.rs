//! Golden-fixture regression test: one fixed workload, pinned outcomes.
//!
//! The fixture pins the full solve pipeline (workload generation → LP
//! relaxations → rounding / derandomized walk → SP updater) on B4 with
//! 40 requests and a fixed seed. Any change to the RNG streams, the
//! simplex pivoting, or the alternation logic shows up here first; update
//! the constants deliberately when such a change is intended, and say so
//! in the commit message.
//!
//! The workload uses a raised bid markup (`PricedPath { 2.0, 8.0 }`):
//! with the paper's default markup, 40 requests on the full B4 cannot
//! outbid B4's peak-billed integer unit charges and every run pins to the
//! degenerate zero-profit/zero-accepted outcome, which would regress
//! nothing.

use metis_suite::core::{metis, online_metis, MetisConfig, OnlineOptions, SpmInstance};
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, ValueModel, WorkloadConfig};

const K: usize = 40;
const SEED: u64 = 2024;
const THETA: usize = 6;

/// Pinned profit of the default (cold) pipeline.
const GOLDEN_PROFIT: f64 = 15.297028551237;
/// Pinned accepted-request count of the default (cold) pipeline.
const GOLDEN_ACCEPTED: usize = 35;
/// Pinned profit with warm-started LPs (the warm pipeline happens to land
/// on the same optima for this fixture).
const GOLDEN_WARM_PROFIT: f64 = 15.297028551237;
/// Pinned accepted-request count with warm-started LPs.
const GOLDEN_WARM_ACCEPTED: usize = 35;

const TOL: f64 = 1e-6;

/// Bit pattern of the warm pipeline's profit (15.297028551237261).
const GOLDEN_WARM_PROFIT_BITS: u64 = 0x402e_9814_2053_15a8;
/// Simplex iterations of every round of the warm pipeline, in order
/// (MAA, TAA, MAA, …): round 1 of each phase is cold, later ones warm.
const GOLDEN_WARM_LP_ITERATIONS: [usize; 13] = [35, 45, 0, 4, 1, 5, 12, 4, 3, 1, 0, 7, 4];
/// Bit pattern of the warm four-epoch online run's profit
/// (6.976825227866442).
const GOLDEN_ONLINE_WARM_PROFIT_BITS: u64 = 0x401b_e844_df5e_6060;

fn fixture() -> SpmInstance {
    let topo = topologies::b4();
    let cfg = WorkloadConfig {
        num_requests: K,
        value_model: ValueModel::PricedPath {
            low: 2.0,
            high: 8.0,
        },
        seed: SEED,
        ..WorkloadConfig::default()
    };
    let requests = generate(&topo, &cfg);
    SpmInstance::new(topo, requests, 12, 3)
}

#[test]
fn golden_b4_forty_requests() {
    let inst = fixture();
    let cold = metis(&inst, &MetisConfig::with_theta(THETA)).unwrap();
    let warm = metis(
        &inst,
        &MetisConfig {
            warm_start: true,
            ..MetisConfig::with_theta(THETA)
        },
    )
    .unwrap();
    assert!(
        (cold.evaluation.profit - GOLDEN_PROFIT).abs() <= TOL,
        "cold profit {} != pinned {GOLDEN_PROFIT}",
        cold.evaluation.profit
    );
    assert_eq!(cold.evaluation.accepted, GOLDEN_ACCEPTED);
    assert!(
        (warm.evaluation.profit - GOLDEN_WARM_PROFIT).abs() <= TOL,
        "warm profit {} != pinned {GOLDEN_WARM_PROFIT}",
        warm.evaluation.profit
    );
    assert_eq!(warm.evaluation.accepted, GOLDEN_WARM_ACCEPTED);
    // Cross-checks that hold whatever the pinned numbers are.
    assert!(
        (cold.evaluation.profit - (cold.evaluation.revenue - cold.evaluation.cost)).abs() < 1e-9
    );
    assert!(cold.evaluation.profit >= 0.0 && warm.evaluation.profit >= 0.0);
}

/// The warm pipeline pinned to the bit, pivots included: a change that
/// only makes warm re-solves cheaper must leave every number here alone.
#[test]
fn golden_b4_forty_requests_warm_bits() {
    let inst = fixture();
    let warm = MetisConfig {
        warm_start: true,
        ..MetisConfig::with_theta(THETA)
    };
    let run = metis(&inst, &warm).unwrap();
    assert_eq!(
        run.evaluation.profit.to_bits(),
        GOLDEN_WARM_PROFIT_BITS,
        "warm profit {} moved",
        run.evaluation.profit
    );
    assert_eq!(run.evaluation.accepted, GOLDEN_WARM_ACCEPTED);
    let iterations: Vec<usize> = run.round_trace.iter().map(|t| t.lp_iterations).collect();
    assert_eq!(iterations, GOLDEN_WARM_LP_ITERATIONS);

    let online = online_metis(
        &inst,
        &OnlineOptions {
            epochs: 4,
            metis: warm,
        },
    )
    .unwrap();
    assert_eq!(
        online.evaluation.profit.to_bits(),
        GOLDEN_ONLINE_WARM_PROFIT_BITS,
        "online warm profit {} moved",
        online.evaluation.profit
    );
}

/// Same fixture, with the LP basis backend pinned explicitly on both
/// sides of the A/B switch: the sparse-LU and dense-inverse backends
/// must both land on the pinned golden outcome, warm and cold.
#[test]
fn golden_b4_forty_requests_on_both_lp_backends() {
    use metis_suite::lp::BasisBackend;

    let inst = fixture();
    for backend in [BasisBackend::SparseLu, BasisBackend::Dense] {
        for warm_start in [false, true] {
            let mut cfg = MetisConfig {
                warm_start,
                ..MetisConfig::with_theta(THETA)
            };
            cfg.maa.lp.basis = backend;
            cfg.taa.lp.basis = backend;
            let run = metis(&inst, &cfg).unwrap();
            assert!(
                (run.evaluation.profit - GOLDEN_PROFIT).abs() <= TOL,
                "{backend:?} warm_start={warm_start}: profit {} != pinned {GOLDEN_PROFIT}",
                run.evaluation.profit
            );
            assert_eq!(
                run.evaluation.accepted, GOLDEN_ACCEPTED,
                "{backend:?} warm_start={warm_start}: accepted count drifted"
            );
        }
    }
}
