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
//!
//! Below the fixture, the LP engine alone is pinned the same way: pivot
//! counts and objective bits of two synthetic LP families. The two
//! larger instances run only in release builds (`cargo test --release
//! --test golden`), as does one instance of the paper's timing workload
//! (SUB-B4, K = 400, θ = 8), pinned by its profit bits and pivot total,
//! and one call of the warm online workload (B4, K = 400, four epochs),
//! pinned by its profit bits, accepted count and LP work counters.

use metis_suite::core::{
    metis, online_metis, online_metis_instrumented, FaultPlan, MetisConfig, OnlineOptions,
    ParallelConfig, SpmInstance,
};
use metis_suite::lp::{Problem, Relation, Sense, SolveOptions, VarId};
use metis_suite::netsim::topologies;
use metis_suite::telemetry::{names, Telemetry};
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

/// One instance of the paper's §V-B1 timing workload: cold `metis` on
/// SUB-B4 with K = 400 requests of the paper's workload (seed 60) and
/// θ = 8. Pins the profit's bits (158.56344829425637) and the pivots
/// summed over every relaxation, so a speed change to the LP that moves
/// a single pivot or bit of this workload fails here.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn golden_sub_b4_k400_theta8() {
    let topo = topologies::sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(400, 60));
    let inst = SpmInstance::new(topo, requests, 12, 3);
    let run = metis(&inst, &MetisConfig::with_theta(8)).unwrap();
    let pivots: usize = run.round_trace.iter().map(|t| t.lp_iterations).sum();
    assert_eq!(
        (run.evaluation.profit.to_bits(), pivots),
        (0x4063_d207_c4b7_9a2e, 4327),
        "(profit bits, pivots) moved; profit {}",
        run.evaluation.profit
    );
}

/// One call of the warm online workload the benchmark times
/// (`online_b4_warm`): `online_metis` over four epochs on B4 with K = 400
/// requests of the paper's workload (seed 241; seed 240's profit is 0)
/// and θ = 8, every re-solve warm-started. Pins the profit's bits
/// (37.213454825508734), the accepted count, and the simplex iterations,
/// dual-simplex iterations and refactorizations summed over every
/// relaxation, so a change that only makes warm re-solves cheaper must
/// leave every pivot and refactorization of this call where it was.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn golden_online_b4_k400_warm() {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(400, 241));
    let inst = SpmInstance::new(topo, requests, 12, 3);
    let options = OnlineOptions {
        epochs: 4,
        metis: MetisConfig {
            warm_start: true,
            parallel: ParallelConfig { threads: 1 },
            ..MetisConfig::with_theta(8)
        },
    };
    let tele = Telemetry::enabled();
    let run = online_metis_instrumented(&inst, &options, &FaultPlan::none(), &tele).unwrap();
    let snapshot = tele.snapshot().unwrap();
    let counters = [
        names::LP_SIMPLEX_ITERATIONS,
        names::LP_SIMPLEX_DUAL,
        names::LP_SIMPLEX_REFRESHES,
    ]
    .map(|name| snapshot.counter(name));
    assert_eq!(
        (
            run.evaluation.profit.to_bits(),
            run.evaluation.accepted,
            counters
        ),
        (0x4042_9b52_7cdb_5de0, 92, [818, 345, 46]),
        "(profit bits, accepted, [iterations, dual iterations, refactorizations]) moved; profit {}",
        run.evaluation.profit
    );
}

// --- LP pivot fingerprints -------------------------------------------
//
// Two synthetic LP families, each solved with certificates on. The
// pivot counts and the objective's bits are deterministic on any
// hardware, so any change to them means the simplex's pivot sequence
// changed: update the table deliberately when that is intended, and say
// so in the commit message. The transportation family starts infeasible
// at the slack basis (most of its pivots are phase 1); the packing
// family is feasible at the origin (no phase 1).

/// A dense-ish transportation-style LP with `n` supplies and `n`
/// demands (`m = 2n` rows).
fn transportation_lp(n: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let mut vars = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let cost = 1.0 + ((i * 7 + j * 13) % 17) as f64;
            vars.push(p.add_var(cost, 0.0, f64::INFINITY));
        }
    }
    for i in 0..n {
        p.add_constraint(
            (0..n).map(|j| (vars[i * n + j], 1.0)),
            Relation::Le,
            10.0 + (i % 3) as f64,
        );
    }
    for j in 0..n {
        p.add_constraint(
            (0..n).map(|i| (vars[i * n + j], 1.0)),
            Relation::Ge,
            5.0 + (j % 4) as f64,
        );
    }
    p
}

/// A genuinely sparse packing LP with `m` rows and `2m` variables,
/// 4–7 nonzeros per row. Even-indexed variables carry negative costs
/// and unbounded uppers; each anchors exactly one `≤` row (positive
/// coefficients, finite rhs), so the LP is feasible at the origin (the
/// slack basis starts phase 2 directly — no artificials at any size)
/// and bounded (every profitable column is capped by its anchor row).
/// Deterministic via a seeded LCG, same generator family as the
/// proptest suite.
fn sparse_packing_lp(m: usize, seed: u64) -> Problem {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let n = 2 * m;
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if j % 2 == 0 {
                // Profitable, capped only through the rows.
                p.add_var(-(1.0 + (j / 2 % 5) as f64 * 0.5), 0.0, f64::INFINITY)
            } else {
                p.add_var(1.0 + (j % 23) as f64 * 0.25, 0.0, 50.0)
            }
        })
        .collect();
    for i in 0..m {
        let k = 3 + next() % 4; // 3..=6 extra nonzeros
        let mut terms: Vec<(VarId, f64)> = Vec::with_capacity(k + 1);
        // Anchor row i on profitable variable 2i: every row is nonempty
        // and every unbounded column is capped by at least one row.
        terms.push((vars[(2 * i) % n], 1.0 + (i % 5) as f64 * 0.5));
        for _ in 0..k {
            let j = next() % n;
            if terms.iter().all(|&(v, _)| v != vars[j]) {
                terms.push((vars[j], 0.5 + (next() % 8) as f64 * 0.5));
            }
        }
        p.add_constraint(terms, Relation::Le, 20.0 + (i % 11) as f64);
    }
    p
}

/// The pinned outcome on one instance: total simplex iterations,
/// phase-1 iterations, and the objective's bit pattern.
type Fingerprint = (usize, usize, u64);

/// Solves `p` certificate-verified and asserts its counts and objective
/// bits exactly.
fn assert_fingerprint(name: &str, p: &Problem, pinned: Fingerprint) {
    let s = p
        .solve_with(&SolveOptions { verify: true })
        .unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let st = s.stats();
    assert_eq!(
        (st.iterations, st.phase1_iterations, s.objective().to_bits()),
        pinned,
        "{name}: (iterations, phase1, objective bits) moved; objective {}",
        s.objective()
    );
}

#[test]
fn lp_fingerprint_transportation_m100() {
    // Objective 323.
    const OBJ: u64 = 0x4074_3000_0000_0000;
    assert_fingerprint(
        "transportation_lp(50)",
        &transportation_lp(50),
        (932, 781, OBJ),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn lp_fingerprint_transportation_m300() {
    // Objective 973.
    const OBJ: u64 = 0x408e_6800_0000_0000;
    assert_fingerprint(
        "transportation_lp(150)",
        &transportation_lp(150),
        (7377, 6772, OBJ),
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn lp_fingerprint_sparse_packing_m1000() {
    assert_fingerprint(
        "sparse_packing_lp(1000, 0x5eed)",
        &sparse_packing_lp(1000, 0x5eed),
        (1673, 0, 0xc0c0_c2ac_a7e7_6eb1),
    );
}
