//! Empirical checks of the paper's approximation guarantees
//! (Theorems 2, 4, and 6) on exactly-solvable instances.

use metis_suite::baselines::opt_rlspm;
use metis_suite::core::chernoff::{chernoff_bound, chernoff_delta, select_mu};
use metis_suite::core::{maa, taa, BlspmSolver, MaaOptions, SpmInstance};
use metis_suite::lp::{IlpOptions, SolveOptions};
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, WorkloadConfig};

fn sub_b4_instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 2)
}

/// Theorem 2 (ceiling stage): the integral charge is within
/// `(α+1)/α` of the rounded schedule's fractional charge.
#[test]
fn ceiling_ratio_respects_theorem_2() {
    for seed in 0..5 {
        let inst = sub_b4_instance(25, seed);
        let accepted = vec![true; 25];
        let m = maa(&inst, &accepted, &MaaOptions::default()).unwrap();

        let Some(alpha) = m.relaxation.alpha() else {
            continue;
        };
        // Fractional cost of the *rounded* schedule (pre-ceiling): use
        // peak loads directly.
        let load = m.schedule.load(&inst);
        let topo = inst.topology();
        let fractional: f64 = topo.edge_ids().map(|e| topo.price(e) * load.peak(e)).sum();
        let ratio = (alpha + 1.0) / alpha;
        assert!(
            m.evaluation.cost <= ratio * fractional + 1e-6,
            "seed {seed}: ceil cost {} > {ratio} × fractional {fractional}",
            m.evaluation.cost,
        );
    }
}

/// Theorem 4 sanity: MAA's cost stays within a modest constant of the
/// exact optimum on solvable instances (the theorem promises
/// `O((α+1)/α · log|E|/loglog|E|)` w.h.p.; empirically the ratio is
/// far smaller).
#[test]
fn maa_close_to_exact_optimum() {
    let mut worst: f64 = 0.0;
    for seed in 0..5 {
        let inst = sub_b4_instance(12, seed);
        let opt = opt_rlspm(&inst, &IlpOptions::default()).unwrap();
        assert!(opt.optimal);
        let m = maa(
            &inst,
            &[true; 12],
            &MaaOptions {
                seed,
                ..MaaOptions::default()
            },
        )
        .unwrap();
        let ratio = m.evaluation.cost / opt.evaluation.cost;
        assert!(ratio >= 1.0 - 1e-9, "heuristic can't beat the optimum");
        worst = worst.max(ratio);
    }
    // The paper's Fig. 4b observes rounding ratios below 1.2; give slack
    // for the integer ceiling on these tiny instances.
    assert!(
        worst < 2.0,
        "worst MAA/OPT ratio {worst} is implausibly bad"
    );
}

/// Theorem 6: TAA's revenue reaches the `I_B = I_S·(1−D(I_S, 1/(N+1)))`
/// bound (our implementation adds a residual-fill pass, so it can only
/// do better).
#[test]
fn taa_revenue_meets_theorem_6_bound() {
    for seed in 0..5 {
        let topo = topologies::b4();
        let requests = generate(&topo, &WorkloadConfig::paper(100, seed));
        let inst = SpmInstance::new(topo, requests, 12, 3);
        let caps = vec![10.0; inst.topology().num_edges()];
        let t = taa(&inst, &caps).unwrap();
        let Some(mu) = t.mu else {
            panic!("capacity exists, μ must too");
        };

        // Recompute the bound exactly as TAA does.
        let v_scale = inst
            .requests()
            .iter()
            .map(|r| r.value)
            .fold(0.0_f64, f64::max);
        let n = inst.topology().num_edges() as f64;
        let i_s = mu * t.relaxation.revenue / v_scale;
        let gamma = chernoff_delta(i_s, 1.0 / (n + 1.0)).min(1.0);
        let i_b = i_s * (1.0 - gamma) * v_scale;
        assert!(
            t.evaluation.revenue >= i_b - 1e-6,
            "seed {seed}: revenue {} < I_B {}",
            t.evaluation.revenue,
            i_b
        );
    }
}

/// Inequality (6): the chosen μ keeps the per-constraint violation
/// probability below 1/(T(N+1)).
#[test]
fn mu_selection_satisfies_inequality_6() {
    for &(c, t, n) in &[(10.0, 12usize, 38usize), (2.0, 12, 14), (40.0, 6, 38)] {
        let mu = select_mu(c, t, n).unwrap();
        let bound = chernoff_bound(mu * c, (1.0 - mu) / mu);
        assert!(
            bound < 1.0 / (t as f64 * (n as f64 + 1.0)),
            "B({}, {}) = {bound} too large",
            mu * c,
            (1.0 - mu) / mu
        );
    }
}

/// The BL-SPM relaxation never claims more revenue than the sum of bids,
/// and its solution satisfies the capacity rows fractionally.
#[test]
fn blspm_relaxation_is_internally_consistent() {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(60, 11));
    let inst = SpmInstance::new(topo, requests, 12, 3);
    let caps = vec![3.0; inst.topology().num_edges()];
    let rel = BlspmSolver::new(&inst)
        .solve(&caps, &SolveOptions::default())
        .unwrap();
    assert!(rel.revenue <= inst.total_value() + 1e-6);

    // Fractional load per (edge, slot) within capacity.
    let slots = inst.num_slots();
    let mut load = vec![0.0; inst.topology().num_edges() * slots];
    for (i, (r, paths)) in inst.iter().enumerate() {
        for (j, path) in paths.iter().enumerate() {
            for &e in path.edges() {
                for t in r.start..=r.end {
                    load[e.index() * slots + t] += r.rate * rel.x[i][j];
                }
            }
        }
    }
    for (cell, &l) in load.iter().enumerate() {
        let e = cell / slots;
        assert!(l <= caps[e] + 1e-6, "cell {cell}: fractional load {l}");
    }
}

/// Randomized rounding satisfies the demand constraint: every accepted
/// request ends up on exactly one path, matching `Σ_j x̂ = 1`.
#[test]
fn rounding_respects_demand_rows() {
    use metis_suite::core::{round_schedule, RlspmSolver};
    use rand_chacha::rand_core::SeedableRng;

    let inst = sub_b4_instance(30, 13);
    let accepted = vec![true; 30];
    let rel = RlspmSolver::new(&inst)
        .solve(&accepted, &SolveOptions::default())
        .unwrap();
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(5);
    for _ in 0..50 {
        let s = round_schedule(&inst, &accepted, &rel.x, &mut rng);
        assert_eq!(s.num_accepted(), 30, "rounding must keep all demands");
    }
}
