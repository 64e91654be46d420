//! Fig. 4 — component-level evaluation of MAA and TAA on B4.
//!
//! * **4a**: service cost of MAA vs MinCost over the request count.
//!   Paper: MinCost up to 21.1% more expensive, gap grows with K. Our
//!   MinCost is reported under both readings of "reserves exclusive
//!   bandwidth": per-window (lower) and whole-cycle (upper); the paper's
//!   number sits between.
//! * **4b**: distribution of cost(randomized rounding) / cost(optimal)
//!   over many rounding repetitions; the paper reports it always < 1.2.
//! * **4c/4d**: service revenue and accepted requests of TAA vs Amoeba
//!   under uniform 100 Gbps (10-unit) links. Paper: TAA up to +50.4%
//!   revenue and +33% accepted.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use metis_baselines::{amoeba, mincost, mincost_exclusive_evaluation, opt_rlspm};
use metis_core::{maa, taa, MaaOptions, RlspmSolver, SpmInstance};
use metis_lp::{IlpOptions, SolveOptions};
use metis_netsim::{topologies, Topology};
use metis_workload::{generate, WorkloadConfig};

use crate::report::{f2, f3, mean, Table};
use crate::runner::run_seeds;

/// Options for the Fig. 4 experiments.
#[derive(Clone, Debug)]
pub struct Fig4Options {
    /// Request counts for the 4a cost sweep.
    pub cost_ks: Vec<usize>,
    /// Request counts for the 4c/4d revenue sweep.
    pub revenue_ks: Vec<usize>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Rounding repetitions for 4b (paper: 1000).
    pub rounding_repeats: usize,
    /// Request count for the (exactly solved) 4b instances.
    pub rounding_k: usize,
    /// Uniform link capacity in units for 4c/4d (paper: 10 = 100 Gbps).
    pub capacity_units: f64,
    /// MAA rounding repetitions in the 4a sweep.
    pub maa_repeats: usize,
}

impl Default for Fig4Options {
    fn default() -> Self {
        Fig4Options {
            cost_ks: vec![100, 200, 400, 600, 800],
            revenue_ks: vec![200, 400, 600, 800, 1000],
            seeds: vec![1, 2, 3],
            rounding_repeats: 1000,
            rounding_k: 15,
            capacity_units: 10.0,
            maa_repeats: 8,
        }
    }
}

/// The tables of Fig. 4.
#[derive(Clone, Debug)]
pub struct Fig4Output {
    /// Fig. 4a: MAA vs MinCost cost.
    pub cost: Table,
    /// Fig. 4b: rounding/optimal cost-ratio distribution.
    pub rounding: Table,
    /// Fig. 4c: TAA vs Amoeba revenue.
    pub revenue: Table,
    /// Fig. 4d: TAA vs Amoeba accepted requests.
    pub accepted: Table,
}

/// Runs all four panels.
pub fn run(options: &Fig4Options) -> Fig4Output {
    Fig4Output {
        cost: run_cost(options),
        rounding: run_rounding(options),
        revenue: run_revenue(options).0,
        accepted: run_revenue(options).1,
    }
}

/// Fig. 4a: serve *all* requests; compare bandwidth cost.
pub fn run_cost(options: &Fig4Options) -> Table {
    let mut table = Table::new(
        "Fig. 4a — service cost on B4, all requests served (mean over seeds)",
        &[
            "K",
            "MAA",
            "LP bound",
            "MinCost(window)",
            "MinCost(cycle)",
            "win/MAA",
            "cyc/MAA",
        ],
    );
    for &k in &options.cost_ks {
        let rows = run_seeds(&options.seeds, |seed| {
            let topo = topologies::b4();
            let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
            let instance = SpmInstance::new(topo, requests, 12, 3);
            let accepted = vec![true; k];
            let m = maa(
                &instance,
                &accepted,
                &MaaOptions {
                    rounding_repeats: options.maa_repeats,
                    seed,
                },
            )
            .expect("maa");
            let mc_win = mincost(&instance).evaluate(&instance).cost;
            let mc_cyc = mincost_exclusive_evaluation(&instance).cost;
            (m.evaluation.cost, m.relaxation.cost, mc_win, mc_cyc)
        });
        let maa_c = mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let lp_c = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let win_c = mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        let cyc_c = mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
        table.push_row(vec![
            k.to_string(),
            f2(maa_c),
            f2(lp_c),
            f2(win_c),
            f2(cyc_c),
            f3(win_c / maa_c),
            f3(cyc_c / maa_c),
        ]);
    }
    table
}

/// Fig. 4b: rounding-cost / optimal-cost distribution on both networks.
pub fn run_rounding(options: &Fig4Options) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 4b — cost(randomized rounding)/cost(optimal), {} repetitions",
            options.rounding_repeats
        ),
        &["network", "seed", "min", "mean", "p95", "max", "optimal?"],
    );
    let nets: Vec<(&str, Topology)> =
        vec![("SUB-B4", topologies::sub_b4()), ("B4", topologies::b4())];
    for (name, topo) in nets {
        for &seed in &options.seeds {
            let requests = generate(&topo, &WorkloadConfig::paper(options.rounding_k, seed));
            let instance = SpmInstance::new(topo.clone(), requests, 12, 2);
            let accepted = vec![true; options.rounding_k];

            // Denominator: the exact OPT(RL-SPM) cost.
            let opt = opt_rlspm(&instance, &IlpOptions::default()).expect("opt_rlspm");
            let denom = opt.evaluation.cost.max(1e-12);

            // Numerators: independent roundings of the shared relaxation.
            let relaxation = RlspmSolver::new(&instance)
                .solve(&accepted, &SolveOptions::default())
                .expect("relaxation");
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut ratios: Vec<f64> = (0..options.rounding_repeats)
                .map(|_| {
                    let schedule =
                        metis_core::round_schedule(&instance, &accepted, &relaxation.x, &mut rng);
                    schedule.load(&instance).total_cost(instance.topology()) / denom
                })
                .collect();
            ratios.sort_by(|a, b| a.total_cmp(b));
            let p95 = ratios[(ratios.len() as f64 * 0.95) as usize - 1];
            table.push_row(vec![
                format!("{name} K={}", options.rounding_k),
                seed.to_string(),
                f3(ratios[0]),
                f3(mean(&ratios)),
                f3(p95),
                f3(*ratios.last().unwrap()),
                opt.optimal.to_string(),
            ]);
        }
    }

    // At evaluation scale the exact MILP is out of reach; use the LP
    // relaxation as the denominator instead. cost/LP ≥ cost/OPT, so these
    // rows over-estimate the true ratio — staying under the paper's 1.2
    // here is the stronger statement.
    for &k in &[100usize, 400] {
        for &seed in options.seeds.iter().take(1) {
            let topo = topologies::b4();
            let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
            let instance = SpmInstance::new(topo, requests, 12, 3);
            let accepted = vec![true; k];
            let relaxation = RlspmSolver::new(&instance)
                .solve(&accepted, &SolveOptions::default())
                .expect("relaxation");
            let denom = relaxation.cost.max(1e-12);
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let reps = options.rounding_repeats.min(200);
            let mut ratios: Vec<f64> = (0..reps)
                .map(|_| {
                    let schedule =
                        metis_core::round_schedule(&instance, &accepted, &relaxation.x, &mut rng);
                    schedule.load(&instance).total_cost(instance.topology()) / denom
                })
                .collect();
            ratios.sort_by(|a, b| a.total_cmp(b));
            let p95 = ratios[(ratios.len() as f64 * 0.95) as usize - 1];
            table.push_row(vec![
                format!("B4 K={k} (vs LP)"),
                seed.to_string(),
                f3(ratios[0]),
                f3(mean(&ratios)),
                f3(p95),
                f3(*ratios.last().unwrap()),
                "lp-bound".to_string(),
            ]);
        }
    }
    table
}

/// Fig. 4c + 4d: TAA vs Amoeba under uniform capacities.
pub fn run_revenue(options: &Fig4Options) -> (Table, Table) {
    let mut revenue = Table::new(
        "Fig. 4c — service revenue on B4, uniform 10-unit links",
        &["K", "TAA", "Amoeba", "TAA/Amoeba", "LP bound"],
    );
    let mut accepted = Table::new(
        "Fig. 4d — accepted requests on B4, uniform 10-unit links",
        &["K", "TAA", "Amoeba", "TAA/Amoeba"],
    );
    for &k in &options.revenue_ks {
        let rows = run_seeds(&options.seeds, |seed| {
            let topo = topologies::b4();
            let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
            let instance = SpmInstance::new(topo, requests, 12, 3);
            let caps = vec![options.capacity_units; instance.topology().num_edges()];
            let t = taa(&instance, &caps).expect("taa");
            let a = amoeba(&instance, &caps).evaluate(&instance);
            (
                t.evaluation.revenue,
                t.evaluation.accepted as f64,
                t.relaxation.revenue,
                a.revenue,
                a.accepted as f64,
            )
        });
        let t_rev = mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let t_acc = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        let lp = mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>());
        let a_rev = mean(&rows.iter().map(|r| r.3).collect::<Vec<_>>());
        let a_acc = mean(&rows.iter().map(|r| r.4).collect::<Vec<_>>());
        revenue.push_row(vec![
            k.to_string(),
            f2(t_rev),
            f2(a_rev),
            f3(t_rev / a_rev),
            f2(lp),
        ]);
        accepted.push_row(vec![k.to_string(), f2(t_acc), f2(a_acc), f3(t_acc / a_acc)]);
    }
    (revenue, accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig4Options {
        Fig4Options {
            cost_ks: vec![40],
            revenue_ks: vec![40],
            seeds: vec![1],
            rounding_repeats: 20,
            rounding_k: 8,
            capacity_units: 10.0,
            maa_repeats: 2,
        }
    }

    #[test]
    fn cost_table_shows_mincost_dominating_maa() {
        let t = run_cost(&tiny());
        let win_ratio: f64 = t.rows[0][5].parse().unwrap();
        let cyc_ratio: f64 = t.rows[0][6].parse().unwrap();
        assert!(
            win_ratio >= 0.95,
            "windowed MinCost ≈≥ MAA, got {win_ratio}"
        );
        assert!(
            cyc_ratio >= win_ratio,
            "cycle reading costs at least windowed"
        );
    }

    #[test]
    fn rounding_ratios_are_at_least_one_ish() {
        let t = run_rounding(&tiny());
        for row in &t.rows {
            let min: f64 = row[2].parse().unwrap();
            assert!(min > 0.8, "rounding can't massively beat the optimum");
        }
    }

    #[test]
    fn revenue_tables_have_consistent_ratios() {
        let (rev, acc) = run_revenue(&tiny());
        let r: f64 = rev.rows[0][3].parse().unwrap();
        assert!(r > 0.5 && r < 2.5);
        assert_eq!(acc.rows.len(), 1);
    }
}
