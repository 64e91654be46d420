//! Ablations over the design knobs DESIGN.md calls out: the BW-limiter
//! rule `τ`, the alternation depth `θ`, the candidate-path count, and the
//! MAA rounding repetitions. None of these appear as paper figures; they
//! substantiate the paper's claim that providers can tune `τ` and `θ`
//! "based on their actual needs".

use metis_core::{maa, metis, LimiterRule, MaaOptions, MetisConfig, SpmInstance};
use metis_netsim::topologies;
use metis_workload::{generate, WorkloadConfig};

use crate::report::{f2, f3, mean, Table};
use crate::runner::run_seeds;

/// Options shared by the ablations.
#[derive(Clone, Debug)]
pub struct AblationOptions {
    /// Request count for each run.
    pub k: usize,
    /// Workload seeds.
    pub seeds: Vec<u64>,
}

impl Default for AblationOptions {
    fn default() -> Self {
        AblationOptions {
            k: 400,
            seeds: vec![1, 2, 3],
        }
    }
}

/// Profit under each limiter rule `τ` at a fixed `θ`.
pub fn limiter_rules(options: &AblationOptions) -> Table {
    let mut table = Table::new(
        format!("Ablation — BW-limiter rule τ (B4, K={}, θ=8)", options.k),
        &["rule", "profit", "accepted"],
    );
    for (name, rule) in [
        ("min-utilization (paper)", LimiterRule::MinUtilization),
        ("max-price", LimiterRule::MaxPrice),
        ("uniform-shrink", LimiterRule::UniformShrink),
    ] {
        let rows = run_seeds(&options.seeds, |seed| {
            let instance = b4_instance(options.k, seed);
            let config = MetisConfig {
                theta: 8,
                limiter: rule,
                ..MetisConfig::default()
            };
            let m = metis(&instance, &config).expect("metis");
            (m.evaluation.profit, m.evaluation.accepted as f64)
        });
        table.push_row(vec![
            name.to_string(),
            f2(mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())),
            f2(mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())),
        ]);
    }
    table
}

/// Profit as the alternation depth `θ` grows (convergence claim, §II-C).
pub fn theta_sweep(options: &AblationOptions) -> Table {
    let mut table = Table::new(
        format!("Ablation — alternation depth θ (B4, K={})", options.k),
        &["theta", "profit", "accepted", "rounds run"],
    );
    for theta in [0usize, 1, 2, 4, 8, 16] {
        let rows = run_seeds(&options.seeds, |seed| {
            let instance = b4_instance(options.k, seed);
            let m = metis(&instance, &MetisConfig::with_theta(theta)).expect("metis");
            (
                m.evaluation.profit,
                m.evaluation.accepted as f64,
                m.rounds as f64,
            )
        });
        table.push_row(vec![
            theta.to_string(),
            f2(mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>())),
            f2(mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>())),
            f2(mean(&rows.iter().map(|r| r.2).collect::<Vec<_>>())),
        ]);
    }
    table
}

/// MAA cost as the candidate-path count per pair grows.
pub fn path_count_sweep(options: &AblationOptions) -> Table {
    let mut table = Table::new(
        format!("Ablation — candidate paths per pair (B4, K={})", options.k),
        &["paths", "MAA cost", "LP bound", "cost/LP"],
    );
    for paths in [1usize, 2, 3, 4, 5] {
        let rows = run_seeds(&options.seeds, |seed| {
            let topo = topologies::b4();
            let requests = generate(&topo, &WorkloadConfig::paper(options.k, seed));
            let instance = SpmInstance::new(topo, requests, 12, paths);
            let accepted = vec![true; options.k];
            let m = maa(&instance, &accepted, &MaaOptions::default()).expect("maa");
            (m.evaluation.cost, m.relaxation.cost)
        });
        let cost = mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let lp = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        table.push_row(vec![paths.to_string(), f2(cost), f2(lp), f3(cost / lp)]);
    }
    table
}

/// MAA cost as the best-of-R rounding repetitions grow.
pub fn rounding_repeats_sweep(options: &AblationOptions) -> Table {
    let mut table = Table::new(
        format!("Ablation — MAA rounding repetitions (B4, K={})", options.k),
        &["repeats", "MAA cost", "cost/LP"],
    );
    for repeats in [1usize, 4, 16, 64] {
        let rows = run_seeds(&options.seeds, |seed| {
            let instance = b4_instance(options.k, seed);
            let accepted = vec![true; options.k];
            let m = maa(
                &instance,
                &accepted,
                &MaaOptions {
                    rounding_repeats: repeats,
                    seed,
                },
            )
            .expect("maa");
            (m.evaluation.cost, m.relaxation.cost)
        });
        let cost = mean(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let lp = mean(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        table.push_row(vec![repeats.to_string(), f2(cost), f3(cost / lp)]);
    }
    table
}

fn b4_instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationOptions {
        AblationOptions {
            k: 40,
            seeds: vec![1],
        }
    }

    #[test]
    fn limiter_table_has_three_rules() {
        assert_eq!(limiter_rules(&tiny()).rows.len(), 3);
    }

    #[test]
    fn theta_profit_is_monotone_nondecreasing() {
        let t = theta_sweep(&tiny());
        let profits: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in profits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "SP Updater record cannot regress");
        }
    }

    #[test]
    fn more_paths_never_worsen_lp_bound() {
        let t = path_count_sweep(&tiny());
        let lps: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        for w in lps.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "bigger path sets only relax the LP");
        }
    }
}
