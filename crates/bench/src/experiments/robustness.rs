//! Beyond the paper: does the Metis > serve-all > greedy ordering
//! survive on WANs that are not B4?
//!
//! Runs the headline comparison on Abilene (flat NA pricing), the GÉANT
//! model (European, one transatlantic peering), and seeded random WANs
//! with mixed-region pricing.

use metis_baselines::ecoflow;
use metis_core::{maa, metis, MaaOptions, MetisConfig, SpmInstance};
use metis_netsim::{topologies, Topology};
use metis_workload::{generate, WorkloadConfig};

use crate::report::{f2, mean, Table};
use crate::runner::run_seeds;

/// Options for the robustness sweep.
#[derive(Clone, Debug)]
pub struct RobustnessOptions {
    /// Requests per cycle.
    pub k: usize,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Metis alternation rounds.
    pub theta: usize,
}

impl Default for RobustnessOptions {
    fn default() -> Self {
        RobustnessOptions {
            k: 300,
            seeds: vec![1, 2, 3],
            theta: 8,
        }
    }
}

fn networks() -> Vec<(String, Topology)> {
    vec![
        ("B4".into(), topologies::b4()),
        ("SUB-B4".into(), topologies::sub_b4()),
        ("Abilene".into(), topologies::abilene()),
        ("GEANT".into(), topologies::geant()),
        ("random(10,6)".into(), topologies::random_wan(10, 6, 42)),
        ("random(16,10)".into(), topologies::random_wan(16, 10, 43)),
    ]
}

/// One per-seed measurement row: (metis profit, serve-all profit,
/// ecoflow profit, metis accepted).
type SeedRow = (f64, f64, f64, f64);

/// Runs the sweep; one row per network.
pub fn run(options: &RobustnessOptions) -> Table {
    let mut table = Table::new(
        format!(
            "Robustness — Metis vs serve-all vs EcoFlow across WANs (K={}, mean over seeds)",
            options.k
        ),
        &[
            "network",
            "Metis profit",
            "serve-all profit",
            "EcoFlow profit",
            "Metis accepted",
        ],
    );
    for (name, topo) in networks() {
        let rows = run_seeds(&options.seeds, |seed| {
            let requests = generate(&topo, &WorkloadConfig::paper(options.k, seed));
            let instance = SpmInstance::try_with_catalog(
                topo.clone(),
                requests,
                12,
                &metis_netsim::PathCatalog::build(&topo, 3, metis_netsim::PathMetric::Price),
            )
            .expect("generated requests fit the topology");
            let m = metis(&instance, &MetisConfig::with_theta(options.theta)).expect("metis");
            let all = maa(&instance, &vec![true; options.k], &MaaOptions::default()).expect("maa");
            let eco = ecoflow(&instance).evaluate(&instance);
            (
                m.evaluation.profit,
                all.evaluation.revenue - all.evaluation.cost,
                eco.profit,
                m.evaluation.accepted as f64,
            )
        });
        let col = |f: &dyn Fn(&SeedRow) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
        table.push_row(vec![
            name,
            f2(col(&|r| r.0)),
            f2(col(&|r| r.1)),
            f2(col(&|r| r.2)),
            f2(col(&|r| r.3)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metis_dominates_on_every_network() {
        let t = run(&RobustnessOptions {
            k: 60,
            seeds: vec![1],
            theta: 4,
        });
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            let metis_p: f64 = row[1].parse().unwrap();
            let serve_all: f64 = row[2].parse().unwrap();
            assert!(
                metis_p >= serve_all - 1e-6,
                "{}: metis {metis_p} < serve-all {serve_all}",
                row[0]
            );
            assert!(metis_p >= 0.0, "{}: negative metis profit", row[0]);
        }
    }
}
