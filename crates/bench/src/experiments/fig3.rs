//! Fig. 3 — Metis vs the exact optima on SUB-B4.
//!
//! * **3a**: service profit of OPT(SPM), Metis, OPT(RL-SPM) over the
//!   request count. Paper: Metis ≈ 11% below OPT(SPM) and ≈ 32% above
//!   OPT(RL-SPM).
//! * **3b**: number of accepted requests (OPT(RL-SPM) accepts all).
//! * **3c**: min/avg/max link utilization per solution.
//! * **§V-B1 timing**: OPT needs orders of magnitude longer than Metis.
//!
//! The exact solver here is this workspace's branch-and-bound (the paper
//! used Gurobi); runs are time-limited and warm-started, and the report
//! carries the proven bound so cut-short solves are visible.

use std::time::Duration;

use metis_baselines::{opt_rlspm, opt_spm_with_start};
use metis_core::{metis_instrumented, FaultPlan, MetisConfig, SpmInstance};
use metis_lp::IlpOptions;
use metis_netsim::topologies;
use metis_telemetry::{names, Telemetry};
use metis_workload::{generate, WorkloadConfig};

use crate::report::{f2, mean, Table};
use crate::runner::run_seeds;

/// Options for the Fig. 3 experiment.
#[derive(Clone, Debug)]
pub struct Fig3Options {
    /// Request counts (x-axis).
    pub ks: Vec<usize>,
    /// Workload seeds; series are seed means.
    pub seeds: Vec<u64>,
    /// Wall-clock budget per exact MILP solve.
    pub opt_time_limit: Duration,
    /// Metis alternation rounds θ.
    pub theta: usize,
    /// Candidate paths per DC pair.
    pub paths_per_pair: usize,
}

impl Default for Fig3Options {
    fn default() -> Self {
        Fig3Options {
            ks: vec![100, 200, 300, 400],
            seeds: vec![1, 2, 3],
            opt_time_limit: Duration::from_secs(60),
            theta: 8,
            paths_per_pair: 3,
        }
    }
}

/// One (K, seed) measurement.
#[derive(Clone, Debug)]
struct Point {
    metis_profit: f64,
    metis_accepted: f64,
    metis_util: [f64; 3],
    metis_secs: f64,
    opt_profit: f64,
    opt_bound: f64,
    opt_accepted: f64,
    opt_util: [f64; 3],
    opt_secs: f64,
    opt_optimal: bool,
    rl_profit: f64,
    rl_accepted: f64,
    rl_util: [f64; 3],
    rl_secs: f64,
}

/// The four tables of Fig. 3 plus the timing claim.
#[derive(Clone, Debug)]
pub struct Fig3Output {
    /// Fig. 3a: profit series.
    pub profit: Table,
    /// Fig. 3b: accepted-request series.
    pub accepted: Table,
    /// Fig. 3c: utilization series.
    pub utilization: Table,
    /// §V-B1: computing-time series.
    pub timing: Table,
}

/// Runs the Fig. 3 experiment.
pub fn run(options: &Fig3Options) -> Fig3Output {
    let mut profit = Table::new(
        "Fig. 3a — service profit on SUB-B4 (mean over seeds)",
        &[
            "K",
            "OPT(SPM)",
            "OPT(SPM) bound",
            "Metis",
            "OPT(RL-SPM)",
            "Metis/OPT",
            "Metis/RL",
        ],
    );
    let mut accepted = Table::new(
        "Fig. 3b — accepted requests on SUB-B4",
        &["K", "OPT(SPM)", "Metis", "OPT(RL-SPM)"],
    );
    let mut utilization = Table::new(
        "Fig. 3c — link utilization on SUB-B4 (min/avg/max)",
        &["K", "OPT(SPM)", "Metis", "OPT(RL-SPM)"],
    );
    let mut timing = Table::new(
        "§V-B1 — computing time (seconds; OPT runs are capped)",
        &["K", "Metis", "OPT(SPM)", "OPT proven optimal"],
    );

    for &k in &options.ks {
        let points = run_seeds(&options.seeds, |seed| measure(k, seed, options));
        let g = |f: &dyn Fn(&Point) -> f64| mean(&points.iter().map(f).collect::<Vec<_>>());
        let all_optimal = points.iter().all(|p| p.opt_optimal);

        let metis_p = g(&|p| p.metis_profit);
        let opt_p = g(&|p| p.opt_profit);
        let rl_p = g(&|p| p.rl_profit);
        profit.push_row(vec![
            k.to_string(),
            f2(opt_p),
            f2(g(&|p| p.opt_bound)),
            f2(metis_p),
            f2(rl_p),
            f2(if opt_p.abs() > 1e-12 {
                metis_p / opt_p
            } else {
                1.0
            }),
            f2(if rl_p.abs() > 1e-12 {
                metis_p / rl_p
            } else {
                f64::NAN
            }),
        ]);
        accepted.push_row(vec![
            k.to_string(),
            f2(g(&|p| p.opt_accepted)),
            f2(g(&|p| p.metis_accepted)),
            f2(g(&|p| p.rl_accepted)),
        ]);
        let util = |sel: &dyn Fn(&Point) -> [f64; 3]| {
            let cols: Vec<[f64; 3]> = points.iter().map(sel).collect();
            format!(
                "{:.2}/{:.2}/{:.2}",
                mean(&cols.iter().map(|u| u[0]).collect::<Vec<_>>()),
                mean(&cols.iter().map(|u| u[1]).collect::<Vec<_>>()),
                mean(&cols.iter().map(|u| u[2]).collect::<Vec<_>>()),
            )
        };
        utilization.push_row(vec![
            k.to_string(),
            util(&|p| p.opt_util),
            util(&|p| p.metis_util),
            util(&|p| p.rl_util),
        ]);
        timing.push_row(vec![
            k.to_string(),
            format!("{:.3}", g(&|p| p.metis_secs)),
            format!("{:.1}", g(&|p| p.opt_secs + p.rl_secs)),
            all_optimal.to_string(),
        ]);
    }

    Fig3Output {
        profit,
        accepted,
        utilization,
        timing,
    }
}

/// Span wrapping each exact-MILP baseline solve (Metis itself reports
/// under its own [`names::SPAN_METIS`] span).
const SPAN_OPT_SPM: &str = "opt.spm";
const SPAN_OPT_RLSPM: &str = "opt.rlspm";

fn measure(k: usize, seed: u64, options: &Fig3Options) -> Point {
    let topo = topologies::sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    let instance = SpmInstance::new(topo, requests, 12, options.paths_per_pair);

    // All phase timings come from one span collector instead of ad-hoc
    // `Instant` pairs.
    let tele = Telemetry::enabled();
    let m = metis_instrumented(
        &instance,
        &MetisConfig::with_theta(options.theta),
        &FaultPlan::none(),
        &tele,
    )
    .expect("metis");

    let ilp = IlpOptions {
        time_limit: Some(options.opt_time_limit),
        ..IlpOptions::default()
    };
    let opt = {
        let _s = tele.span(SPAN_OPT_SPM);
        opt_spm_with_start(&instance, &ilp, &m.schedule).expect("opt_spm")
    };
    let rl = {
        let _s = tele.span(SPAN_OPT_RLSPM);
        opt_rlspm(&instance, &ilp).expect("opt_rlspm")
    };
    let snap = tele.snapshot();
    let secs = |name: &str| snap.as_ref().map_or(0.0, |s| s.span_secs(name));
    let (metis_secs, opt_secs, rl_secs) = (
        secs(names::SPAN_METIS),
        secs(SPAN_OPT_SPM),
        secs(SPAN_OPT_RLSPM),
    );

    let u = |e: &metis_core::Evaluation| [e.utilization.min, e.utilization.mean, e.utilization.max];
    Point {
        metis_profit: m.evaluation.profit,
        metis_accepted: m.evaluation.accepted as f64,
        metis_util: u(&m.evaluation),
        metis_secs,
        opt_profit: opt.evaluation.profit,
        opt_bound: opt.bound,
        opt_accepted: opt.evaluation.accepted as f64,
        opt_util: u(&opt.evaluation),
        opt_secs,
        opt_optimal: opt.optimal,
        rl_profit: rl.evaluation.revenue - rl.evaluation.cost,
        rl_accepted: rl.evaluation.accepted as f64,
        rl_util: u(&rl.evaluation),
        rl_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_all_tables() {
        let opts = Fig3Options {
            ks: vec![30],
            seeds: vec![1],
            opt_time_limit: Duration::from_secs(2),
            theta: 2,
            paths_per_pair: 2,
        };
        let out = run(&opts);
        assert_eq!(out.profit.rows.len(), 1);
        assert_eq!(out.accepted.rows.len(), 1);
        assert_eq!(out.utilization.rows.len(), 1);
        assert_eq!(out.timing.rows.len(), 1);
        // OPT(SPM) is warm-started with Metis, so its profit column is ≥
        // the Metis column.
        let opt: f64 = out.profit.rows[0][1].parse().unwrap();
        let metis: f64 = out.profit.rows[0][3].parse().unwrap();
        assert!(opt >= metis - 1e-6);
    }
}
