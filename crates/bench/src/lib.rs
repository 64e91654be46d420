//! Experiment harness for the Metis reproduction: one module and one
//! binary per paper figure, plus ablations.
//!
//! Binaries (all support `--quick` for a reduced sweep):
//!
//! * `fig3` — Metis vs OPT(SPM) vs OPT(RL-SPM) on SUB-B4 (Fig. 3a–c and
//!   the §V-B1 timing claim);
//! * `fig4` — MAA vs MinCost cost, rounding-ratio distribution, TAA vs
//!   Amoeba revenue/acceptance on B4 (Fig. 4a–d);
//! * `fig5` — Metis vs EcoFlow profit/acceptance/utilization on B4
//!   (Fig. 5a–c);
//! * `ablation` — limiter-rule, θ, path-count, and rounding sweeps.
//!
//! Each binary prints aligned tables and writes CSVs under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments {
    //! Per-figure experiment drivers.
    pub mod ablation;
    pub mod fig3;
    pub mod fig4;
    pub mod fig5;
    pub mod robustness;
}
pub mod report;
pub mod runner;

/// Directory where the figure binaries drop their CSVs.
pub const RESULTS_DIR: &str = "results";

/// Returns true when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
