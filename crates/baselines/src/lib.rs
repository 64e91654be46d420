//! Comparison schedulers from the Metis paper's evaluation (§V-A).
//!
//! * [`mincost`] — fixed-rule scheduling: every request on its cheapest
//!   path, nothing declined.
//! * [`amoeba`] — Amoeba (EuroSys'15): online first-fit admission under
//!   fixed capacities.
//! * [`ecoflow`] — EcoFlow (ACM MM'15), adapted as in the paper: greedy
//!   per-request marginal-profit admission.
//! * [`opt_spm`] / [`opt_rlspm`] — exact MILP optima via branch-and-bound
//!   (the paper used Gurobi 7.5.2).
//!
//! All baselines produce [`metis_core::Schedule`]s so they are evaluated
//! under exactly the same peak-charging cost model as Metis.

mod amoeba;
mod ecoflow;
mod mincost;
mod opt;

pub use amoeba::amoeba;
pub use ecoflow::{ecoflow, ecoflow_with, EcoflowCostModel};
pub use mincost::{mincost, mincost_exclusive_evaluation};
pub use opt::{opt_rlspm, opt_spm, opt_spm_with_start, OptOutcome};
