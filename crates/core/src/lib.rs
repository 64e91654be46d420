//! **Metis**: profit-maximizing admission and scheduling of inter-DC
//! transfer requests — the core contribution of *"Towards Maximal Service
//! Profit in Geo-Distributed Clouds"* (ICDCS 2019).
//!
//! A cloud provider leases WAN links at per-unit prices billed on peak
//! usage, receives bandwidth-reservation bids, and may decline requests.
//! Service-profit maximization (SPM: revenue − bandwidth cost) is NP-hard,
//! so Metis alternates two approximable variants:
//!
//! * [`maa`] solves **RL-SPM** (serve a fixed set as cheaply as possible)
//!   by LP relaxation + randomized rounding + integer ceiling;
//! * [`taa`] solves **BL-SPM** (maximize revenue under fixed capacities)
//!   by LP relaxation + Chernoff-scaled probabilities + a derandomized
//!   decision-tree walk;
//! * [`metis`] runs the alternation with a bandwidth [`LimiterRule`] and
//!   keeps the best schedule (the SP Updater).
//!
//! Failures are *contained*, not fatal: solver breakage inside the
//! alternation degrades the run (retry cold, skip the round or epoch,
//! record an [`Incident`]) while malformed instances are rejected up
//! front by the `try_*` constructors with an [`InstanceError`].
//!
//! Each algorithm has one plain entry point; the two runs also have an
//! instrumented one ([`metis_instrumented`], [`online_metis_instrumented`])
//! that injects the deterministic failures of a [`FaultPlan`] and records
//! spans and metrics into a `metis_telemetry::Telemetry` handle. Their
//! [`MetisResult::round_trace`] is the run's one convergence trace.
//!
//! # Quick start
//!
//! ```
//! use metis_core::{metis, MetisConfig, SpmInstance};
//! use metis_netsim::topologies;
//! use metis_workload::{generate, WorkloadConfig};
//!
//! let topo = topologies::b4();
//! let requests = generate(&topo, &WorkloadConfig::paper(50, 1));
//! let instance = SpmInstance::new(topo, requests, 12, 3);
//!
//! let result = metis(&instance, &MetisConfig::with_theta(4))?;
//! println!(
//!     "profit {:.2} with {}/{} requests accepted",
//!     result.evaluation.profit,
//!     result.evaluation.accepted,
//!     instance.num_requests(),
//! );
//! # Ok::<(), metis_core::MetisError>(())
//! ```

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "FP-01 polices library code; tests assert exact expected values"
    )
)]

mod analysis;
pub mod audit;
mod blspm;
pub mod chernoff;
mod error;
mod faults;
mod framework;
mod instance;
mod limiter;
#[cfg(clippy)]
pub mod lint_fixtures;
mod obs;
mod online;
mod parallel;
mod rlspm;
mod schedule;

pub use analysis::{analyze, LinkOutcome, RequestOutcome, ScheduleAnalysis};
pub use audit::{
    audit_capacities, audit_schedule, check_incident_agreement, AuditReport, AuditViolation,
};
pub use blspm::{taa, BlspmRelaxation, BlspmSolver, TaaOptions, TaaResult};
pub use error::{InstanceError, MetisError};
pub use faults::FaultPlan;
pub use framework::{
    metis, metis_instrumented, Incident, MetisConfig, MetisResult, Phase, RoundTrace,
};
pub use instance::{SpmInstance, DEFAULT_PATHS_PER_PAIR};
pub use limiter::LimiterRule;
pub use online::{
    online_metis, online_metis_instrumented, EpochRecord, OnlineOptions, OnlineResult,
};
pub use parallel::ParallelConfig;
pub use rlspm::{maa, round_schedule, MaaOptions, MaaResult, RlspmRelaxation, RlspmSolver};
pub use schedule::{CapacityViolation, Evaluation, Schedule};
