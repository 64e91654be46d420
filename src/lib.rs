//! **metis-suite** — a complete reproduction of *"Towards Maximal Service
//! Profit in Geo-Distributed Clouds"* (ICDCS 2019) in pure Rust.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`lp`] — sparse bounded-variable simplex + branch-and-bound MILP;
//! * [`netsim`] — the inter-DC WAN model (B4 / SUB-B4 topologies, paths,
//!   peak-based billing);
//! * [`workload`] — the synthetic bandwidth-reservation workload of §V-A;
//! * [`core`] — the Metis framework: MAA, TAA, BW limiter, SP updater;
//! * [`baselines`] — MinCost, Amoeba, EcoFlow, and exact MILP optima;
//! * [`telemetry`] — spans, metrics, and snapshot export (see
//!   DESIGN.md §7 "Observability").
//!
//! # Quick start
//!
//! ```
//! use metis_suite::core::{metis, MetisConfig, SpmInstance};
//! use metis_suite::netsim::topologies;
//! use metis_suite::workload::{generate, WorkloadConfig};
//!
//! let topo = topologies::b4();
//! let requests = generate(&topo, &WorkloadConfig::paper(60, 1));
//! let instance = SpmInstance::new(topo, requests, 12, 3);
//! let result = metis(&instance, &MetisConfig::with_theta(4))?;
//! assert!(result.evaluation.profit >= 0.0);
//! # Ok::<(), metis_suite::core::MetisError>(())
//! ```

pub use metis_baselines as baselines;
pub use metis_core as core;
pub use metis_lp as lp;
pub use metis_netsim as netsim;
pub use metis_telemetry as telemetry;
pub use metis_workload as workload;
