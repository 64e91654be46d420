//! Synthetic bandwidth-reservation workloads for the Metis reproduction.
//!
//! Requests are the paper's six-tuples `{s, d, ts, td, r, v}`; the
//! generator follows the evaluation setup of §V-A (Poisson arrivals over a
//! 12-slot cycle, uniform 0.1–5 Gbps rates, route-priced bids) and is
//! fully deterministic per seed.
//!
//! Beyond the paper's setup, the [`scenario`] module defines versioned
//! scenario files (`scenarios/*.json`) with a strict validating loader
//! (the JSON itself is parsed by `metis_telemetry::json`) and four
//! further generator families — population-weighted
//! [geo-locality](GeoLocalitySpec), [diurnal/bursty](DiurnalSpec)
//! arrivals over multi-cycle horizons, strategic-bid
//! [auctions](AuctionSpec), and hose-model [virtual clusters](HoseSpec).
//!
//! # Examples
//!
//! ```
//! use metis_netsim::topologies;
//! use metis_workload::{generate, WorkloadConfig};
//!
//! let topo = topologies::b4();
//! let requests = generate(&topo, &WorkloadConfig::paper(100, 1));
//! let total_bid: f64 = requests.iter().map(|r| r.value).sum();
//! assert!(total_bid > 0.0);
//! ```

mod families;
mod generator;
mod request;
pub mod scenario;

pub use generator::{generate, ValueModel, WorkloadConfig, DEFAULT_SLOTS};
pub use request::{Request, RequestId};
pub use scenario::{
    AuctionSpec, BurstSpec, DiurnalSpec, FamilySpec, GeoLocalitySpec, Horizon, HoseSpec, Scenario,
    ScenarioError, TopologySpec, UniformSpec, MAX_REQUESTS, SCENARIO_VERSION,
};
