//! Inter-datacenter WAN simulation substrate for the Metis reproduction.
//!
//! The paper ("Towards Maximal Service Profit in Geo-Distributed Clouds",
//! ICDCS 2019) models a provider-operated WAN `G(V, E)` whose directed
//! links carry per-unit bandwidth prices and are billed on peak usage per
//! cycle. This crate provides:
//!
//! * [`Topology`] — the priced directed graph, with [`topologies::b4`] and
//!   [`topologies::sub_b4`] matching the paper's evaluation networks;
//! * [`paths`] — Dijkstra + Yen's k-cheapest loopless paths and the
//!   all-pairs [`PathCatalog`] used as the candidate sets `P_i`;
//! * [`LoadMatrix`] — per-(edge, slot) reservation accounting, peak-based
//!   integer charging `c_e`, cost, and utilization statistics.
//!
//! # Examples
//!
//! ```
//! use metis_netsim::{topologies, LoadMatrix, PathCatalog, PathMetric};
//!
//! let topo = topologies::b4();
//! let catalog = PathCatalog::build(&topo, 3, PathMetric::Price);
//! let src = topo.node_ids().next().unwrap();
//! let dst = topo.node_ids().nth(7).unwrap();
//! let path = &catalog.paths(src, dst)[0];
//!
//! let mut load = LoadMatrix::new(topo.num_edges(), 12);
//! for &e in path.edges() {
//!     load.add(e, 0, 3, 0.25); // reserve 2.5 Gbps for slots 0..=3
//! }
//! assert!(load.total_cost(&topo) > 0.0);
//! ```

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "FP-01 polices library code; tests assert exact expected values"
    )
)]

mod graph;
mod load;
pub mod paths;
pub mod topologies;

pub use graph::{Edge, EdgeId, Node, NodeId, Region, Topology, TopologyBuilder};
pub use load::{ceil_units, LoadMatrix, UtilizationStats, CEIL_EPS};
pub use paths::{k_shortest_paths, shortest_path, Path, PathCatalog, PathMetric};

/// One unit of bandwidth in Gbps: ISPs sell bandwidth in fixed units of
/// 10 Gbps in the paper's model.
pub const UNIT_GBPS: f64 = 10.0;

/// Converts a rate in Gbps to bandwidth units.
///
/// # Examples
///
/// ```
/// assert_eq!(metis_netsim::gbps_to_units(5.0), 0.5);
/// ```
pub fn gbps_to_units(gbps: f64) -> f64 {
    gbps / UNIT_GBPS
}

/// Converts bandwidth units to a rate in Gbps.
pub fn units_to_gbps(units: f64) -> f64 {
    units * UNIT_GBPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trip() {
        assert_eq!(units_to_gbps(gbps_to_units(3.7)), 3.7);
        assert_eq!(gbps_to_units(10.0), 1.0);
    }
}
