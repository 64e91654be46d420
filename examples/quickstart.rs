//! Quickstart: run Metis end-to-end on Google's B4 topology.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use metis_suite::core::MetisError;
use metis_suite::core::{metis, MetisConfig, SpmInstance};
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, WorkloadConfig};

fn main() -> Result<(), MetisError> {
    // The provider's WAN: 12 data centers, 19 leased bidirectional links.
    let topo = topologies::b4();
    println!(
        "network: {} data centers, {} directed links",
        topo.num_nodes(),
        topo.num_edges()
    );

    // One billing cycle of customer reservation bids (§V-A workload).
    let requests = generate(&topo, &WorkloadConfig::paper(200, 42));
    let instance = SpmInstance::new(topo, requests, 12, 3);
    println!(
        "workload: {} requests bidding {:.1} in total",
        instance.num_requests(),
        instance.total_value()
    );

    // Run the Metis alternation (θ = 8 rounds of MAA / limiter / TAA).
    let result = metis(&instance, &MetisConfig::with_theta(8))?;
    let ev = &result.evaluation;
    println!(
        "metis: accepted {}/{} requests",
        ev.accepted,
        instance.num_requests()
    );
    println!(
        "       revenue {:.2} − bandwidth cost {:.2} = profit {:.2}",
        ev.revenue, ev.cost, ev.profit
    );
    println!(
        "       average link utilization {:.0}% over {} charged links",
        ev.utilization.mean * 100.0,
        ev.utilization.links
    );

    // The convergence trace: how profit evolved over the alternation.
    println!("\nprofit trace (round, solver, profit, accepted, best so far):");
    for t in result.round_trace.iter().filter(|t| t.completed) {
        println!(
            "  {}\t{:?}\t{:>8.2}\t{}\t{:>8.2}",
            t.round, t.phase, t.profit, t.accepted, t.best_profit
        );
    }
    Ok(())
}
