//! Capacity-constrained admission: make the most of purchased bandwidth.
//!
//! The BL-SPM setting: the provider already purchased a fixed amount of
//! bandwidth per link (here 100 Gbps everywhere, as in Fig. 4c/4d) and
//! must pick which reservations to take. Compares TAA against
//! Amoeba-style first-fit admission as pressure grows.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use metis_suite::baselines::amoeba;
use metis_suite::core::{taa, SpmInstance};
use metis_suite::lp::SolveError;
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, WorkloadConfig};

fn main() -> Result<(), SolveError> {
    let capacity_units = 10.0; // 100 Gbps per link
    println!("capacity: {:.0} Gbps on every link", capacity_units * 10.0);
    println!();
    println!("demand   TAA revenue (accepted)   first-fit revenue (accepted)   TAA gain");
    println!("------  ------------------------  -----------------------------  --------");
    for k in [200usize, 400, 800, 1200] {
        let topo = topologies::b4();
        let requests = generate(&topo, &WorkloadConfig::paper(k, 3));
        let instance = SpmInstance::new(topo, requests, 12, 3);
        let caps = vec![capacity_units; instance.topology().num_edges()];

        let t = taa(&instance, &caps)?;
        t.schedule
            .check_capacities(&instance, &caps)
            .expect("TAA schedules are always feasible");
        let a = amoeba(&instance, &caps).evaluate(&instance);

        println!(
            "{k:>6}  {:>13.2} ({:>4})      {:>15.2} ({:>4})        {:>+7.1}%",
            t.evaluation.revenue,
            t.evaluation.accepted,
            a.revenue,
            a.accepted,
            (t.evaluation.revenue / a.revenue - 1.0) * 100.0,
        );
    }
    println!("\nUnder slack capacity both admit everything; once links bind,");
    println!("TAA's LP-guided selection outperforms arrival-order first-fit.");
    Ok(())
}
