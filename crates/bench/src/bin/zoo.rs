//! `zoo` — runs every checked-in scenario and prints the per-scenario
//! experiment table.
//!
//! ```sh
//! cargo run --release -p metis-bench --bin zoo            # scenarios/
//! cargo run --release -p metis-bench --bin zoo -- --dir d # another dir
//! ```
//!
//! Every `*.json` under the scenario directory is loaded with the strict
//! schema loader (an invalid file fails the run — the zoo is only useful
//! if every inhabitant is healthy), solved with `metis` under a full
//! audit, and summarized as one table row. The table lands on stdout and
//! as `results/scenario_zoo.csv`. Exit status is non-zero on any invalid
//! scenario, solver failure, or audit violation.

use metis_bench::report::{f2, Table};
use metis_bench::RESULTS_DIR;
use metis_core::{metis_instrumented, FaultPlan, MetisConfig, SpmInstance};
use metis_telemetry::Telemetry;
use metis_workload::Scenario;

struct Args {
    dir: String,
    serve: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        dir: "scenarios".into(),
        serve: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, name: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {name}");
            std::process::exit(2);
        })
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dir" => parsed.dir = value(&mut args, "--dir"),
            "--serve" => parsed.serve = Some(value(&mut args, "--serve")),
            other => {
                eprintln!("unknown flag {other}\nusage: zoo [--dir scenarios] [--serve ADDR]");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let dir = args.dir;

    // One shared registry across every scenario run: scrapers watching
    // the endpoint see the zoo's aggregate counters grow run by run.
    let tele = if args.serve.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let server = args
        .serve
        .as_ref()
        .map(|addr| match tele.serve(addr.as_str()) {
            Ok(s) => {
                println!("serving telemetry on http://{}/metrics", s.addr());
                s
            }
            Err(e) => {
                eprintln!("cannot serve telemetry on {addr}: {e}");
                std::process::exit(1);
            }
        });
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read scenario directory {dir}: {e}");
            std::process::exit(2);
        })
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no scenario files under {dir}");
        std::process::exit(2);
    }

    let mut table = Table::new(
        "Scenario zoo — one audited metis run per checked-in scenario",
        &[
            "scenario",
            "family",
            "network",
            "K",
            "T",
            "θ",
            "profit",
            "revenue",
            "cost",
            "accepted",
            "incidents",
        ],
    );
    let mut failures = 0usize;
    for path in &paths {
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("invalid scenario {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let topo = scenario.build_topology();
        let requests = scenario.generate(&topo);
        let k = requests.len();
        let instance = SpmInstance::new(topo, requests, scenario.num_slots(), scenario.paths);
        let config = MetisConfig {
            audit: true,
            ..MetisConfig::with_theta(scenario.theta)
        };
        let result = match metis_instrumented(&instance, &config, &FaultPlan::none(), &tele) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: metis failed: {e}", scenario.name);
                failures += 1;
                continue;
            }
        };
        if let Some(report) = &result.audit {
            if !report.is_clean() {
                eprintln!(
                    "{}: audit found {} violation(s)",
                    scenario.name,
                    report.violations.len()
                );
                failures += 1;
            }
        }
        table.push_row(vec![
            scenario.name.clone(),
            scenario.family().into(),
            scenario.topology.label(),
            k.to_string(),
            scenario.num_slots().to_string(),
            scenario.theta.to_string(),
            f2(result.evaluation.profit),
            f2(result.evaluation.revenue),
            f2(result.evaluation.cost),
            format!("{}/{k}", result.evaluation.accepted),
            result.incidents.len().to_string(),
        ]);
    }

    println!("{}", table.render());
    if let Err(e) = table.write_csv(RESULTS_DIR, "scenario_zoo.csv") {
        eprintln!("cannot write {RESULTS_DIR}/scenario_zoo.csv: {e}");
    }
    if failures > 0 {
        eprintln!("{failures} scenario(s) failed");
        std::process::exit(1);
    }

    // Keep serving the zoo's aggregate metrics until interrupted.
    if let Some(server) = server {
        eprintln!(
            "zoo complete; still serving http://{}/metrics (Ctrl-C to exit)",
            server.addr()
        );
        loop {
            std::thread::park();
        }
    }
}
