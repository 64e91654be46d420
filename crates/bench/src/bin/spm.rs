//! `spm` — command-line front end for the Metis scheduler.
//!
//! Generates a synthetic billing cycle, runs Metis (and optionally the
//! baselines), and prints the admission decisions as text or JSON.
//!
//! ```sh
//! cargo run --release -p metis-bench --bin spm -- \
//!     --network b4 --requests 200 --seed 7 --theta 8 --compare --json
//! ```

use metis_baselines::{ecoflow, mincost, opt_spm_with_start};
use metis_bench::report::{convergence_table, lp_stats_table, phase_timing_table};
use metis_core::{maa, metis_instrumented, FaultPlan, MaaOptions, MetisConfig, SpmInstance};
use metis_lp::IlpOptions;
use metis_telemetry::{to_prometheus, Telemetry};
use metis_workload::json::{obj, Json};
use metis_workload::{
    FamilySpec, Horizon, RequestId, Scenario, TopologySpec, UniformSpec, ValueModel,
    SCENARIO_VERSION,
};

#[derive(Debug)]
struct Args {
    network: String,
    requests: usize,
    seed: u64,
    theta: usize,
    paths: usize,
    json: bool,
    compare: bool,
    analyze: bool,
    audit: bool,
    opt_seconds: Option<u64>,
    scenario: Option<String>,
    telemetry: Option<String>,
    telemetry_prometheus: Option<String>,
    trace_chrome: Option<String>,
    serve: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            network: "b4".into(),
            requests: 200,
            seed: 1,
            theta: 8,
            paths: 3,
            json: false,
            compare: false,
            analyze: false,
            audit: false,
            opt_seconds: None,
            scenario: None,
            telemetry: None,
            telemetry_prometheus: None,
            trace_chrome: None,
            serve: None,
        }
    }
}

const USAGE: &str = "usage: spm [--network b4|sub-b4] [--requests K] [--seed S] \
[--theta T] [--paths P] [--opt-seconds N] [--compare] [--analyze] [--audit] [--json] [--scenario FILE.json] \
[--telemetry OUT.json] [--telemetry-prometheus OUT.prom] [--trace-chrome OUT.json] [--serve ADDR]\nnetworks: b4, sub-b4, abilene, geant (or a random spec in a scenario file)\n\
--audit certifies every LP solution and re-derives every schedule's load and\naccounting from scratch (always on in debug builds); the report lands in the\noutput (and the exit status: violations fail the run)\n\
--telemetry* flags capture per-phase spans and solver metrics during the run and\nwrite the snapshot to the given file (JSON or Prometheus text format)\n\
--trace-chrome writes the span log as Chrome trace-event JSON (open it in\nui.perfetto.dev or chrome://tracing)\n\
--serve binds an HTTP endpoint (e.g. 127.0.0.1:9184; port 0 picks a free one)\nexposing /metrics, /snapshot.json, and /trace.json, and keeps the process\nalive after the run until interrupted";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("missing value for {name}\n{USAGE}"))
        };
        match flag.as_str() {
            "--network" => args.network = value("--network")?,
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--theta" => {
                args.theta = value("--theta")?
                    .parse()
                    .map_err(|e| format!("--theta: {e}"))?
            }
            "--paths" => {
                args.paths = value("--paths")?
                    .parse()
                    .map_err(|e| format!("--paths: {e}"))?;
                // Same rule as a scenario file's `paths` field.
                if args.paths == 0 {
                    return Err("--paths: must be at least 1".into());
                }
            }
            "--opt-seconds" => {
                args.opt_seconds = Some(
                    value("--opt-seconds")?
                        .parse()
                        .map_err(|e| format!("--opt-seconds: {e}"))?,
                )
            }
            "--json" => args.json = true,
            "--compare" => args.compare = true,
            "--analyze" => args.analyze = true,
            "--audit" => args.audit = true,
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--telemetry-prometheus" => {
                args.telemetry_prometheus = Some(value("--telemetry-prometheus")?)
            }
            "--trace-chrome" => args.trace_chrome = Some(value("--trace-chrome")?),
            "--serve" => args.serve = Some(value("--serve")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

struct DecisionOut {
    request: u32,
    src: String,
    dst: String,
    start: usize,
    end: usize,
    rate_units: f64,
    bid: f64,
    accepted: bool,
    route: Option<Vec<String>>,
}

impl DecisionOut {
    fn to_json(&self) -> Json {
        obj([
            ("request", self.request.into()),
            ("src", self.src.as_str().into()),
            ("dst", self.dst.as_str().into()),
            ("start", self.start.into()),
            ("end", self.end.into()),
            ("rate_units", self.rate_units.into()),
            ("bid", self.bid.into()),
            ("accepted", self.accepted.into()),
            (
                "route",
                match &self.route {
                    Some(nodes) => Json::Arr(nodes.iter().map(|n| n.as_str().into()).collect()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

struct SolverOut {
    name: String,
    profit: f64,
    revenue: f64,
    cost: f64,
    accepted: usize,
}

impl SolverOut {
    fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("profit", self.profit.into()),
            ("revenue", self.revenue.into()),
            ("cost", self.cost.into()),
            ("accepted", self.accepted.into()),
        ])
    }
}

/// Counters over [`metis_core::MetisResult::incidents`]: contained solver
/// failures observed (and survived) during the run.
struct IncidentsOut {
    failed_rounds: usize,
    warm_retries: usize,
}

impl IncidentsOut {
    fn to_json(&self) -> Json {
        obj([
            ("failed_rounds", self.failed_rounds.into()),
            ("warm_retries", self.warm_retries.into()),
        ])
    }
}

/// One run's [`metis_core::AuditReport`], rendered for the output.
struct AuditOut {
    checks: usize,
    violations: Vec<String>,
}

impl AuditOut {
    fn from_report(report: &metis_core::AuditReport) -> AuditOut {
        AuditOut {
            checks: report.checks,
            violations: report.violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    fn to_json(&self) -> Json {
        obj([
            ("checks", self.checks.into()),
            ("clean", self.violations.is_empty().into()),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect()),
            ),
        ])
    }
}

struct Output {
    scenario: String,
    family: String,
    network: String,
    requests: usize,
    seed: u64,
    theta: usize,
    metis: SolverOut,
    incidents: IncidentsOut,
    audit: Option<AuditOut>,
    comparisons: Vec<SolverOut>,
    decisions: Vec<DecisionOut>,
}

impl Output {
    fn to_json(&self) -> Json {
        obj([
            ("scenario", self.scenario.as_str().into()),
            ("family", self.family.as_str().into()),
            ("network", self.network.as_str().into()),
            ("requests", self.requests.into()),
            ("seed", self.seed.into()),
            ("theta", self.theta.into()),
            ("metis", self.metis.to_json()),
            ("incidents", self.incidents.to_json()),
            (
                "audit",
                match &self.audit {
                    Some(a) => a.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "comparisons",
                Json::Arr(self.comparisons.iter().map(SolverOut::to_json).collect()),
            ),
            (
                "decisions",
                Json::Arr(self.decisions.iter().map(DecisionOut::to_json).collect()),
            ),
        ])
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let scenario = match &args.scenario {
        Some(path) => Scenario::load(path).unwrap_or_else(|e| {
            eprintln!("invalid scenario {path}: {e}");
            std::process::exit(2);
        }),
        None => {
            let topology = TopologySpec::parse_name(&args.network).unwrap_or_else(|| {
                eprintln!(
                    "unknown network {} (use b4, sub-b4, abilene, or geant)",
                    args.network
                );
                std::process::exit(2);
            });
            // CLI flags describe the paper's §V-A setup: one 12-slot
            // billing cycle of uniform Poisson demand.
            Scenario {
                version: SCENARIO_VERSION,
                name: "cli".into(),
                description: None,
                topology,
                horizon: Horizon {
                    slots_per_cycle: 12,
                    cycles: 1,
                },
                seed: args.seed,
                theta: args.theta,
                paths: args.paths,
                workload: FamilySpec::Uniform(UniformSpec {
                    num_requests: args.requests,
                    rate_gbps: (0.1, 5.0),
                    value_model: ValueModel::default(),
                }),
            }
        }
    };
    let topo = scenario.build_topology();
    let requests = scenario.generate(&topo);
    let instance = SpmInstance::new(topo, requests, scenario.num_slots(), scenario.paths);

    let want_tele = args.telemetry.is_some()
        || args.telemetry_prometheus.is_some()
        || args.trace_chrome.is_some()
        || args.serve.is_some();
    let tele = if want_tele {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // Bind before the solve so scrapers can watch the run live; the bound
    // address is printed immediately (port 0 resolves to a real port).
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

    let mut config = MetisConfig {
        audit: args.audit,
        ..MetisConfig::with_theta(scenario.theta)
    };
    if want_tele {
        // Per-iteration LP traces are read-only observation: the pivot
        // sequence (and therefore the schedule) is unchanged.
        config.maa.lp.trace = true;
        config.taa.lp.trace = true;
    }
    let mut result = metis_instrumented(&instance, &config, &FaultPlan::none(), &tele)
        .unwrap_or_else(|e| {
            eprintln!("metis failed: {e}");
            std::process::exit(1);
        });

    // With a dedicated registry for this one run, the telemetry counters
    // must agree exactly with the returned incident list — fold that
    // cross-check into the audit report.
    if let (Some(acc), Some(snap)) = (result.audit.as_mut(), tele.snapshot()) {
        acc.merge(metis_core::check_incident_agreement(
            &result.incidents,
            &snap,
        ));
    }

    let solver_out = |name: &str, ev: &metis_core::Evaluation| SolverOut {
        name: name.into(),
        profit: ev.profit,
        revenue: ev.revenue,
        cost: ev.cost,
        accepted: ev.accepted,
    };

    let mut comparisons = Vec::new();
    if args.compare {
        let all = vec![true; instance.num_requests()];
        if let Ok(m) = maa(&instance, &all, &MaaOptions::default()) {
            comparisons.push(solver_out("serve-all (MAA)", &m.evaluation));
        }
        comparisons.push(solver_out(
            "mincost",
            &mincost(&instance).evaluate(&instance),
        ));
        comparisons.push(solver_out(
            "ecoflow",
            &ecoflow(&instance).evaluate(&instance),
        ));
        if let Some(secs) = args.opt_seconds {
            let ilp = IlpOptions {
                time_limit: Some(std::time::Duration::from_secs(secs)),
                ..IlpOptions::default()
            };
            if let Ok(opt) = opt_spm_with_start(&instance, &ilp, &result.schedule) {
                comparisons.push(solver_out(
                    if opt.optimal {
                        "OPT(SPM)"
                    } else {
                        "OPT(SPM) time-limited"
                    },
                    &opt.evaluation,
                ));
            }
        }
    }

    let decisions: Vec<DecisionOut> = instance
        .requests()
        .iter()
        .map(|r| {
            let id: RequestId = r.id;
            let route = result.schedule.path_choice(id).map(|j| {
                instance.paths(id)[j]
                    .nodes()
                    .iter()
                    .map(|n| n.to_string())
                    .collect()
            });
            DecisionOut {
                request: id.0,
                src: r.src.to_string(),
                dst: r.dst.to_string(),
                start: r.start,
                end: r.end,
                rate_units: r.rate,
                bid: r.value,
                accepted: route.is_some(),
                route,
            }
        })
        .collect();

    let out = Output {
        scenario: scenario.name.clone(),
        family: scenario.family().into(),
        network: scenario.topology.label(),
        requests: instance.num_requests(),
        seed: scenario.seed,
        theta: scenario.theta,
        metis: solver_out("metis", &result.evaluation),
        incidents: IncidentsOut {
            failed_rounds: result.failed_rounds(),
            warm_retries: result.warm_retries(),
        },
        audit: result.audit.as_ref().map(AuditOut::from_report),
        comparisons,
        decisions,
    };

    if args.json {
        println!("{}", out.to_json().to_pretty());
    } else {
        println!(
            "{} [{}] on {} | K={} seed={} θ={}",
            out.scenario, out.family, out.network, out.requests, out.seed, out.theta
        );
        println!(
            "metis: profit {:.2} (revenue {:.2} − cost {:.2}), accepted {}/{}",
            out.metis.profit, out.metis.revenue, out.metis.cost, out.metis.accepted, out.requests
        );
        if out.incidents.failed_rounds > 0 || out.incidents.warm_retries > 0 {
            println!(
                "incidents: {} failed round(s), {} warm retry(ies) — run degraded but completed",
                out.incidents.failed_rounds, out.incidents.warm_retries
            );
        }
        if let Some(a) = &out.audit {
            if a.violations.is_empty() {
                println!("audit: clean ({} checks)", a.checks);
            } else {
                println!(
                    "audit: {} of {} checks VIOLATED:",
                    a.violations.len(),
                    a.checks
                );
                for v in &a.violations {
                    println!("  {v}");
                }
            }
        }
        for c in &out.comparisons {
            println!(
                "{:>24}: profit {:>9.2}, accepted {:>5}",
                c.name, c.profit, c.accepted
            );
        }
        let declined = out.decisions.iter().filter(|d| !d.accepted).count();
        println!("declined {declined} bids; rerun with --json for per-bid routes");
    }
    if args.analyze {
        let analysis = metis_core::analyze(&instance, &result.schedule);
        println!(
            "
# schedule analysis
{}",
            analysis.render_text(5)
        );
    }

    if want_tele {
        match tele.snapshot() {
            Some(snap) => {
                let write = |path: &str, body: String| {
                    if let Err(e) = std::fs::write(path, body) {
                        eprintln!("cannot write telemetry to {path}: {e}");
                        std::process::exit(1);
                    }
                };
                if let Some(path) = &args.telemetry {
                    write(path, snap.to_json());
                }
                if let Some(path) = &args.telemetry_prometheus {
                    write(path, to_prometheus(&snap));
                }
                if let Some(path) = &args.trace_chrome {
                    match tele.chrome_trace() {
                        Some(body) => write(path, body),
                        None => eprintln!("no span log captured; {path} not written"),
                    }
                }
                if !args.json {
                    println!("\n{}", phase_timing_table(&snap).render());
                    println!("\n{}", lp_stats_table(&snap).render());
                    println!("\n{}", convergence_table(&result.round_trace).render());
                }
            }
            None => eprintln!(
                "telemetry requested but the `capture` feature is compiled out; \
rebuild metis-telemetry with default features"
            ),
        }
    }

    if let Some(report) = &result.audit {
        if !report.is_clean() {
            eprintln!("audit found {} violation(s)", report.violations.len());
            std::process::exit(1);
        }
    }

    // Keep serving the finished run's metrics until interrupted.
    if let Some(server) = server {
        eprintln!(
            "run complete; still serving http://{}/metrics (Ctrl-C to exit)",
            server.addr()
        );
        loop {
            std::thread::park();
        }
    }
}
