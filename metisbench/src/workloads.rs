//! The three workloads: how each builds its seeded instances through the
//! public API, and which top-level call it times.

use std::path::{Path, PathBuf};

use metis_core::{
    metis, metis_instrumented, online_metis, online_metis_instrumented, AuditReport, Evaluation,
    FaultPlan, MetisConfig, OnlineOptions, ParallelConfig, Schedule, SpmInstance,
};
use metis_netsim::{topologies, Topology};
use metis_telemetry::{names, Telemetry};
use metis_workload::{generate, Request, Scenario, WorkloadConfig};

/// Where `zoo_audited` finds its scenarios, relative to the checkout root
/// the benchmark runs from.
const SCENARIO_DIR: &str = "scenarios";

/// `MetisConfig::with_theta(theta)` on one thread, so the thread CPU clock
/// the benchmark reads sees all of a call's work.
fn one_thread(theta: usize) -> MetisConfig {
    MetisConfig {
        parallel: ParallelConfig {
            threads: 1,
            ..ParallelConfig::default()
        },
        ..MetisConfig::with_theta(theta)
    }
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §V-B1 timing claim: cold `metis` on SUB-B4, K = 400,
    /// θ = 8. The cold primal-simplex workload, with phase-1 pivots.
    Anchor,
    /// `online_metis` on B4, K = 400, 4 epochs, θ = 8, warm start: the
    /// only workload where the LP reoptimizes from a prior basis.
    OnlineWarm,
    /// Every checked-in scenario solved as the `zoo` binary does (audit
    /// on, scenario θ): small LPs on five generator families, and the
    /// only workload where the LP certificates and solution audits run.
    Zoo,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Anchor, Workload::OnlineWarm, Workload::Zoo];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Anchor => "anchor_sub_b4_k400",
            Workload::OnlineWarm => "online_b4_warm",
            Workload::Zoo => "zoo_audited",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct instance seeds per run. Each run solves a fixed set of
    /// instances, so the spread between runs with different `--seed`s
    /// comes from how much instances differ, divided by the square root
    /// of this count. Sized so one untraced pass takes about 15 s of
    /// calibrated CPU time (`calib`).
    fn seeds_per_run(self) -> u64 {
        match self {
            Workload::Anchor => 60,
            Workload::OnlineWarm => 240,
            Workload::Zoo => 128,
        }
    }

    /// The instance seeds of `--seed n`: a block of consecutive seeds, so
    /// runs with different `n` never share an instance.
    pub fn instance_seeds(self, n: u64) -> Vec<u64> {
        let per = self.seeds_per_run();
        (0..per)
            .map(|i| n.wrapping_mul(per).wrapping_add(i))
            .collect()
    }

    /// The top-level span the workload's call opens.
    pub fn top_span(self) -> &'static str {
        match self {
            Workload::OnlineWarm => names::SPAN_ONLINE,
            Workload::Anchor | Workload::Zoo => names::SPAN_METIS,
        }
    }

    /// Builds every instance of `--seed n`, timing the generator and the
    /// instance constructor (Yen's paths and validation) separately.
    pub fn build(self, n: u64) -> Result<(Vec<Case>, BuildTimes), String> {
        let mut times = BuildTimes::default();
        let mut cases = Vec::new();
        match self {
            Workload::Anchor | Workload::OnlineWarm => {
                for seed in self.instance_seeds(n) {
                    let (topo, solver) = if self == Workload::Anchor {
                        (topologies::sub_b4(), Solver::Metis(one_thread(8)))
                    } else {
                        let options = OnlineOptions {
                            epochs: 4,
                            metis: MetisConfig {
                                warm_start: true,
                                ..one_thread(8)
                            },
                        };
                        (topologies::b4(), Solver::Online(options))
                    };
                    let requests =
                        times.generate(|| generate(&topo, &WorkloadConfig::paper(400, seed)));
                    let instance = times.instance(topo, requests, 12, 3)?;
                    cases.push(Case {
                        label: format!("seed{seed}"),
                        instance,
                        solver,
                    });
                }
            }
            Workload::Zoo => {
                let paths = scenario_files(Path::new(SCENARIO_DIR))?;
                for offset in self.instance_seeds(n) {
                    for path in &paths {
                        let mut scenario = Scenario::load(path)
                            .map_err(|e| format!("invalid scenario {}: {e}", path.display()))?;
                        scenario.seed = scenario.seed.wrapping_add(offset);
                        let topo = scenario.build_topology();
                        let requests = times.generate(|| scenario.generate(&topo));
                        let instance =
                            times.instance(topo, requests, scenario.num_slots(), scenario.paths)?;
                        cases.push(Case {
                            label: format!("{}+{offset}", scenario.name),
                            instance,
                            solver: Solver::Metis(MetisConfig {
                                audit: true,
                                ..one_thread(scenario.theta)
                            }),
                        });
                    }
                }
            }
        }
        Ok((cases, times))
    }
}

/// The `*.json` files of `dir`, sorted, or an error when there are none.
fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read scenario directory {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no scenario files under {}", dir.display()));
    }
    Ok(paths)
}

/// CPU seconds spent in each set-up stage while building one instance set.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    /// Request generation.
    pub generate_s: f64,
    /// `SpmInstance::try_new`: path enumeration and validation.
    pub instance_s: f64,
}

impl BuildTimes {
    fn generate(&mut self, f: impl FnOnce() -> Vec<Request>) -> Vec<Request> {
        let (requests, time) = crate::clock::timed(f);
        self.generate_s += time.cpu;
        requests
    }

    fn instance(
        &mut self,
        topo: Topology,
        requests: Vec<Request>,
        slots: usize,
        paths: usize,
    ) -> Result<SpmInstance, String> {
        let (instance, time) =
            crate::clock::timed(|| SpmInstance::try_new(topo, requests, slots, paths));
        self.instance_s += time.cpu;
        instance.map_err(|e| format!("instance build failed: {e}"))
    }
}

/// Which top-level call solves a case.
#[derive(Clone, Copy, Debug)]
pub enum Solver {
    /// `metis()`.
    Metis(MetisConfig),
    /// `online_metis()`.
    Online(OnlineOptions),
}

/// One seeded instance and the call that solves it.
pub struct Case {
    /// Stable name used in error and determinism reports.
    pub label: String,
    /// The instance.
    pub instance: SpmInstance,
    /// The call.
    pub solver: Solver,
}

/// What a call returned, reduced to what the checks read.
pub struct Outcome {
    /// The returned schedule.
    pub schedule: Schedule,
    /// The evaluation the call reported for it.
    pub evaluation: Evaluation,
    /// Contained failures, rendered.
    pub incidents: Vec<String>,
    /// The call's own audit report, when it audited.
    pub audit: Option<AuditReport>,
    /// Alternation rounds including the initialization round, when the
    /// result carries them (offline `metis` only).
    pub rounds: Option<u64>,
    /// LP pivots over every relaxation, when the result carries them.
    pub pivots: Option<u64>,
    /// Convergence-trace entries that raised the best profit, and all
    /// entries (offline `metis` only).
    pub improving: Option<(u64, u64)>,
}

impl Case {
    /// Whether the call audits itself.
    pub fn audited(&self) -> bool {
        matches!(self.solver, Solver::Metis(c) if c.audit)
    }

    /// The same case with the call's own audit switched off.
    pub fn without_audit(&self) -> Solver {
        match self.solver {
            Solver::Metis(c) => Solver::Metis(MetisConfig { audit: false, ..c }),
            s @ Solver::Online(_) => s,
        }
    }

    /// Runs `solver` on the case's instance: through the plain entry
    /// point when `tele` is `None`, through the instrumented one
    /// otherwise.
    pub fn solve(&self, solver: &Solver, tele: Option<&Telemetry>) -> Result<Outcome, String> {
        let inst = std::hint::black_box(&self.instance);
        let none = FaultPlan::none();
        match solver {
            Solver::Metis(cfg) => {
                let r = match tele {
                    None => metis(inst, cfg),
                    Some(t) => metis_instrumented(inst, cfg, &none, t),
                }
                .map_err(|e| format!("metis failed: {e}"))?;
                let mut best = 0.0;
                let mut improving = 0;
                for t in &r.round_trace {
                    if t.best_profit > best {
                        improving += 1;
                        best = t.best_profit;
                    }
                }
                Ok(Outcome {
                    rounds: Some(r.rounds as u64 + 1),
                    pivots: Some(r.round_trace.iter().map(|t| t.lp_iterations as u64).sum()),
                    improving: Some((improving, r.round_trace.len() as u64)),
                    incidents: r.incidents.iter().map(ToString::to_string).collect(),
                    schedule: r.schedule,
                    evaluation: r.evaluation,
                    audit: r.audit,
                })
            }
            Solver::Online(opts) => {
                let r = match tele {
                    None => online_metis(inst, opts),
                    Some(t) => online_metis_instrumented(inst, opts, &none, t),
                }
                .map_err(|e| format!("online_metis failed: {e}"))?;
                Ok(Outcome {
                    rounds: None,
                    pivots: None,
                    improving: None,
                    incidents: r.incidents.iter().map(ToString::to_string).collect(),
                    schedule: r.schedule,
                    evaluation: r.evaluation,
                    audit: r.audit,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_seed_blocks_are_disjoint() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let a = w.instance_seeds(1);
            let b = w.instance_seeds(2);
            assert_eq!(a.len() as u64, w.seeds_per_run());
            assert!(a.iter().all(|s| !b.contains(s)), "{}", w.name());
            assert_eq!(a, w.instance_seeds(1));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
