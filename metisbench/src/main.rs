//! `metisbench` — the end-to-end and per-layer benchmark of `metis()` and
//! `online_metis()`.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path metisbench/Cargo.toml -- \
//!     --workload anchor_sub_b4_k400 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run it from the repository root (`zoo_audited` reads `scenarios/`).
//! One process runs one workload as a closed loop on one thread
//! (`ParallelConfig::default()`): a call starts once the previous one has
//! returned and been checked.
//!
//! 1. **Set-up.** The run's seeded instance set is built through the
//!    public `metis_workload` / `SpmInstance` API several times;
//!    `setup_s` is the median build time in calibrated CPU seconds.
//! 2. **Untraced calls.** The instances are solved round-robin with the
//!    plain entry point, each call timed by the thread's CPU clock
//!    (`clock`) and calibrated against a reference pass run just before
//!    it (`calib`), until `--seconds` of wall time have passed and every
//!    instance has been solved once.
//! 3. **Traced calls** (`--trace 1`). Each untraced call is followed by
//!    the same call through the `_instrumented` entry point with a fresh
//!    enabled collector, until `--seconds` have passed; the per-layer
//!    metrics come from the span aggregates and counters it recorded.
//!
//! Every call is re-checked from outside (`check::verify`) and every
//! repeat of an instance must reproduce its schedule, profit bits, rounds
//! and pivots (`check::Fingerprint`). Any failure is counted in `failed`,
//! reported on stderr, and makes the process exit 1 after printing the
//! result. The last line of stdout is the result as one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer
//! metrics under `--trace 1`.

mod calib;
mod check;
mod clock;
mod layers;
mod stats;
mod workloads;

use std::time::Instant;

use metis_telemetry::{names, Snapshot, Telemetry};

use calib::{calibrate, Reference};
use check::Fingerprint;
use clock::{timed, Elapsed};
use layers::{per, LayerSums};
use workloads::{Case, Outcome, Solver, Workload};

const USAGE: &str = "usage: metisbench --workload <anchor_sub_b4_k400|online_b4_warm|zoo_audited> \
                     --seed N [--seconds S] [--trace 0|1]";

/// Set-up runs at least `SETUP_MIN_REPS` times, then again while the
/// builds so far took under `SETUP_BUDGET_S`, up to `SETUP_MAX_REPS`
/// times. `setup_s` is their median, so a first build on a cold heap does
/// not set it. One build's page faults and allocator work vary by ±20%
/// between builds, so the budget buys the median about ten of them.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;

/// Errors printed in full; later ones are only counted.
const MAX_REPORTED_ERRORS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One timed call.
struct Attempt {
    outcome: Outcome,
    time: Elapsed,
    snapshot: Option<Snapshot>,
}

/// Every call's bookkeeping: counts, failures and the determinism guard.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    fingerprints: Vec<Option<Fingerprint>>,
    evaluate_us: Vec<f64>,
}

impl Tally {
    fn new(cases: usize) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            fingerprints: vec![None; cases],
            evaluate_us: Vec::new(),
        }
    }

    fn fail(&mut self, case: &Case, problems: Vec<String>) {
        self.failed += 1;
        for p in problems {
            if self.errors.len() < MAX_REPORTED_ERRORS {
                self.errors.push(format!("{}: {p}", case.label));
            }
        }
    }

    /// Solves case `i` with `solver` under an external stopwatch, then
    /// checks the outcome and folds it into the determinism guard.
    /// `None` when the call returned an error.
    fn attempt(
        &mut self,
        i: usize,
        case: &Case,
        solver: &Solver,
        tele: Option<&Telemetry>,
    ) -> Option<Attempt> {
        self.attempted += 1;
        let (result, time) = timed(|| case.solve(solver, tele));
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                self.fail(case, vec![e]);
                return None;
            }
        };
        let (mut problems, evaluate_us) = check::verify(&case.instance, &outcome);
        self.evaluate_us.push(evaluate_us);
        let mut fp = Fingerprint {
            schedule: outcome.schedule.clone(),
            profit_bits: outcome.evaluation.profit.to_bits(),
            rounds: outcome.rounds,
            pivots: outcome.pivots,
        };
        let snapshot = tele.and_then(Telemetry::snapshot);
        if let Some(snap) = &snapshot {
            // What the program recorded must agree with what it returned.
            let recorded = [
                (
                    snap.counter(names::ROUNDS),
                    &mut fp.rounds,
                    "framework.rounds",
                ),
                (
                    snap.counter(names::LP_SIMPLEX_ITERATIONS),
                    &mut fp.pivots,
                    "lp.pivots",
                ),
            ];
            for (value, slot, what) in recorded {
                match *slot {
                    Some(own) if own != value => problems.push(format!(
                        "{what}: result says {own}, telemetry recorded {value}"
                    )),
                    _ => *slot = Some(value),
                }
            }
        }
        match &mut self.fingerprints[i] {
            Some(stored) => {
                if let Err(e) = stored.merge(fp) {
                    problems.push(format!("determinism: {e}"));
                }
            }
            slot @ None => *slot = Some(fp),
        }
        if !problems.is_empty() {
            self.fail(case, problems);
        }
        Some(Attempt {
            outcome,
            time,
            snapshot,
        })
    }
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !stats::valid_metric_name(m.name)
                || self.metrics[..i].iter().any(|o| o.name == m.name)
            {
                return Err(format!("bad or duplicate metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Share of `alternation.round.profit` points above the point before them
/// (the first against 0). `online_metis` does not return its inner runs'
/// convergence traces, so this series is where its rounds can be counted;
/// an epoch's first round is compared with the previous epoch's record.
fn improving_rounds(snap: &Snapshot) -> (u64, u64) {
    let points = snap
        .series(names::ROUND_PROFIT)
        .map_or(&[][..], |s| &s.points[..]);
    let mut prev = 0.0;
    let mut up = 0;
    for &p in points {
        if p > prev {
            up += 1;
        }
        prev = p;
    }
    (up, points.len() as u64)
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;

    let mut setup_s: Vec<f64> = Vec::new();
    let mut generate_s = Vec::new();
    let mut instance_s = Vec::new();
    let mut cases = Vec::new();
    let mut reference = Reference::new();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set first, so memory holds one set at a time.
        drop(std::mem::take(&mut cases));
        let reference_s = reference.time();
        let (built, time) = timed(|| w.build(args.seed));
        let (built, times) = built?;
        setup_s.push(calibrate(time.cpu, reference_s));
        generate_s.push(times.generate_s);
        instance_s.push(times.instance_s);
        cases = built;
    }

    let mut tally = Tally::new(cases.len());
    // Warm-up: one untimed call lets lazy allocation settle, and is the
    // first repeat the determinism guard compares against.
    tally.attempt(0, &cases[0], &cases[0].solver, None);

    // Untraced runs solve every instance at least once, since `profit`
    // sums over all of them. Traced runs solve each visited instance
    // twice (plain, then instrumented), so every one repeats under the
    // determinism guard.
    let min_calls = if args.trace { 1 } else { cases.len() };
    let mut calls = 0;
    let mut solve_s = Vec::new();
    let mut requests = 0usize;
    let mut layers = LayerSums::default();
    let mut improving = (0u64, 0u64);
    let (mut audited_s, mut unaudited_s) = (0.0, 0.0);
    // metis-lint: allow(DET-02): the benchmark's own deadline; the program never reads it
    let start = Instant::now();
    while calls < min_calls || start.elapsed().as_secs_f64() < args.seconds {
        let i = calls % cases.len();
        let case = &cases[i];
        calls += 1;
        // Traced runs report no end-to-end times, so they skip the pass.
        let reference_s = if args.trace {
            calib::REFERENCE_S
        } else {
            reference.time()
        };
        let Some(plain) = tally.attempt(i, case, &case.solver, None) else {
            continue;
        };
        solve_s.push(calibrate(plain.time.cpu, reference_s));
        requests += case.instance.num_requests();
        if !args.trace {
            continue;
        }
        let tele = Telemetry::enabled();
        if let Some(traced) = tally.attempt(i, case, &case.solver, Some(&tele)) {
            let snap = traced
                .snapshot
                .ok_or("telemetry capture is compiled out; the traced pass needs it")?;
            // The program's spans are wall-clock, so they are compared
            // with the wall time of the same calls.
            let (traced_us, plain_us) = (traced.time.wall * 1e6, plain.time.wall * 1e6);
            if let Err(e) = layers.add(&snap, w.top_span(), traced_us, plain_us) {
                tally.fail(case, vec![format!("layer sums: {e}")]);
            }
            let (up, all) = traced
                .outcome
                .improving
                .unwrap_or_else(|| improving_rounds(&snap));
            improving = (improving.0 + up, improving.1 + all);
        }
        if case.audited() {
            if let Some(bare) = tally.attempt(i, case, &case.without_audit(), None) {
                audited_s += plain.time.cpu;
                unaudited_s += bare.time.cpu;
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();

    if args.trace && layers.calls > 0 && layers.coverage() < 1.0 - layers::COVERAGE_TOLERANCE {
        tally.failed += 1;
        tally.errors.push(format!(
            "layer sums: the {} span covers {:.4} of the stopwatch, below 1 − {}",
            w.top_span(),
            layers.coverage(),
            layers::COVERAGE_TOLERANCE
        ));
    }
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let metrics = if args.trace {
        let n = cases.len() as f64;
        let pivots = layers.counter(names::LP_SIMPLEX_ITERATIONS) as f64;
        let relax_us =
            (layers.span_us(names::SPAN_MAA_RELAX) + layers.span_us(names::SPAN_TAA_RELAX)) as f64;
        // `online` minus the inner `metis` runs: epoch grouping, subset
        // building and the combined evaluations. Zero off `online_b4_warm`.
        let online_self_us = layers
            .span_us(names::SPAN_ONLINE)
            .saturating_sub(layers.span_us(names::SPAN_METIS));
        vec![
            metric("workload.generate_ms", median(&generate_s) * 1e3 / n, "ms"),
            metric("netsim.instance_ms", median(&instance_s) * 1e3 / n, "ms"),
            metric("framework.rounds", layers.per_call(names::ROUNDS), "count"),
            metric(
                "framework.round_ms",
                layers.ms_per_occurrence(names::SPAN_ROUND),
                "ms",
            ),
            metric(
                "framework.self_ms",
                layers.ms_per_call(layers.self_us(names::SPAN_METIS)),
                "ms",
            ),
            metric(
                "framework.round_self_ms",
                layers.ms_per_call(layers.self_us(names::SPAN_ROUND)),
                "ms",
            ),
            metric(
                "framework.improving_frac",
                per(improving.0 as f64, improving.1 as f64),
                "frac",
            ),
            metric(
                "maa.relax_ms",
                layers.span_ms_per_call(names::SPAN_MAA_RELAX),
                "ms",
            ),
            metric(
                "maa.relax_calls",
                layers.count_per_call(names::SPAN_MAA_RELAX),
                "count",
            ),
            metric(
                "maa.rounding_ms",
                layers.span_ms_per_call(names::SPAN_MAA_ROUNDING),
                "ms",
            ),
            metric(
                "taa.relax_ms",
                layers.span_ms_per_call(names::SPAN_TAA_RELAX),
                "ms",
            ),
            metric(
                "taa.relax_calls",
                layers.count_per_call(names::SPAN_TAA_RELAX),
                "count",
            ),
            metric(
                "taa.walk_ms",
                layers.span_ms_per_call(names::SPAN_TAA_WALK),
                "ms",
            ),
            metric(
                "limiter.apply_ms",
                layers.span_ms_per_call(names::SPAN_LIMITER),
                "ms",
            ),
            metric(
                "lp.pivots",
                layers.per_call(names::LP_SIMPLEX_ITERATIONS),
                "count",
            ),
            metric(
                "lp.phase1_pivots",
                layers.per_call(names::LP_SIMPLEX_PHASE1),
                "count",
            ),
            metric(
                "lp.dual_pivots",
                layers.per_call(names::LP_SIMPLEX_DUAL),
                "count",
            ),
            metric(
                "lp.bound_flips",
                layers.per_call(names::LP_SIMPLEX_BOUND_FLIPS),
                "count",
            ),
            metric(
                "lp.refactorizations",
                layers.per_call(names::LP_SIMPLEX_REFRESHES),
                "count",
            ),
            metric(
                "lp.eta_updates",
                layers.per_call(names::LP_LU_ETA_UPDATES),
                "count",
            ),
            metric(
                "lp.warm_solves",
                layers.per_call(names::LP_WARM_BASIS_REUSE),
                "count",
            ),
            metric(
                "lp.cold_solves",
                layers.per_call(names::LP_COLD_SOLVES),
                "count",
            ),
            metric(
                "lp.presolve_removed_rows",
                layers.per_call(names::LP_PRESOLVE_ROWS),
                "count",
            ),
            // Relax spans include building the LP, not only pivoting.
            metric("lp.us_per_pivot", per(relax_us, pivots), "us"),
            metric(
                "online.epoch_ms",
                layers.ms_per_occurrence(names::SPAN_EPOCH),
                "ms",
            ),
            metric("online.self_ms", layers.ms_per_call(online_self_us), "ms"),
            metric(
                "audit.checks",
                layers.per_call(names::AUDIT_CHECKS),
                "count",
            ),
            metric(
                "audit.violations",
                layers.per_call(names::AUDIT_VIOLATIONS),
                "count",
            ),
            metric(
                "audit.overhead_frac",
                per(audited_s - unaudited_s, unaudited_s),
                "frac",
            ),
            metric("schedule.evaluate_us", median(&tally.evaluate_us), "us"),
            metric(
                "telemetry.overhead_frac",
                per(layers.stopwatch_us, layers.untraced_us) - 1.0,
                "frac",
            ),
            metric("trace.coverage_frac", layers.coverage(), "frac"),
        ]
    } else {
        let profit: f64 = tally
            .fingerprints
            .iter()
            .flatten()
            .map(Fingerprint::profit)
            .sum();
        vec![
            metric("solve_cpu_ms_p50", median(&solve_s) * 1e3, "ms"),
            metric(
                "req_per_cpu_s",
                per(requests as f64, solve_s.iter().sum()),
                "1/s",
            ),
            metric("profit", profit, "units"),
            metric(
                "ok_frac",
                1.0 - per(tally.failed as f64, tally.attempted as f64),
                "frac",
            ),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ]
    };

    summarize(
        args, &cases, &tally, &setup_s, &solve_s, measured_s, &layers, &metrics,
    );
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Human-readable account of the run on stderr: the solve-time quartiles,
/// each instance's fingerprint (for comparing runs), the layer shares of a
/// traced run, and every error.
#[allow(clippy::too_many_arguments)]
fn summarize(
    args: &Args,
    cases: &[Case],
    tally: &Tally,
    setup_s: &[f64],
    solve_s: &[f64],
    measured_s: f64,
    layers: &LayerSums,
    metrics: &[Metric],
) {
    let setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    if let Some([q1, q2, q3]) = stats::quartiles(&setup_ms) {
        eprintln!(
            "  set-up calibrated CPU ms over {} builds: p25 {q1:.2}  p50 {q2:.2}  p75 {q3:.2}",
            setup_ms.len()
        );
    }
    let ms: Vec<f64> = solve_s.iter().map(|s| s * 1e3).collect();
    eprintln!(
        "metisbench {} --seed {}: {} instances, {} timed calls in {measured_s:.1} s, \
         {} calls in all ({} failed)",
        args.workload.name(),
        args.seed,
        cases.len(),
        solve_s.len(),
        tally.attempted,
        tally.failed
    );
    if let Some([q1, q2, q3]) = stats::quartiles(&ms) {
        eprintln!(
            "  untraced solve calibrated CPU ms over {} calls: p25 {q1:.2}  p50 {q2:.2}  p75 {q3:.2}",
            ms.len()
        );
    }
    for (case, fp) in cases.iter().zip(&tally.fingerprints) {
        if let Some(fp) = fp {
            let show = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            eprintln!(
                "  instance {:<20} profit {:<22} rounds {:<4} pivots {}",
                case.label,
                fp.profit(),
                show(fp.rounds),
                show(fp.pivots)
            );
        }
    }
    if args.trace && layers.calls > 0 {
        eprintln!(
            "  layer shares of the {} span ({} traced calls, coverage {:.4}):",
            args.workload.top_span(),
            layers.calls,
            layers.coverage()
        );
        for (name, share) in layers.shares() {
            eprintln!("    {name:<24} {:>6.2}%", share * 100.0);
        }
    }
    for m in metrics {
        eprintln!("  {:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &tally.errors {
        eprintln!("  error: {e}");
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("metisbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = run(&args).and_then(|r| Ok((r.to_json()?, r.correct())));
    match report {
        Ok((json, correct)) => {
            println!("{json}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("metisbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args("--workload zoo_audited --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Zoo);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed 1",
            "--workload nope --seed 1",
            "--workload zoo_audited",
            "--workload zoo_audited --seed -1",
            "--workload zoo_audited --seed 1 --trace 2",
            "--workload zoo_audited --seed 1 --seconds 0",
            "--workload zoo_audited --seed 1 --frobnicate 3",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_rejects_bad_names_and_values() {
        let report = |name, value| Report {
            attempted: 1,
            failed: 0,
            metrics: vec![metric(name, value, "ms")],
        };
        assert!(report("solve_cpu_ms_p50", 1.25)
            .to_json()
            .unwrap()
            .contains("\"value\": 1.25"));
        assert!(report("bad name", 1.0).to_json().is_err());
        assert!(report("ok", f64::NAN).to_json().is_err());
    }
}
