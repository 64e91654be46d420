//! LP engine A/B benchmark: the sparse LU engine against the dense
//! reference.
//!
//! Solves deterministic LPs of growing size under both basis backends,
//! certificate-verifying every solve:
//!
//! * `dense`     — dense explicit-inverse backend (the reference; only
//!   run for m ≤ 1000, where it is tractable);
//! * `sparse_lu` — sparse LU backend with product-form updates, the
//!   solver's one engine.
//!
//! Both use the same Dantzig pricing and textbook ratio test, so they
//! follow the same pivot sequence up to rounding and the per-pivot
//! ratio isolates the factorization.
//!
//! Row counts are `m ∈ {100, 300, 1000, 5000, 20000}` (`--quick`:
//! `{100, 300}`): transportation-style LPs up to m = 300, a seeded
//! sparse packing family above. Results go to stdout as an aligned
//! table and to `BENCH_lp.json` (override with `--out PATH`) as
//! canonical JSON for CI trend tracking; the emitted document records
//! the size list actually run.
//!
//! The configurations run interleaved, one solve of each per trial, and
//! each size records `pivot_ratio`: the median over its trials of the
//! per-trial ratio of `sparse_lu` to `dense` time per pivot. Drift in
//! machine speed hits both solves of a trial alike, so the ratio is
//! hardware-independent and steady from run to run.
//!
//! `--trend-check BASELINE.json` additionally compares this run against
//! a committed baseline at every overlapping size. It exits nonzero when
//! a `pivot_ratio` regressed by more than 30%, or when a configuration's
//! `iterations`, `phase1_iterations` or `objective` differs at all.
//! Those three are deterministic on any hardware, so any difference
//! means the pivot sequence changed.
//!
//! Usage: `bench_lp [--quick] [--out PATH] [--trend-check BASELINE]
//! [--sizes M1,M2,...]` (the last overrides the ladder, for probing
//! a single size). A malformed `--sizes` prints the usage line and
//! exits 2.

use std::time::Instant;

use metis_lp::{BasisBackend, Problem, Relation, Sense, SolveOptions};
use metis_workload::json::{obj, Json};

const USAGE: &str =
    "usage: bench_lp [--quick] [--out PATH] [--trend-check BASELINE] [--sizes M1,M2,...]";

/// Full and `--quick` row-count ladders. The committed `BENCH_lp.json`
/// is produced by the full ladder; CI's quick leg runs the prefix.
const SIZES_FULL: &[usize] = &[100, 300, 1000, 5000, 20000];
const SIZES_QUICK: &[usize] = &[100, 300];

/// Largest row count at which the dense reference configuration runs
/// (O(m²) per pivot makes it hopeless beyond this).
const DENSE_MAX_M: usize = 1000;

/// A dense-ish transportation-style LP with `n` supplies and `n`
/// demands (`m = 2n` rows).
fn transportation_lp(n: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let mut vars = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let cost = 1.0 + ((i * 7 + j * 13) % 17) as f64;
            vars.push(p.add_var(cost, 0.0, f64::INFINITY));
        }
    }
    for i in 0..n {
        p.add_constraint(
            (0..n).map(|j| (vars[i * n + j], 1.0)),
            Relation::Le,
            10.0 + (i % 3) as f64,
        );
    }
    for j in 0..n {
        p.add_constraint(
            (0..n).map(|i| (vars[i * n + j], 1.0)),
            Relation::Ge,
            5.0 + (j % 4) as f64,
        );
    }
    p
}

/// A genuinely sparse packing LP with `m` rows and `2m` variables,
/// 4–7 nonzeros per row. Even-indexed variables carry negative costs
/// and unbounded uppers; each anchors exactly one `≤` row (positive
/// coefficients, finite rhs), so the LP is feasible at the origin (the
/// slack basis starts phase 2 directly — no artificials at any size)
/// and bounded (every profitable column is capped by its anchor row).
/// Deterministic via a seeded LCG, same generator family as the
/// proptest suite.
fn sparse_packing_lp(m: usize, seed: u64) -> Problem {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let n = 2 * m;
    let mut p = Problem::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if j % 2 == 0 {
                // Profitable, capped only through the rows.
                p.add_var(-(1.0 + (j / 2 % 5) as f64 * 0.5), 0.0, f64::INFINITY)
            } else {
                p.add_var(1.0 + (j % 23) as f64 * 0.25, 0.0, 50.0)
            }
        })
        .collect();
    for i in 0..m {
        let k = 3 + next() % 4; // 3..=6 extra nonzeros
        let mut terms: Vec<(metis_lp::VarId, f64)> = Vec::with_capacity(k + 1);
        // Anchor row i on profitable variable 2i: every row is nonempty
        // and every unbounded column is capped by at least one row.
        terms.push((vars[(2 * i) % n], 1.0 + (i % 5) as f64 * 0.5));
        for _ in 0..k {
            let j = next() % n;
            if terms.iter().all(|&(v, _)| v != vars[j]) {
                terms.push((vars[j], 0.5 + (next() % 8) as f64 * 0.5));
            }
        }
        p.add_constraint(terms, Relation::Le, 20.0 + (i % 11) as f64);
    }
    p
}

/// One engine configuration under test.
struct Config {
    key: &'static str,
    opts: SolveOptions,
}

fn configs() -> Vec<Config> {
    let base = SolveOptions {
        // Independent certification: recomputed residuals, bounds, and
        // objective must match or the solve errors out.
        verify: true,
        ..SolveOptions::default()
    };
    vec![
        Config {
            key: "dense",
            opts: SolveOptions {
                basis: BasisBackend::Dense,
                ..base
            },
        },
        Config {
            key: "sparse_lu",
            opts: SolveOptions {
                basis: BasisBackend::SparseLu,
                ..base
            },
        },
    ]
}

struct Measured {
    median_solve_ns: u128,
    median_pivot_ns: u128,
    objective: f64,
    iterations: usize,
    phase1_iterations: usize,
    dual_iterations: usize,
    bound_flips: usize,
    refactorizations: usize,
    eta_updates: usize,
    lu_l_nnz: usize,
    lu_u_nnz: usize,
}

/// Solves `p` under every configuration, `trials` times each, running
/// the configurations in turn within each trial. Returns one measurement
/// per configuration plus the per-trial solve times.
fn measure(p: &Problem, configs: &[Config], trials: usize) -> (Vec<Measured>, Vec<Vec<u128>>) {
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(trials); configs.len()];
    let mut last = vec![None; configs.len()];
    for _ in 0..trials {
        for (k, c) in configs.iter().enumerate() {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock benchmark harness; timings are the output"
            )]
            let t = Instant::now();
            let s = p
                .solve_with(&c.opts)
                .expect("benchmark LP must be feasible");
            times[k].push(t.elapsed().as_nanos());
            last[k] = Some(s);
        }
    }
    let measured = times
        .iter()
        .zip(last)
        .map(|(t, s)| summarize(t, &s.expect("at least one trial")))
        .collect();
    (measured, times)
}

/// Median over trials of the per-trial ratio of `num`'s to `den`'s time
/// per pivot. Each side is (per-trial solve times, pivots per solve).
fn median_pivot_ratio(num: (&[u128], usize), den: (&[u128], usize)) -> f64 {
    let per_pivot =
        |(times, pivots): (&[u128], usize), k: usize| times[k] as f64 / pivots.max(1) as f64;
    let mut ratios: Vec<f64> = (0..num.0.len())
        .map(|k| per_pivot(num, k) / per_pivot(den, k))
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

fn summarize(times: &[u128], s: &metis_lp::Solution) -> Measured {
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    let median_solve_ns = sorted[sorted.len() / 2];
    let st = *s.stats();
    Measured {
        median_solve_ns,
        median_pivot_ns: median_solve_ns / (st.iterations.max(1) as u128),
        objective: s.objective(),
        iterations: st.iterations,
        phase1_iterations: st.phase1_iterations,
        dual_iterations: st.dual_iterations,
        bound_flips: st.bound_flips,
        refactorizations: st.refreshes,
        eta_updates: st.eta_updates,
        lu_l_nnz: st.lu_l_nnz,
        lu_u_nnz: st.lu_u_nnz,
    }
}

fn config_json(m: &Measured) -> Json {
    obj([
        ("median_solve_ns", Json::Num(m.median_solve_ns as f64)),
        ("median_pivot_ns", Json::Num(m.median_pivot_ns as f64)),
        ("objective", Json::Num(m.objective)),
        ("iterations", Json::Num(m.iterations as f64)),
        ("phase1_iterations", Json::Num(m.phase1_iterations as f64)),
        ("dual_iterations", Json::Num(m.dual_iterations as f64)),
        ("bound_flips", Json::Num(m.bound_flips as f64)),
        ("refactorizations", Json::Num(m.refactorizations as f64)),
        ("eta_updates", Json::Num(m.eta_updates as f64)),
        ("lu_l_nnz", Json::Num(m.lu_l_nnz as f64)),
        ("lu_u_nnz", Json::Num(m.lu_u_nnz as f64)),
    ])
}

/// The recorded `pivot_ratio` at every size where both configurations
/// ran: `(m, ratio)`.
fn pivot_ratios(doc: &Json) -> Vec<(usize, f64)> {
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let m = e.get("m").and_then(Json::as_usize)?;
            Some((m, e.get("pivot_ratio").and_then(Json::as_f64)?))
        })
        .collect()
}

/// Per-configuration fields a solve reproduces exactly on any hardware:
/// the pivot counts and the optimum they reach.
const EXACT_FIELDS: [&str; 3] = ["iterations", "phase1_iterations", "objective"];

/// One message per [`EXACT_FIELDS`] value of `current` that differs
/// from `baseline`, over the configurations both ran at the same size.
fn exact_mismatches(current: &Json, baseline: &Json) -> Vec<String> {
    fn entries(doc: &Json) -> &[Json] {
        doc.get("entries").and_then(Json::as_arr).unwrap_or(&[])
    }
    let base_entries = entries(baseline);
    let mut out = Vec::new();
    for cur in entries(current) {
        let Some(m) = cur.get("m").and_then(Json::as_usize) else {
            continue;
        };
        let Some(base) = base_entries
            .iter()
            .find(|b| b.get("m").and_then(Json::as_usize) == Some(m))
        else {
            continue;
        };
        let configs = cur.get("configs").and_then(Json::as_obj).unwrap_or(&[]);
        for (key, cur_cfg) in configs {
            let Some(base_cfg) = base.get("configs").and_then(|c| c.get(key)) else {
                continue;
            };
            for field in EXACT_FIELDS {
                let (c, b) = (cur_cfg.get(field), base_cfg.get(field));
                if c.and_then(Json::as_f64) != b.and_then(Json::as_f64) {
                    out.push(format!("m={m} {key} {field}: {c:?} vs baseline {b:?}"));
                }
            }
        }
    }
    out
}

/// Fails (exit 1) when any per-pivot ratio worsened by more than 30%
/// against the committed baseline at an overlapping size, or when any
/// [`EXACT_FIELDS`] value differs from it.
fn trend_check(current: &Json, baseline_path: &str) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trend-check: cannot read {baseline_path}: {e}");
            return false;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("trend-check: cannot parse {baseline_path}: {e}");
            return false;
        }
    };
    let base = pivot_ratios(&baseline);
    let mut ok = true;
    let mut compared = 0usize;
    for (m, cur) in pivot_ratios(current) {
        let Some(&(_, bas)) = base.iter().find(|&&(bm, _)| bm == m) else {
            continue;
        };
        compared += 1;
        if cur > bas * 1.30 {
            eprintln!(
                "trend-check: sparse_lu per-pivot ratio regressed at m={m}: \
                 {cur:.3} vs baseline {bas:.3} (>30%)"
            );
            ok = false;
        } else {
            println!("trend-check: sparse_lu m={m} ratio {cur:.3} (baseline {bas:.3}) ok");
        }
    }
    if compared == 0 {
        eprintln!("trend-check: no overlapping sizes with {baseline_path}");
        return false;
    }
    let mismatches = exact_mismatches(current, &baseline);
    for msg in &mismatches {
        eprintln!("trend-check: pivot counts or objective changed: {msg}");
    }
    if mismatches.is_empty() {
        println!("trend-check: iterations, phase1_iterations and objective match the baseline");
    }
    ok && mismatches.is_empty()
}

fn main() {
    let quick = metis_bench::quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::to_owned)
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_lp.json".to_string());
    let trend_baseline = flag_value("--trend-check");

    let size_override: Option<Vec<usize>> = args.iter().any(|a| a == "--sizes").then(|| {
        flag_value("--sizes")
            .and_then(|s| s.split(',').map(|t| t.trim().parse().ok()).collect())
            .unwrap_or_else(|| {
                eprintln!("bench_lp: --sizes takes M1,M2,...\n{USAGE}");
                std::process::exit(2)
            })
    });
    let sizes: &[usize] = match &size_override {
        Some(v) => v,
        None if quick => SIZES_QUICK,
        None => SIZES_FULL,
    };

    println!(
        "{:>7} {:>8} {:>13} {:>14} {:>14} {:>8} {:>8} {:>8}",
        "m", "family", "config", "solve", "per-pivot", "pivots", "refacts", "updates"
    );
    let mut entries: Vec<Json> = Vec::new();
    for &m in sizes {
        let (family, p) = if m <= 300 {
            ("transportation", transportation_lp(m / 2))
        } else {
            ("sparse_packing", sparse_packing_lp(m, 0x5eed))
        };
        // One trial suffices at the sizes where a solve takes seconds and
        // only the sparse engine runs; the ratio sizes take five.
        let trials = if m > DENSE_MAX_M { 1 } else { 5 };
        let cfgs: Vec<Config> = configs()
            .into_iter()
            .filter(|c| c.key != "dense" || m <= DENSE_MAX_M)
            .collect();
        let (measured, times) = measure(&p, &cfgs, trials);
        let mut cfg_fields: Vec<(&'static str, Json)> = Vec::new();
        let obj0 = measured[0].objective;
        for (c, r) in cfgs.iter().zip(&measured) {
            assert!(
                (r.objective - obj0).abs() <= 1e-6 * (1.0 + obj0.abs()),
                "objectives diverged at m={m}: {} vs {obj0} ({})",
                r.objective,
                c.key
            );
            println!(
                "{:>7} {:>8} {:>13} {:>12.3}ms {:>12}ns {:>8} {:>8} {:>8}",
                m,
                &family[..family.len().min(8)],
                c.key,
                r.median_solve_ns as f64 / 1e6,
                r.median_pivot_ns,
                r.iterations,
                r.refactorizations,
                r.eta_updates,
            );
            cfg_fields.push((c.key, config_json(r)));
        }
        let mut entry = vec![
            ("m", Json::Num(m as f64)),
            ("n_vars", Json::Num(p.num_vars() as f64)),
            ("family", Json::Str(family.to_string())),
            ("trials", Json::Num(trials as f64)),
            ("configs", obj(cfg_fields)),
        ];
        // `configs()` lists dense first: both ran when there are two.
        if let [dense, sparse] = &measured[..] {
            let ratio = median_pivot_ratio(
                (&times[1], sparse.iterations),
                (&times[0], dense.iterations),
            );
            println!(
                "{:>54}",
                format!("(per-pivot {:.2}x vs dense)", 1.0 / ratio)
            );
            entry.push(("pivot_ratio", Json::Num(ratio)));
        }
        entries.push(obj(entry));
    }

    let doc = obj([
        ("benchmark", Json::Str("lp_engine_ab".to_string())),
        ("quick", Json::Bool(quick)),
        (
            "sizes",
            Json::Arr(sizes.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("entries", Json::Arr(entries)),
    ]);
    let text = doc.to_pretty();
    if let Err(e) = std::fs::write(&out_path, text + "\n") {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if let Some(baseline) = trend_baseline {
        if !trend_check(&doc, &baseline) {
            std::process::exit(1);
        }
        println!("trend-check passed against {baseline}");
    }
}
