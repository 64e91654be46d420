//! RL-SPM (request-limited SPM) and the Multistage Approximation
//! Algorithm (MAA, §III of the paper).
//!
//! Given the set of accepted requests, RL-SPM minimizes the bandwidth cost
//! of serving *all* of them. MAA follows the paper's three stages:
//!
//! 1. **Relaxation** — solve the LP with fractional path variables
//!    `x_{i,j} ∈ [0,1]` and fractional charged bandwidth `ĉ_e ≥ 0`.
//! 2. **Randomized rounding** — route each request on path `P_{i,j}` with
//!    probability `x̂_{i,j}` (`O(log|E| / log log|E|)`-approximation for
//!    the unsplittable-flow subproblem w.h.p.).
//! 3. **Ceiling** — charge `c_e = ⌈max_t load_e(t)⌉` integer units
//!    (`(α+1)/α`-approximation of the relaxed integral charging, where
//!    `α = min_{e ∈ E'} ĉ_e`).

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use metis_lp::{LpTrace, Problem, Relation, Sense, SolveError, SolveOptions, SolveStats};
use metis_telemetry::{names, Telemetry};
use metis_workload::RequestId;

use crate::instance::SpmInstance;
use crate::parallel::{self, ParallelConfig};
use crate::schedule::{Evaluation, Schedule};
use crate::warm::WarmBasis;

/// Options for [`maa`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaaOptions {
    /// Number of independent rounding repetitions; the cheapest outcome is
    /// kept. The paper's algorithm rounds once; its Fig. 4b experiment
    /// repeats the rounding to study the cost distribution.
    pub rounding_repeats: usize,
    /// Base RNG seed for the rounding stage. Trial `t` draws from its own
    /// `ChaCha12` stream seeded with `seed + t`, so the set of trials — and
    /// hence the kept schedule — does not depend on how many worker
    /// threads execute them.
    pub seed: u64,
    /// Post-improve the rounded schedule by single-request path moves
    /// until no move lowers the billed cost (an extension beyond the
    /// paper's Algorithm 1; off by default).
    pub local_search: bool,
    /// Worker threads and optional trial-count override for the rounding
    /// stage.
    pub parallel: ParallelConfig,
    /// LP solver options.
    pub lp: SolveOptions,
}

impl Default for MaaOptions {
    fn default() -> Self {
        MaaOptions {
            rounding_repeats: 1,
            seed: 0,
            local_search: false,
            parallel: ParallelConfig::default(),
            lp: SolveOptions::default(),
        }
    }
}

/// Fractional optimum of the relaxed RL-SPM.
#[derive(Clone, Debug, PartialEq)]
pub struct RlspmRelaxation {
    /// `x̂_{i,j}` per request (empty row for requests outside the accepted
    /// set).
    pub x: Vec<Vec<f64>>,
    /// Fractional charged bandwidth `ĉ_e` per edge.
    pub c: Vec<f64>,
    /// Fractional cost `Σ u_e ĉ_e` — a lower bound on any integral cost.
    pub cost: f64,
    /// Work counters from the LP solve that produced this relaxation.
    pub stats: SolveStats,
    /// Per-iteration simplex trace (empty unless
    /// [`SolveOptions::trace`] was set on the LP options).
    pub lp_trace: LpTrace,
}

impl RlspmRelaxation {
    /// `α = min_{e ∈ E'} ĉ_e`: the smallest positive fractional charge,
    /// controlling the ceiling stage's `(α+1)/α` ratio. `None` when no
    /// edge carries load.
    pub fn alpha(&self) -> Option<f64> {
        self.c
            .iter()
            .copied()
            .filter(|&c| c > 1e-9)
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |a| a.min(c)))
            })
    }
}

/// Result of one MAA run.
#[derive(Clone, Debug)]
pub struct MaaResult {
    /// The rounded schedule: every accepted request routed, others
    /// declined.
    pub schedule: Schedule,
    /// Economic evaluation (integer peak charging).
    pub evaluation: Evaluation,
    /// The LP relaxation behind the rounding.
    pub relaxation: RlspmRelaxation,
}

/// Builds and solves the relaxed RL-SPM linear program over the requests
/// with `accepted[i] == true`.
///
/// # Errors
///
/// Propagates LP solver failures. The LP is feasible by construction
/// whenever every accepted request has at least one candidate path (an
/// [`SpmInstance`] invariant), so `Infeasible` indicates numerical
/// breakdown.
///
/// # Panics
///
/// Panics if `accepted.len() != instance.num_requests()`.
pub fn solve_rlspm_relaxation(
    instance: &SpmInstance,
    accepted: &[bool],
    lp_options: &SolveOptions,
) -> Result<RlspmRelaxation, SolveError> {
    assert_eq!(accepted.len(), instance.num_requests(), "mask length");
    let topo = instance.topology();

    let mut p = Problem::new(Sense::Minimize);

    // Path variables; declined requests get none, so no load terms.
    let mut xvars: Vec<Vec<metis_lp::VarId>> = Vec::with_capacity(instance.num_requests());
    for ((_, paths), &on) in instance.iter().zip(accepted) {
        let n = if on { paths.len() } else { 0 };
        xvars.push((0..n).map(|_| p.add_var(0.0, 0.0, 1.0)).collect());
    }
    // Charged-bandwidth variables (fractional in the relaxation).
    let cvars: Vec<metis_lp::VarId> = topo
        .edge_ids()
        .map(|e| p.add_var(topo.price(e), 0.0, f64::INFINITY))
        .collect();

    // Σ_j x_{i,j} = 1 for accepted requests.
    for (i, vars) in xvars.iter().enumerate() {
        if accepted[i] {
            p.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Eq, 1.0);
        }
    }

    // Load rows: Σ r_i x_{i,j} − c_e ≤ 0 per reachable (edge, slot).
    for (e, terms) in instance.load_rows(&xvars) {
        let row = terms.into_iter().chain([(cvars[e], -1.0)]);
        p.add_constraint(row, Relation::Le, 0.0);
    }

    let sol = p.solve_with(lp_options)?;
    let x: Vec<Vec<f64>> = xvars
        .iter()
        .map(|vars| vars.iter().map(|&v| sol.value(v)).collect())
        .collect();
    let c: Vec<f64> = cvars.iter().map(|&v| sol.value(v)).collect();
    Ok(RlspmRelaxation {
        x,
        c,
        cost: sol.objective(),
        stats: *sol.stats(),
        lp_trace: sol.trace().clone(),
    })
}

/// Re-solvable RL-SPM relaxation with simplex warm starts.
///
/// [`solve_rlspm_relaxation`] rebuilds its LP from scratch for every
/// acceptance mask, so the structure (which variables and rows exist)
/// depends on the mask and no simplex basis can carry over. This solver
/// instead builds one **fixed-structure** program over *all* requests
/// once:
///
/// * `x_{i,j} ∈ [0,1]` for every request and candidate path,
/// * `ĉ_e ≥ 0` per edge with objective `u_e`,
/// * an indicator `y_i` per request with the demand row
///   `Σ_j x_{i,j} − y_i = 0`, and
/// * load rows `Σ r_i x_{i,j} − ĉ_e ≤ 0` over every reachable
///   (edge, slot) cell.
///
/// Changing the mask only toggles the `y_i` bounds between `[0, 0]`
/// (declined: all of `i`'s path variables are forced to zero) and `[1, 1]`
/// (accepted: exactly one unit of flow), which keeps the previous round's
/// [`metis_lp::Basis`] structurally valid — each re-solve starts from it and
/// typically finishes in a handful of pivots. The optimum **value** always
/// equals the per-mask LP's; the optimal **vertex** may be a different one
/// of the tied optima than the cold rebuild finds.
///
/// # Examples
///
/// ```
/// use metis_core::{solve_rlspm_relaxation, RlspmWarmSolver, SpmInstance};
/// use metis_lp::SolveOptions;
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(10, 5));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
///
/// let mut solver = RlspmWarmSolver::new(&instance);
/// let opts = SolveOptions::default();
/// let all = vec![true; 10];
/// let warm = solver.solve(&all, &opts)?;
/// let cold = solve_rlspm_relaxation(&instance, &all, &opts)?;
/// assert!((warm.cost - cold.cost).abs() < 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
#[derive(Clone)]
pub struct RlspmWarmSolver {
    problem: Problem,
    xvars: Vec<Vec<metis_lp::VarId>>,
    cvars: Vec<metis_lp::VarId>,
    yvars: Vec<metis_lp::VarId>,
    warm: WarmBasis,
}

impl RlspmWarmSolver {
    /// Builds the fixed-structure program for `instance`. All requests
    /// start declined; [`RlspmWarmSolver::solve`] sets the actual mask.
    pub fn new(instance: &SpmInstance) -> Self {
        let topo = instance.topology();

        let mut p = Problem::new(Sense::Minimize);
        let xvars: Vec<Vec<metis_lp::VarId>> = instance
            .iter()
            .map(|(_, paths)| paths.iter().map(|_| p.add_var(0.0, 0.0, 1.0)).collect())
            .collect();
        let cvars: Vec<metis_lp::VarId> = topo
            .edge_ids()
            .map(|e| p.add_var(topo.price(e), 0.0, f64::INFINITY))
            .collect();
        let yvars: Vec<metis_lp::VarId> = (0..instance.num_requests())
            .map(|_| p.add_var(0.0, 0.0, 0.0))
            .collect();

        // Σ_j x_{i,j} − y_i = 0 for every request.
        for (i, vars) in xvars.iter().enumerate() {
            p.add_constraint(
                vars.iter()
                    .map(|&v| (v, 1.0))
                    .chain(std::iter::once((yvars[i], -1.0))),
                Relation::Eq,
                0.0,
            );
        }

        // Load rows over every cell any candidate path can touch.
        for (e, terms) in instance.load_rows(&xvars) {
            let row = terms.into_iter().chain([(cvars[e], -1.0)]);
            p.add_constraint(row, Relation::Le, 0.0);
        }

        RlspmWarmSolver {
            problem: p,
            xvars,
            cvars,
            yvars,
            warm: WarmBasis::default(),
        }
    }

    /// Solves the relaxation for `accepted`, warm-starting from the last
    /// solve's basis when one exists. If the warm restart fails for any
    /// reason (e.g. a singular restored factorization reported as
    /// infeasibility), the basis is discarded and the solve retried cold.
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the cold path.
    ///
    /// # Panics
    ///
    /// Panics if `accepted.len() != instance.num_requests()` for the
    /// instance this solver was built from.
    pub fn solve(
        &mut self,
        accepted: &[bool],
        lp_options: &SolveOptions,
    ) -> Result<RlspmRelaxation, SolveError> {
        assert_eq!(accepted.len(), self.yvars.len(), "mask length");
        for (i, &on) in accepted.iter().enumerate() {
            let b = if on { 1.0 } else { 0.0 };
            self.problem.set_bounds(self.yvars[i], b, b);
        }
        let sol = self.warm.solve(&self.problem, lp_options)?;
        let x: Vec<Vec<f64>> = self
            .xvars
            .iter()
            .enumerate()
            .map(|(i, vars)| {
                if accepted[i] {
                    vars.iter().map(|&v| sol.value(v)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let c: Vec<f64> = self.cvars.iter().map(|&v| sol.value(v)).collect();
        Ok(RlspmRelaxation {
            x,
            c,
            cost: sol.objective(),
            stats: *sol.stats(),
            lp_trace: sol.trace().clone(),
        })
    }

    /// Solves that started from a previous basis (including ones the
    /// simplex internally restarted cold after a numerical failure).
    pub fn warm_solves(&self) -> usize {
        self.warm.warm_solves
    }

    /// Solves that built a basis from scratch.
    pub fn cold_solves(&self) -> usize {
        self.warm.cold_solves
    }

    /// Drops the stored basis, forcing the next solve to start cold.
    pub fn reset_basis(&mut self) {
        self.warm.reset();
    }
}

/// Runs MAA like [`maa`], recording telemetry into `tele`; with `Some`
/// solver the relaxation warm-starts from that [`RlspmWarmSolver`]'s
/// previous basis (the Metis alternation rounds).
///
/// The relaxation solve runs under the `maa.relax` span, the rounding
/// trials under `maa.rounding`, LP work counters land in the `lp.*`
/// metrics, and each trial's profit is observed into the
/// `maa.trials.profit` histogram. Recording is write-only — passing
/// [`Telemetry::disabled`] (what [`maa`] does) yields bit-identical
/// results.
///
/// # Errors
///
/// Propagates LP failures from the relaxation stage.
///
/// # Panics
///
/// Panics as [`maa`] does, or if `solver` was built from a different
/// instance.
pub(crate) fn maa_instrumented(
    instance: &SpmInstance,
    accepted: &[bool],
    options: &MaaOptions,
    solver: Option<&mut RlspmWarmSolver>,
    tele: &Telemetry,
) -> Result<MaaResult, SolveError> {
    let relaxation = {
        let mut relax = tele.span(names::SPAN_MAA_RELAX);
        let relaxation = match solver {
            Some(s) => s.solve(accepted, &options.lp)?,
            None => solve_rlspm_relaxation(instance, accepted, &options.lp)?,
        };
        relax.arg(names::ARG_LP_ITERATIONS, relaxation.stats.iterations as f64);
        relaxation
    };
    crate::obs::record_lp_stats(tele, &relaxation.stats);
    crate::obs::record_lp_trace(tele, &relaxation.lp_trace);
    Ok(maa_from_relaxation(
        instance, accepted, options, relaxation, tele,
    ))
}

/// Runs MAA over the accepted requests: relax → round → ceil.
///
/// Every request with `accepted[i] == true` is routed on exactly one of
/// its candidate paths; the others are declined in the returned schedule.
///
/// # Errors
///
/// Propagates LP failures from the relaxation stage.
///
/// # Panics
///
/// Panics if `accepted.len() != instance.num_requests()` or
/// `options.rounding_repeats == 0`.
///
/// # Examples
///
/// ```
/// use metis_core::{maa, MaaOptions, SpmInstance};
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(15, 3));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
/// let accepted = vec![true; instance.num_requests()];
/// let result = maa(&instance, &accepted, &MaaOptions::default())?;
/// assert_eq!(result.schedule.num_accepted(), 15);
/// assert!(result.evaluation.cost >= result.relaxation.cost - 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
pub fn maa(
    instance: &SpmInstance,
    accepted: &[bool],
    options: &MaaOptions,
) -> Result<MaaResult, SolveError> {
    maa_instrumented(instance, accepted, options, None, &Telemetry::disabled())
}

/// Rounding + ceiling stages of MAA, given an already-solved relaxation.
///
/// Trials run fanned across `options.parallel` worker threads; trial `t`
/// rounds with its own `ChaCha12` stream seeded `seed + t`, and the
/// cheapest schedule wins (first trial wins ties), so the result is
/// bit-identical for any thread count.
fn maa_from_relaxation(
    instance: &SpmInstance,
    accepted: &[bool],
    options: &MaaOptions,
    relaxation: RlspmRelaxation,
    tele: &Telemetry,
) -> MaaResult {
    let _rounding = tele.span(names::SPAN_MAA_ROUNDING);
    let trials = options.parallel.effective_trials(options.rounding_repeats);
    assert!(trials >= 1, "need at least one rounding");
    let threads = options.parallel.effective_threads();
    let rounded = parallel::run_indexed(trials, threads, |trial| {
        let mut rng = ChaCha12Rng::seed_from_u64(options.seed.wrapping_add(trial as u64));
        let schedule = round_schedule(instance, accepted, &relaxation.x, &mut rng);
        let cost = schedule.load(instance).total_cost(instance.topology());
        (cost, schedule)
    });
    // Observed after the index-ordered reduction, on the caller's thread,
    // so recording never races and never perturbs the parallel region.
    if tele.is_enabled() {
        let revenue: f64 = instance
            .requests()
            .iter()
            .zip(accepted)
            .filter(|(_, &a)| a)
            .map(|(r, _)| r.value)
            .sum();
        for (cost, _) in &rounded {
            tele.observe(names::MAA_TRIALS_PROFIT, revenue - cost);
        }
    }
    let mut best: Option<(f64, Schedule)> = None;
    for (cost, schedule) in rounded {
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, schedule));
        }
    }
    // metis-lint: allow(PANIC-01): ParallelConfig::trials is clamped to ≥ 1, so one rounding always runs
    let (_, mut schedule) = best.expect("at least one rounding ran");
    if options.local_search {
        improve_by_path_moves(instance, &mut schedule);
    }
    let evaluation = schedule.evaluate(instance);
    MaaResult {
        schedule,
        evaluation,
        relaxation,
    }
}

/// First-improvement local search: move one accepted request to another
/// candidate path whenever that lowers the total billed cost; repeat
/// until a fixed point. Each accepted move strictly lowers the cost, and
/// the cost lives on a finite grid of integer unit charges, so this
/// terminates.
fn improve_by_path_moves(instance: &SpmInstance, schedule: &mut Schedule) {
    let topo = instance.topology();
    let mut load = schedule.load(instance);
    let mut cost = load.total_cost(topo);
    loop {
        let mut improved = false;
        for i in 0..instance.num_requests() {
            let id = RequestId(i as u32);
            let Some(current) = schedule.path_choice(id) else {
                continue;
            };
            let r = instance.request(id);
            let paths = instance.paths(id);
            for j in 0..paths.len() {
                if j == current {
                    continue;
                }
                for &e in paths[current].edges() {
                    load.remove(e, r.start, r.end, r.rate);
                }
                for &e in paths[j].edges() {
                    load.add(e, r.start, r.end, r.rate);
                }
                let new_cost = load.total_cost(topo);
                if new_cost < cost - 1e-9 {
                    cost = new_cost;
                    schedule.set(id, Some(j));
                    improved = true;
                    break; // re-fetch `current` for this request
                }
                // Revert.
                for &e in paths[j].edges() {
                    load.remove(e, r.start, r.end, r.rate);
                }
                for &e in paths[current].edges() {
                    load.add(e, r.start, r.end, r.rate);
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// One randomized-rounding pass: pick path `j` with probability `x̂_{i,j}`
/// for every accepted request (declined requests stay out).
///
/// Exposed so the Fig. 4b experiment can redraw many roundings from a
/// single solved relaxation.
///
/// # Panics
///
/// Panics if `accepted` or `x` don't match the instance.
pub fn round_schedule(
    instance: &SpmInstance,
    accepted: &[bool],
    x: &[Vec<f64>],
    rng: &mut impl Rng,
) -> Schedule {
    let mut schedule = Schedule::decline_all(instance.num_requests());
    for i in 0..instance.num_requests() {
        if !accepted[i] {
            continue;
        }
        let probs = &x[i];
        let total: f64 = probs.iter().map(|&p| p.max(0.0)).sum();
        let id = RequestId(i as u32);
        if total <= 1e-12 {
            // Degenerate LP output; fall back to the cheapest path.
            schedule.set(id, Some(0));
            continue;
        }
        let mut draw = rng.gen_range(0.0..total);
        let mut chosen = probs.len() - 1;
        for (j, &pj) in probs.iter().enumerate() {
            let pj = pj.max(0.0);
            if draw < pj {
                chosen = j;
                break;
            }
            draw -= pj;
        }
        schedule.set(id, Some(chosen));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64) -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn relaxation_satisfies_demands() {
        let inst = instance(20, 1);
        let accepted = vec![true; 20];
        let rel = solve_rlspm_relaxation(&inst, &accepted, &SolveOptions::default()).unwrap();
        for i in 0..20 {
            let sum: f64 = rel.x[i].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "request {i} fractional sum {sum}");
        }
        assert!(rel.cost > 0.0);
        assert!(rel.alpha().unwrap() > 0.0);
    }

    #[test]
    fn relaxation_covers_peak_load() {
        // ĉ_e must dominate the fractional load at every slot.
        let inst = instance(25, 7);
        let accepted = vec![true; 25];
        let rel = solve_rlspm_relaxation(&inst, &accepted, &SolveOptions::default()).unwrap();
        let slots = inst.num_slots();
        let mut load = vec![0.0; inst.topology().num_edges() * slots];
        for (i, (r, paths)) in inst.iter().enumerate() {
            for (j, path) in paths.iter().enumerate() {
                for &e in path.edges() {
                    for t in r.start..=r.end {
                        load[e.index() * slots + t] += r.rate * rel.x[i][j];
                    }
                }
            }
        }
        for e in 0..inst.topology().num_edges() {
            for t in 0..slots {
                assert!(
                    load[e * slots + t] <= rel.c[e] + 1e-6,
                    "edge {e} slot {t}: load {} > ĉ {}",
                    load[e * slots + t],
                    rel.c[e]
                );
            }
        }
    }

    #[test]
    fn skipped_requests_stay_out() {
        let inst = instance(10, 2);
        let mut accepted = vec![true; 10];
        accepted[3] = false;
        accepted[7] = false;
        let res = maa(&inst, &accepted, &MaaOptions::default()).unwrap();
        assert_eq!(res.schedule.num_accepted(), 8);
        assert!(!res.schedule.is_accepted(RequestId(3)));
        assert!(!res.schedule.is_accepted(RequestId(7)));
        assert!(res.relaxation.x[3].is_empty());
    }

    #[test]
    fn maa_cost_at_least_lp_bound() {
        let inst = instance(30, 3);
        let accepted = vec![true; 30];
        let res = maa(&inst, &accepted, &MaaOptions::default()).unwrap();
        assert!(res.evaluation.cost >= res.relaxation.cost - 1e-6);
        assert_eq!(res.evaluation.accepted, 30);
        // All charged units are integral.
        for &c in &res.evaluation.charged {
            assert_eq!(c.fract(), 0.0);
        }
    }

    #[test]
    fn rounding_deterministic_per_seed() {
        let inst = instance(25, 4);
        let accepted = vec![true; 25];
        let opts = MaaOptions {
            seed: 99,
            ..MaaOptions::default()
        };
        let a = maa(&inst, &accepted, &opts).unwrap();
        let b = maa(&inst, &accepted, &opts).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn more_repeats_never_costlier() {
        let inst = instance(25, 5);
        let accepted = vec![true; 25];
        let one = maa(
            &inst,
            &accepted,
            &MaaOptions {
                rounding_repeats: 1,
                seed: 11,
                ..MaaOptions::default()
            },
        )
        .unwrap();
        let many = maa(
            &inst,
            &accepted,
            &MaaOptions {
                rounding_repeats: 16,
                seed: 11,
                ..MaaOptions::default()
            },
        )
        .unwrap();
        assert!(many.evaluation.cost <= one.evaluation.cost + 1e-9);
    }

    #[test]
    fn trials_bit_identical_across_thread_counts() {
        let inst = instance(25, 9);
        let accepted = vec![true; 25];
        let base = MaaOptions {
            rounding_repeats: 8,
            seed: 42,
            ..MaaOptions::default()
        };
        let serial = maa(&inst, &accepted, &base).unwrap();
        for threads in [2, 8] {
            let opts = MaaOptions {
                parallel: ParallelConfig {
                    threads,
                    ..ParallelConfig::default()
                },
                ..base
            };
            let par = maa(&inst, &accepted, &opts).unwrap();
            assert_eq!(par.schedule, serial.schedule, "threads = {threads}");
            assert_eq!(par.evaluation, serial.evaluation, "threads = {threads}");
        }
    }

    #[test]
    fn trials_override_inherits_and_wins() {
        let inst = instance(20, 10);
        let accepted = vec![true; 20];
        // trials = 16 via the override must equal rounding_repeats = 16.
        let by_repeats = maa(
            &inst,
            &accepted,
            &MaaOptions {
                rounding_repeats: 16,
                seed: 3,
                ..MaaOptions::default()
            },
        )
        .unwrap();
        let by_override = maa(
            &inst,
            &accepted,
            &MaaOptions {
                rounding_repeats: 1,
                seed: 3,
                parallel: ParallelConfig {
                    threads: 2,
                    trials: 16,
                },
                ..MaaOptions::default()
            },
        )
        .unwrap();
        assert_eq!(by_override.schedule, by_repeats.schedule);
    }

    #[test]
    fn single_request_takes_cheapest_path() {
        // With one request, the LP routes it fully on the cheapest path and
        // rounding must follow.
        let inst = instance(1, 6);
        let res = maa(&inst, &[true], &MaaOptions::default()).unwrap();
        let id = RequestId(0);
        let j = res.schedule.path_choice(id).unwrap();
        let paths = inst.paths(id);
        let chosen_price = paths[j].price(inst.topology());
        let min_price = paths
            .iter()
            .map(|p| p.price(inst.topology()))
            .fold(f64::INFINITY, f64::min);
        assert!(chosen_price <= min_price + 1e-9);
    }

    #[test]
    fn local_search_never_hurts_and_keeps_demands() {
        for seed in 0..3 {
            let inst = instance(40, seed);
            let accepted = vec![true; 40];
            let plain = maa(
                &inst,
                &accepted,
                &MaaOptions {
                    seed,
                    ..MaaOptions::default()
                },
            )
            .unwrap();
            let improved = maa(
                &inst,
                &accepted,
                &MaaOptions {
                    seed,
                    local_search: true,
                    ..MaaOptions::default()
                },
            )
            .unwrap();
            assert!(improved.evaluation.cost <= plain.evaluation.cost + 1e-9);
            assert_eq!(improved.schedule.num_accepted(), 40);
        }
    }

    #[test]
    fn warm_solver_matches_cold_relaxation_cost() {
        let inst = instance(20, 12);
        let opts = SolveOptions::default();
        let mut solver = RlspmWarmSolver::new(&inst);

        let mut masks = vec![vec![true; 20]];
        let mut partial = vec![true; 20];
        for i in [1, 4, 9, 16] {
            partial[i] = false;
        }
        masks.push(partial);
        masks.push(vec![true; 20]); // back to full: basis reuse again
        masks.push(vec![false; 20]);

        for mask in &masks {
            let warm = solver.solve(mask, &opts).unwrap();
            let cold = solve_rlspm_relaxation(&inst, mask, &opts).unwrap();
            assert!(
                (warm.cost - cold.cost).abs() < 1e-6,
                "warm {} vs cold {}",
                warm.cost,
                cold.cost
            );
            for (i, &on) in mask.iter().enumerate() {
                if on {
                    let sum: f64 = warm.x[i].iter().sum();
                    assert!((sum - 1.0).abs() < 1e-6, "request {i} sum {sum}");
                } else {
                    assert!(warm.x[i].is_empty(), "declined request {i} has x row");
                }
            }
        }
        assert_eq!(solver.cold_solves(), 1, "only the first solve is cold");
        assert_eq!(solver.warm_solves(), masks.len() - 1);
    }

    #[test]
    fn warm_maa_matches_maa_economics() {
        let inst = instance(15, 13);
        let accepted = vec![true; 15];
        let options = MaaOptions {
            seed: 7,
            rounding_repeats: 4,
            ..MaaOptions::default()
        };
        let mut solver = RlspmWarmSolver::new(&inst);
        let warm = maa_instrumented(
            &inst,
            &accepted,
            &options,
            Some(&mut solver),
            &Telemetry::disabled(),
        )
        .unwrap();
        let cold = maa(&inst, &accepted, &options).unwrap();
        // Degenerate LP optima may differ vertex-wise, but the relaxation
        // value is unique and both pipelines must respect the LP bound.
        assert!((warm.relaxation.cost - cold.relaxation.cost).abs() < 1e-6);
        assert!(warm.evaluation.cost >= warm.relaxation.cost - 1e-6);
        assert_eq!(warm.schedule.num_accepted(), 15);
    }

    #[test]
    fn warm_solver_reset_forces_cold() {
        let inst = instance(8, 14);
        let opts = SolveOptions::default();
        let mut solver = RlspmWarmSolver::new(&inst);
        solver.solve(&[true; 8], &opts).unwrap();
        solver.reset_basis();
        solver.solve(&[true; 8], &opts).unwrap();
        assert_eq!(solver.cold_solves(), 2);
        assert_eq!(solver.warm_solves(), 0);
    }

    #[test]
    fn empty_acceptance_is_free() {
        let inst = instance(5, 8);
        let res = maa(&inst, &[false; 5], &MaaOptions::default()).unwrap();
        assert_eq!(res.evaluation.cost, 0.0);
        assert_eq!(res.schedule.num_accepted(), 0);
        assert_eq!(res.relaxation.alpha(), None);
    }
}
