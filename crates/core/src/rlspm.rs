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

use metis_lp::{
    Basis, LpTrace, Problem, Relation, Sense, SolveError, SolveOptions, SolveStats, VarId,
};
use metis_telemetry::{names, Telemetry};
use metis_workload::RequestId;

use crate::instance::SpmInstance;
use crate::parallel;
use crate::schedule::{Evaluation, Schedule};

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
    /// LP solver options.
    pub lp: SolveOptions,
}

impl Default for MaaOptions {
    fn default() -> Self {
        MaaOptions {
            rounding_repeats: 1,
            seed: 0,
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

/// The relaxed RL-SPM program of one instance, built once and re-solved
/// for every acceptance mask.
///
/// The program has a **fixed structure** over *all* requests:
///
/// * `x_{i,j} ∈ [0,1]` for every request and candidate path,
/// * `ĉ_e ≥ 0` per edge with objective `u_e`,
/// * an indicator `y_i` per request with the demand row
///   `Σ_j x_{i,j} − y_i = 0`, and
/// * load rows `Σ r_i x_{i,j} − ĉ_e ≤ 0` over every reachable
///   (edge, slot) cell.
///
/// A mask only sets the `y_i` bounds: `[0, 0]` for a declined request
/// (all of its path variables are forced to zero) and `[1, 1]` for an
/// accepted one (exactly one unit of flow). The matrix never changes, so
/// the previous solve's [`Basis`] stays structurally valid. Each solve
/// starts from it, and typically finishes in a handful of pivots, unless
/// [`RlspmSolver::reset_basis`] dropped it first. Warm and cold solves
/// reach the same optimum **value**, but may stop at different tied
/// vertices.
///
/// # Examples
///
/// ```
/// use metis_core::{RlspmSolver, SpmInstance};
/// use metis_lp::SolveOptions;
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(10, 5));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
///
/// let mut solver = RlspmSolver::new(&instance);
/// let opts = SolveOptions::default();
/// let all = vec![true; 10];
/// let cold = solver.solve(&all, &opts)?;
/// let mut some = all.clone();
/// some[3] = false;
/// solver.solve(&some, &opts)?;
/// let warm = solver.solve(&all, &opts)?;
/// assert!(warm.stats.warm_started && !cold.stats.warm_started);
/// assert!((warm.cost - cold.cost).abs() < 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
#[derive(Clone)]
pub struct RlspmSolver {
    problem: Problem,
    xvars: Vec<Vec<VarId>>,
    cvars: Vec<VarId>,
    yvars: Vec<VarId>,
    /// The last solve's optimal basis; `None` before the first solve and
    /// after [`RlspmSolver::reset_basis`].
    basis: Option<Basis>,
}

impl RlspmSolver {
    /// Builds the fixed-structure program for `instance`. All requests
    /// start declined; [`RlspmSolver::solve`] sets the actual mask.
    pub fn new(instance: &SpmInstance) -> Self {
        let topo = instance.topology();

        let mut p = Problem::new(Sense::Minimize);
        let xvars: Vec<Vec<VarId>> = instance
            .iter()
            .map(|(_, paths)| paths.iter().map(|_| p.add_var(0.0, 0.0, 1.0)).collect())
            .collect();
        let cvars: Vec<VarId> = topo
            .edge_ids()
            .map(|e| p.add_var(topo.price(e), 0.0, f64::INFINITY))
            .collect();
        let yvars: Vec<VarId> = (0..instance.num_requests())
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

        RlspmSolver {
            problem: p,
            xvars,
            cvars,
            yvars,
            basis: None,
        }
    }

    /// Solves the relaxation for `accepted`, starting from the last
    /// solve's basis when one is kept. A failed warm start falls back to
    /// a cold solve inside [`Problem::solve_with_basis`].
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the cold path. The LP is feasible by
    /// construction whenever every accepted request has at least one
    /// candidate path (an [`SpmInstance`] invariant), so `Infeasible`
    /// indicates numerical breakdown.
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
        let warm = self.basis.take();
        let (sol, basis) = self.problem.solve_with_basis(lp_options, warm.as_ref())?;
        self.basis = Some(basis);
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

    /// Drops the kept basis, so the next solve starts cold.
    pub fn reset_basis(&mut self) {
        self.basis = None;
    }
}

/// Runs MAA like [`maa`] with the rounding trials fanned across
/// `threads` workers, solving the relaxation with `solver` and recording
/// telemetry into `tele`. The solver's kept basis, if any, warm-starts
/// the relaxation (the Metis alternation rounds).
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
    threads: usize,
    solver: &mut RlspmSolver,
    tele: &Telemetry,
) -> Result<MaaResult, SolveError> {
    let relaxation = {
        let mut relax = tele.span(names::SPAN_MAA_RELAX);
        let relaxation = solver.solve(accepted, &options.lp)?;
        relax.arg(names::ARG_LP_ITERATIONS, relaxation.stats.iterations as f64);
        relaxation
    };
    crate::obs::record_lp_stats(tele, &relaxation.stats);
    crate::obs::record_lp_trace(tele, &relaxation.lp_trace);
    Ok(maa_from_relaxation(
        instance, accepted, options, threads, relaxation, tele,
    ))
}

/// Runs MAA over the accepted requests: relax → round → ceil, on the
/// calling thread. The relaxation is one cold solve of a fresh
/// [`RlspmSolver`].
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
    maa_instrumented(
        instance,
        accepted,
        options,
        1,
        &mut RlspmSolver::new(instance),
        &Telemetry::disabled(),
    )
}

/// Rounding + ceiling stages of MAA, given an already-solved relaxation.
///
/// Trials run fanned across `threads` workers; trial `t`
/// rounds with its own `ChaCha12` stream seeded `seed + t`, and the
/// cheapest schedule wins (first trial wins ties), so the result is
/// bit-identical for any thread count.
fn maa_from_relaxation(
    instance: &SpmInstance,
    accepted: &[bool],
    options: &MaaOptions,
    threads: usize,
    relaxation: RlspmRelaxation,
    tele: &Telemetry,
) -> MaaResult {
    let _rounding = tele.span(names::SPAN_MAA_ROUNDING);
    let trials = options.rounding_repeats;
    assert!(trials >= 1, "need at least one rounding");
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
    #[expect(
        clippy::expect_used,
        reason = "the assert above makes at least one rounding run"
    )]
    let (_, schedule) = best.expect("at least one rounding ran");
    let evaluation = schedule.evaluate(instance);
    MaaResult {
        schedule,
        evaluation,
        relaxation,
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
        let rel = RlspmSolver::new(&inst)
            .solve(&accepted, &SolveOptions::default())
            .unwrap();
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
        let rel = RlspmSolver::new(&inst)
            .solve(&accepted, &SolveOptions::default())
            .unwrap();
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
            let par = maa_instrumented(
                &inst,
                &accepted,
                &base,
                threads,
                &mut RlspmSolver::new(&inst),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(par.schedule, serial.schedule, "threads = {threads}");
            assert_eq!(par.evaluation, serial.evaluation, "threads = {threads}");
        }
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
    fn warm_solver_matches_cold_relaxation_cost() {
        let inst = instance(20, 12);
        let opts = SolveOptions::default();
        let mut solver = RlspmSolver::new(&inst);

        let mut masks = vec![vec![true; 20]];
        let mut partial = vec![true; 20];
        for i in [1, 4, 9, 16] {
            partial[i] = false;
        }
        masks.push(partial);
        masks.push(vec![true; 20]); // back to full: basis reuse again
        masks.push(vec![false; 20]);

        for (k, mask) in masks.iter().enumerate() {
            let warm = solver.solve(mask, &opts).unwrap();
            let cold = RlspmSolver::new(&inst).solve(mask, &opts).unwrap();
            assert_eq!(
                warm.stats.warm_started,
                k > 0,
                "only the first solve is cold"
            );
            assert!(!cold.stats.warm_started);
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
        let mut solver = RlspmSolver::new(&inst);
        let mut some = accepted.clone();
        some[2] = false;
        solver.solve(&some, &options.lp).unwrap();
        let warm = maa_instrumented(
            &inst,
            &accepted,
            &options,
            1,
            &mut solver,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(warm.relaxation.stats.warm_started);
        let cold = maa(&inst, &accepted, &options).unwrap();
        // Degenerate LP optima may differ vertex-wise, but the relaxation
        // value is unique and both pipelines must respect the LP bound.
        assert!((warm.relaxation.cost - cold.relaxation.cost).abs() < 1e-6);
        assert!(warm.evaluation.cost >= warm.relaxation.cost - 1e-6);
        assert_eq!(warm.schedule.num_accepted(), 15);
    }

    #[test]
    fn warm_solver_reset_forces_cold() {
        let inst = instance(12, 14);
        let opts = SolveOptions::default();
        let mut mask = vec![true; 12];
        let mut solver = RlspmSolver::new(&inst);
        solver.solve(&mask, &opts).unwrap();
        for i in [2, 5, 9] {
            mask[i] = false;
            let warm = solver.solve(&mask, &opts).unwrap();
            assert!(warm.stats.warm_started);
        }
        solver.reset_basis();
        let reset = solver.solve(&mask, &opts).unwrap();
        let fresh = RlspmSolver::new(&inst).solve(&mask, &opts).unwrap();
        assert!(!reset.stats.warm_started);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x_bits = |x: &[Vec<f64>]| x.iter().map(|row| bits(row)).collect::<Vec<_>>();
        assert_eq!(x_bits(&reset.x), x_bits(&fresh.x));
        assert_eq!(bits(&reset.c), bits(&fresh.c));
        assert_eq!(reset.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(reset.stats, fresh.stats);
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
