//! Exact optima via branch-and-bound MILP: the paper's `OPT(SPM)` and
//! `OPT(RL-SPM)` references (Fig. 3), solved with Gurobi there and with
//! [`metis_lp::solve_ilp`] here.
//!
//! Both formulations use binary path variables `x_{i,j}` and *integer*
//! charged bandwidth `c_e` (constraint (3) of the paper). Node and time
//! limits make the solvers usable as baselines on larger instances: the
//! outcome then carries the proven bound and an optimality flag.

use metis_core::{Evaluation, Schedule, SpmInstance};
use metis_lp::{
    solve_ilp_with_start, IlpOptions, IlpStatus, Problem, Relation, Sense, SolveError, VarId,
};
use metis_workload::RequestId;

/// Result of an exact (or time-limited) MILP solve.
#[derive(Clone, Debug)]
pub struct OptOutcome {
    /// The incumbent schedule.
    pub schedule: Schedule,
    /// Its evaluation under the standard peak-charging model.
    pub evaluation: Evaluation,
    /// Proven bound on the MILP objective (≥ profit for `OPT(SPM)`,
    /// ≤ cost for `OPT(RL-SPM)` when the run was cut short).
    pub bound: f64,
    /// Whether the solve proved optimality.
    pub optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

/// Encodes a feasible schedule as a MILP warm-start vector: chosen paths
/// as `x = 1`, charged peak units as `c_e`.
fn encode_start(
    instance: &SpmInstance,
    schedule: &Schedule,
    xvars: &[Vec<VarId>],
    cvars: &[VarId],
    num_vars: usize,
) -> Vec<f64> {
    let mut vals = vec![0.0; num_vars];
    for i in 0..instance.num_requests() {
        if let Some(j) = schedule.path_choice(RequestId(i as u32)) {
            vals[xvars[i][j].index()] = 1.0;
        }
    }
    let load = schedule.load(instance);
    for (e, &v) in cvars.iter().enumerate() {
        vals[v.index()] = load.charged_units(metis_netsim::EdgeId(e as u32)) as f64;
    }
    vals
}

fn extract_schedule(
    instance: &SpmInstance,
    xvars: &[Vec<VarId>],
    values: impl Fn(VarId) -> f64,
) -> Schedule {
    let mut schedule = Schedule::decline_all(instance.num_requests());
    for (i, vars) in xvars.iter().enumerate() {
        for (j, &v) in vars.iter().enumerate() {
            if values(v) > 0.5 {
                schedule.set(RequestId(i as u32), Some(j));
                break;
            }
        }
    }
    schedule
}

/// A generous upper bound on any `c_e`: the total concurrent demand.
fn capacity_upper_bound(instance: &SpmInstance) -> f64 {
    instance
        .requests()
        .iter()
        .map(|r| r.rate)
        .sum::<f64>()
        .ceil()
        .max(1.0)
}

/// Builds the shared constraint structure: binary `x`, integer `c`,
/// `Σ_j x_{i,j} (≤ or =) 1`, and per-(edge, slot) load rows.
fn build_problem(
    instance: &SpmInstance,
    sense: Sense,
    demand: Relation,
    x_obj: impl Fn(usize) -> f64,
    c_obj_sign: f64,
) -> (Problem, Vec<Vec<VarId>>, Vec<VarId>) {
    let topo = instance.topology();
    let c_ub = capacity_upper_bound(instance);

    let mut p = Problem::new(sense);
    let mut xvars: Vec<Vec<VarId>> = Vec::with_capacity(instance.num_requests());
    for (i, (_, paths)) in instance.iter().enumerate() {
        xvars.push(
            paths
                .iter()
                .map(|_| p.add_int_var(x_obj(i), 0.0, 1.0))
                .collect(),
        );
    }
    let cvars: Vec<VarId> = topo
        .edge_ids()
        .map(|e| p.add_int_var(c_obj_sign * topo.price(e), 0.0, c_ub))
        .collect();

    for vars in &xvars {
        p.add_constraint(vars.iter().map(|&v| (v, 1.0)), demand, 1.0);
    }

    for (e, terms) in instance.load_rows(&xvars) {
        let row = terms.into_iter().chain([(cvars[e], -1.0)]);
        p.add_constraint(row, Relation::Le, 0.0);
    }
    (p, xvars, cvars)
}

/// `OPT(SPM)`: maximize `Σ v_i x_i − Σ u_e c_e` exactly (subject to the
/// configured node/time limits).
///
/// # Errors
///
/// Propagates MILP failures; with limits set, a [`SolveError::NodeLimit`]
/// means no feasible incumbent was found in budget (should not happen —
/// declining everything is always feasible).
///
/// # Examples
///
/// ```
/// use metis_baselines::opt_spm;
/// use metis_core::SpmInstance;
/// use metis_lp::IlpOptions;
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(8, 1));
/// let instance = SpmInstance::new(topo, requests, 12, 2);
/// let opt = opt_spm(&instance, &IlpOptions::default())?;
/// assert!(opt.evaluation.profit >= 0.0);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
pub fn opt_spm(instance: &SpmInstance, options: &IlpOptions) -> Result<OptOutcome, SolveError> {
    // Warm start from the better of EcoFlow and declining everything.
    let eco = crate::ecoflow(instance);
    let start = if eco.evaluate(instance).profit > 0.0 {
        eco
    } else {
        Schedule::decline_all(instance.num_requests())
    };
    opt_spm_with_start(instance, options, &start)
}

/// [`opt_spm`] seeded with a caller-provided feasible schedule (e.g. the
/// Metis result), guaranteeing the outcome is at least as profitable.
///
/// # Errors
///
/// Propagates MILP failures.
pub fn opt_spm_with_start(
    instance: &SpmInstance,
    options: &IlpOptions,
    start: &Schedule,
) -> Result<OptOutcome, SolveError> {
    let values: Vec<f64> = instance.requests().iter().map(|r| r.value).collect();
    let (p, xvars, cvars) =
        build_problem(instance, Sense::Maximize, Relation::Le, |i| values[i], -1.0);
    let start = encode_start(instance, start, &xvars, &cvars, p.num_vars());
    let sol = solve_ilp_with_start(&p, options, Some(&start))?;
    let schedule = extract_schedule(instance, &xvars, |v| sol.value(v));
    let evaluation = schedule.evaluate(instance);
    Ok(OptOutcome {
        schedule,
        evaluation,
        bound: sol.bound(),
        optimal: sol.status() == IlpStatus::Optimal,
        nodes: sol.nodes(),
    })
}

/// `OPT(RL-SPM)`: serve **all** requests at exactly minimal bandwidth
/// cost (the "current service mode" reference of Fig. 3).
///
/// # Errors
///
/// Propagates MILP failures.
pub fn opt_rlspm(instance: &SpmInstance, options: &IlpOptions) -> Result<OptOutcome, SolveError> {
    let (p, xvars, cvars) = build_problem(instance, Sense::Minimize, Relation::Eq, |_| 0.0, 1.0);
    // Warm start from MAA's accept-all schedule (always feasible).
    let accepted = vec![true; instance.num_requests()];
    let start = metis_core::maa(instance, &accepted, &metis_core::MaaOptions::default())
        .ok()
        .map(|m| encode_start(instance, &m.schedule, &xvars, &cvars, p.num_vars()));
    let sol = solve_ilp_with_start(&p, options, start.as_deref())?;
    let schedule = extract_schedule(instance, &xvars, |v| sol.value(v));
    let evaluation = schedule.evaluate(instance);
    Ok(OptOutcome {
        schedule,
        evaluation,
        bound: sol.bound(),
        optimal: sol.status() == IlpStatus::Optimal,
        nodes: sol.nodes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64, paths: usize) -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, reqs, 12, paths)
    }

    #[test]
    fn opt_spm_profit_nonnegative_and_dominates_heuristics() {
        let inst = instance(10, 1, 2);
        let opt = opt_spm(&inst, &IlpOptions::default()).unwrap();
        assert!(opt.optimal);
        assert!(opt.evaluation.profit >= -1e-9);

        // OPT(SPM) must beat EcoFlow and the accept-all MAA schedule.
        let eco = crate::ecoflow(&inst).evaluate(&inst);
        assert!(opt.evaluation.profit >= eco.profit - 1e-6);
    }

    #[test]
    fn opt_rlspm_accepts_everything() {
        let inst = instance(8, 2, 2);
        let opt = opt_rlspm(&inst, &IlpOptions::default()).unwrap();
        assert!(opt.optimal);
        assert_eq!(opt.evaluation.accepted, 8);
    }

    #[test]
    fn opt_rlspm_cost_lower_bounds_maa() {
        let inst = instance(10, 3, 2);
        let opt = opt_rlspm(&inst, &IlpOptions::default()).unwrap();
        let m = metis_core::maa(
            &inst,
            &vec![true; inst.num_requests()],
            &metis_core::MaaOptions::default(),
        )
        .unwrap();
        assert!(opt.evaluation.cost <= m.evaluation.cost + 1e-6);
    }

    #[test]
    fn opt_spm_at_least_rlspm_profit() {
        // Declining is always allowed, so OPT(SPM) ≥ profit of serving all.
        let inst = instance(9, 4, 2);
        let spm = opt_spm(&inst, &IlpOptions::default()).unwrap();
        let rl = opt_rlspm(&inst, &IlpOptions::default()).unwrap();
        let rl_profit = rl.evaluation.revenue - rl.evaluation.cost;
        assert!(spm.evaluation.profit >= rl_profit - 1e-6);
    }

    #[test]
    fn ilp_objective_matches_evaluation() {
        // The MILP's profit must agree with the schedule-level accounting.
        let inst = instance(7, 5, 2);
        let opt = opt_spm(&inst, &IlpOptions::default()).unwrap();
        assert!(
            (opt.bound - opt.evaluation.profit).abs() < 1e-6,
            "ILP bound {} vs evaluated profit {}",
            opt.bound,
            opt.evaluation.profit
        );
    }

    #[test]
    fn single_lucrative_request_is_served() {
        let topo = topologies::sub_b4();
        let r = metis_workload::Request {
            id: RequestId(0),
            src: metis_netsim::NodeId(0),
            dst: metis_netsim::NodeId(1),
            start: 0,
            end: 5,
            rate: 0.4,
            value: 100.0,
        };
        let inst = SpmInstance::new(topo, vec![r], 12, 2);
        let opt = opt_spm(&inst, &IlpOptions::default()).unwrap();
        assert_eq!(opt.evaluation.accepted, 1);
    }

    #[test]
    fn single_worthless_request_is_declined() {
        let topo = topologies::sub_b4();
        let r = metis_workload::Request {
            id: RequestId(0),
            src: metis_netsim::NodeId(0),
            dst: metis_netsim::NodeId(1),
            start: 0,
            end: 5,
            rate: 0.4,
            value: 1e-9,
        };
        let inst = SpmInstance::new(topo, vec![r], 12, 2);
        let opt = opt_spm(&inst, &IlpOptions::default()).unwrap();
        assert_eq!(opt.evaluation.accepted, 0);
        assert!(opt.evaluation.profit.abs() < 1e-9);
    }
}
