//! Branch-and-bound solver for mixed-integer linear programs.
//!
//! Uses the crate's own simplex for node relaxations, best-bound node
//! selection with depth-first plunging (so integral incumbents appear
//! early), binary-first most-fractional branching, optional warm-start
//! incumbents, and node/time limits with proven bounds. Every node solves
//! its relaxation cold. The paper's `OPT(SPM)` / `OPT(RL-SPM)` baselines
//! and the Fig. 4b optimal-cost reference are solved through this module
//! (the authors used Gurobi 7.5.2 with default settings).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::error::SolveError;
use crate::model::{Problem, Sense};
use crate::simplex::SolveOptions;
use crate::solution::Solution;

/// A value within this distance of an integer counts as integral.
const INT_TOL: f64 = 1e-6;
/// The search stops when `(incumbent − bound) / max(1, |incumbent|)`
/// drops below this relative gap.
const GAP_TOL: f64 = 1e-6;

/// Limits for branch-and-bound.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IlpOptions {
    /// Maximum number of explored nodes; `0` means unlimited.
    pub max_nodes: usize,
    /// Wall-clock budget; `None` means unlimited.
    pub time_limit: Option<Duration>,
    /// Options forwarded to the per-node LP solves.
    pub lp: SolveOptions,
}

/// Why branch-and-bound stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IlpStatus {
    /// Proven optimal within the gap tolerance.
    Optimal,
    /// A feasible incumbent exists but the node budget ran out first.
    NodeLimitFeasible,
    /// A feasible incumbent exists but the time budget ran out first.
    TimeLimitFeasible,
}

/// Result of a branch-and-bound run.
#[derive(Clone, Debug, PartialEq)]
pub struct IlpSolution {
    solution: Solution,
    status: IlpStatus,
    bound: f64,
    nodes: usize,
}

impl IlpSolution {
    /// The incumbent solution (integral within `1e-6`).
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Objective of the incumbent, in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.solution.objective()
    }

    /// Value of one variable in the incumbent.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.solution.value(var)
    }

    /// Termination status.
    pub fn status(&self) -> IlpStatus {
        self.status
    }

    /// Best proven bound on the optimum, in the problem's own sense
    /// (equals the incumbent objective when [`IlpStatus::Optimal`]).
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Relative optimality gap `|incumbent − bound| / max(1, |incumbent|)`.
    pub fn gap(&self) -> f64 {
        (self.objective() - self.bound).abs() / self.objective().abs().max(1.0)
    }

    /// Number of branch-and-bound nodes explored.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

/// A node: bound overrides for the integer variables touched on the path
/// from the root, plus the parent's LP bound (minimization sense).
#[derive(Clone, Debug)]
struct Node {
    bound: f64,
    overrides: Vec<(usize, f64, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        other.bound.total_cmp(&self.bound)
    }
}

/// Solves `problem` to integer optimality (or the configured limits).
///
/// # Errors
///
/// * [`SolveError::Infeasible`] — no integer-feasible point exists.
/// * [`SolveError::Unbounded`] — the LP relaxation is unbounded.
/// * [`SolveError::NodeLimit`] — a limit was hit before any incumbent.
/// * Numerical errors from the underlying simplex.
///
/// # Examples
///
/// ```
/// use metis_lp::{solve_ilp, IlpOptions, Problem, Relation, Sense};
///
/// // Knapsack: max 10a + 13b, 3a + 4b <= 6, binary.
/// let mut p = Problem::new(Sense::Maximize);
/// let a = p.add_int_var(10.0, 0.0, 1.0);
/// let b = p.add_int_var(13.0, 0.0, 1.0);
/// p.add_constraint([(a, 3.0), (b, 4.0)], Relation::Le, 6.0);
/// let sol = solve_ilp(&p, &IlpOptions::default())?;
/// assert_eq!(sol.objective(), 13.0);
/// assert_eq!(sol.value(b), 1.0);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
pub fn solve_ilp(problem: &Problem, options: &IlpOptions) -> Result<IlpSolution, SolveError> {
    solve_ilp_with_start(problem, options, None)
}

/// Like [`solve_ilp`], but seeds branch-and-bound with a known feasible
/// point (a warm start), which prunes the search immediately.
///
/// `start` must assign a value to every variable; it is used only if it
/// is feasible and integral within the configured tolerances, otherwise
/// it is silently ignored.
///
/// # Errors
///
/// Same as [`solve_ilp`].
pub fn solve_ilp_with_start(
    problem: &Problem,
    options: &IlpOptions,
    start: Option<&[f64]>,
) -> Result<IlpSolution, SolveError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "feeds SolveStats timing only; node/iteration limits bound the search"
    )]
    let started = Instant::now();
    let maximize = problem.sense() == Sense::Maximize;
    // Internal bookkeeping is in minimization sense.
    let to_internal = |obj: f64| if maximize { -obj } else { obj };
    let to_external = |obj: f64| if maximize { -obj } else { obj };

    let int_vars: Vec<usize> = problem.integer_vars().iter().map(|v| v.index()).collect();
    let mut work = problem.clone();
    let base_bounds: Vec<(f64, f64)> = int_vars
        .iter()
        .map(|&j| problem.bounds(crate::VarId(j as u32)))
        .collect();

    let mut incumbent: Option<(f64, Solution)> = None; // (internal obj, sol)
    let mut total_iters = 0usize;
    let mut nodes_explored = 0usize;

    // Warm start: adopt the provided point if feasible and integral.
    if let Some(vals) = start {
        if vals.len() == problem.num_vars()
            && problem.max_violation(vals) <= INT_TOL
            && int_vars
                .iter()
                .all(|&j| (vals[j] - vals[j].round()).abs() <= INT_TOL)
        {
            let mut vals = vals.to_vec();
            for &j in &int_vars {
                vals[j] = vals[j].round();
            }
            let obj_ext = problem.eval_objective(&vals);
            incumbent = Some((to_internal(obj_ext), Solution::new(obj_ext, vals, 0)));
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        overrides: Vec::new(),
    });

    let mut best_open_bound = f64::NEG_INFINITY;
    let mut limit_status: Option<IlpStatus> = None;

    'search: while let Some(node) = heap.pop() {
        best_open_bound = node.bound;
        if let Some((inc, _)) = &incumbent {
            // Best-bound order: once the best open bound can't improve on
            // the incumbent by more than the gap, we are done.
            if node.bound >= *inc - GAP_TOL * inc.abs().max(1.0) {
                break;
            }
        }

        // Plunge: follow one child chain depth-first from this node so
        // integral leaves (incumbents) appear early; siblings go to the
        // heap for the best-bound phase.
        let mut current = Some(node);
        while let Some(node) = current.take() {
            if options.max_nodes > 0 && nodes_explored >= options.max_nodes {
                limit_status = Some(IlpStatus::NodeLimitFeasible);
                break 'search;
            }
            if let Some(tl) = options.time_limit {
                if started.elapsed() >= tl {
                    limit_status = Some(IlpStatus::TimeLimitFeasible);
                    break 'search;
                }
            }
            nodes_explored += 1;

            // Apply this node's bounds.
            for (k, &j) in int_vars.iter().enumerate() {
                let (lo, up) = base_bounds[k];
                work.set_bounds(crate::VarId(j as u32), lo, up);
            }
            let mut conflict = false;
            for &(j, lo, up) in &node.overrides {
                let v = crate::VarId(j as u32);
                let (clo, cup) = work.bounds(v);
                let nlo = clo.max(lo);
                let nup = cup.min(up);
                if nlo > nup {
                    conflict = true;
                    break;
                }
                work.set_bounds(v, nlo, nup);
            }
            if conflict {
                continue;
            }

            let lp = match work.solve_with(&options.lp) {
                Ok(sol) => sol,
                Err(SolveError::Infeasible) => continue,
                Err(SolveError::Unbounded) => {
                    // Unbounded relaxation at the root means the MILP is
                    // unbounded (or infeasible; we report unbounded).
                    if node.overrides.is_empty() {
                        return Err(SolveError::Unbounded);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            total_iters += lp.iterations();
            let node_obj = to_internal(lp.objective());

            if let Some((inc, _)) = &incumbent {
                if node_obj >= *inc - GAP_TOL * inc.abs().max(1.0) {
                    continue; // cannot beat the incumbent
                }
            }

            // Find the most fractional integer variable. Binary variables
            // are branched before general integers: fixing the structural
            // 0/1 decisions usually settles the integer capacities.
            let mut branch: Option<(usize, f64, f64)> = None; // (var, value, score)
            for &j in &int_vars {
                let v = lp.values()[j];
                let frac = (v - v.round()).abs();
                if frac > INT_TOL {
                    let (blo, bup) = problem.bounds(crate::VarId(j as u32));
                    let is_binary = blo >= -INT_TOL && bup <= 1.0 + INT_TOL;
                    // Lower score = better candidate.
                    let score = (v.fract().abs() - 0.5).abs() + if is_binary { 0.0 } else { 1.0 };
                    match branch {
                        Some((_, _, s)) if s <= score => {}
                        _ => branch = Some((j, v, score)),
                    }
                }
            }

            match branch {
                None => {
                    // Integral: new incumbent (round off the tolerance fuzz).
                    let mut vals = lp.values().to_vec();
                    for &j in &int_vars {
                        vals[j] = vals[j].round();
                    }
                    let obj_ext = problem.eval_objective(&vals);
                    let obj_int = to_internal(obj_ext);
                    let better = incumbent
                        .as_ref()
                        .map(|(inc, _)| obj_int < *inc)
                        .unwrap_or(true);
                    if better {
                        incumbent = Some((obj_int, Solution::new(obj_ext, vals, total_iters)));
                    }
                }
                Some((j, v, _)) => {
                    let mut down = node.overrides.clone();
                    down.push((j, f64::NEG_INFINITY, v.floor()));
                    let mut up = node.overrides.clone();
                    up.push((j, v.ceil(), f64::INFINITY));
                    // Plunge toward the rounding of the fractional value;
                    // the other child waits in the heap.
                    let (dive, defer) = if v - v.floor() >= 0.5 {
                        (up, down)
                    } else {
                        (down, up)
                    };
                    heap.push(Node {
                        bound: node_obj,
                        overrides: defer,
                    });
                    current = Some(Node {
                        bound: node_obj,
                        overrides: dive,
                    });
                }
            }
        }
    }

    let (inc_obj, solution) = incumbent.ok_or(if limit_status.is_some() {
        SolveError::NodeLimit
    } else {
        SolveError::Infeasible
    })?;

    let status = match limit_status {
        Some(s) => s,
        None => IlpStatus::Optimal,
    };
    // Bound: the best open bound if the search was cut short, else the
    // incumbent itself.
    let bound_internal = match status {
        IlpStatus::Optimal => inc_obj,
        _ => heap
            .peek()
            .map(|n| n.bound)
            .unwrap_or(best_open_bound)
            .min(inc_obj),
    };

    Ok(IlpSolution {
        solution,
        status,
        bound: to_external(bound_internal),
        nodes: nodes_explored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn knapsack_small() {
        // max 60x1 + 100x2 + 120x3, 10x1 + 20x2 + 30x3 <= 50, binary.
        // Optimal: x2 + x3 = 220.
        let mut p = Problem::new(Sense::Maximize);
        let x1 = p.add_int_var(60.0, 0.0, 1.0);
        let x2 = p.add_int_var(100.0, 0.0, 1.0);
        let x3 = p.add_int_var(120.0, 0.0, 1.0);
        p.add_constraint([(x1, 10.0), (x2, 20.0), (x3, 30.0)], Relation::Le, 50.0);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 220.0);
        assert_close(s.value(x1), 0.0);
        assert_close(s.value(x2), 1.0);
        assert_close(s.value(x3), 1.0);
        assert_eq!(s.status(), IlpStatus::Optimal);
        assert!(s.gap() < 1e-9);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y, 2x + 2y <= 5, integer → LP gives 2.5, ILP gives 2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_int_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_int_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 2.0), (y, 2.0)], Relation::Le, 5.0);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 2.0);
    }

    #[test]
    fn mixed_integer() {
        // max 3x + 2y, x integer, y continuous; x + y <= 4.5; x <= 3.2.
        // x = 3, y = 1.5 → 12.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_int_var(3.0, 0.0, 3.2);
        let y = p.add_var(2.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.5);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 12.0);
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 1.5);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6, x integer → infeasible.
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_int_var(1.0, 0.4, 0.6);
        assert_eq!(
            solve_ilp(&p, &IlpOptions::default()).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer vars: B&B returns the LP optimum in one node.
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(1.0, 0.0, 2.5);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 2.5);
        assert_eq!(s.nodes(), 1);
    }

    #[test]
    fn equality_constrained_ilp() {
        // min 5x + 4y s.t. x + y = 7, 2x + y >= 10, integer → x=3,y=4: 31.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_int_var(5.0, 0.0, f64::INFINITY);
        let y = p.add_int_var(4.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 7.0);
        p.add_constraint([(x, 2.0), (y, 1.0)], Relation::Ge, 10.0);
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 31.0);
    }

    #[test]
    fn subset_sum_style() {
        // The paper's NP-hardness gadget: pick a subset of {3,5,7,11}
        // summing to as much as possible without exceeding 15 → 3+5+7=15.
        let weights = [3.0, 5.0, 7.0, 11.0];
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = weights
            .iter()
            .map(|&w| p.add_int_var(w, 0.0, 1.0))
            .collect();
        p.add_constraint(
            vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
            Relation::Le,
            15.0,
        );
        let s = solve_ilp(&p, &IlpOptions::default()).unwrap();
        assert_close(s.objective(), 15.0);
    }

    #[test]
    fn respects_node_limit() {
        // A 12-item knapsack with correlated weights forces branching.
        let mut p = Problem::new(Sense::Maximize);
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_int_var(10.0 + (i as f64), 0.0, 1.0))
            .collect();
        p.add_constraint(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 7.0 + (i as f64 % 3.0))),
            Relation::Le,
            31.0,
        );
        let opts = IlpOptions {
            max_nodes: 1,
            ..IlpOptions::default()
        };
        match solve_ilp(&p, &opts) {
            Ok(sol) => assert!(matches!(
                sol.status(),
                IlpStatus::NodeLimitFeasible | IlpStatus::Optimal
            )),
            Err(SolveError::NodeLimit) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn bound_brackets_optimum_under_limits() {
        let mut p = Problem::new(Sense::Maximize);
        let n = 10;
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_int_var(5.0 + (i as f64) * 1.3, 0.0, 1.0))
            .collect();
        p.add_constraint(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 3.0 + (i as f64 * 0.7) % 2.0)),
            Relation::Le,
            11.0,
        );
        let full = solve_ilp(&p, &IlpOptions::default()).unwrap();
        let limited = solve_ilp(
            &p,
            &IlpOptions {
                max_nodes: 3,
                ..IlpOptions::default()
            },
        );
        if let Ok(sol) = limited {
            // For maximization: incumbent <= optimum <= reported bound.
            assert!(sol.objective() <= full.objective() + 1e-6);
            assert!(sol.bound() >= full.objective() - 1e-6);
        }
    }
}
