//! Presolve: problem reductions applied before the simplex.
//!
//! Large generated models (like the RL-SPM/BL-SPM LPs in this workspace)
//! carry easy structure — fixed variables, empty rows, singleton rows
//! that are really bounds. Removing it shrinks the basis the simplex has
//! to factor. The reductions implemented, iterated to a fixed point:
//!
//! 1. **Empty rows** — consistency-checked and dropped.
//! 2. **Singleton rows** — `a·x (rel) b` over one variable becomes a
//!    tightened bound on that variable.
//! 3. **Fixed variables** (`lower == upper`) — substituted into every row
//!    and into the objective constant.
//! 4. **Empty columns** — moved to whichever finite bound the objective
//!    prefers (detecting unboundedness when there is none).
//!
//! [`presolve`] returns the reduced problem plus a [`Restoration`] that
//! maps reduced solutions back to the original variable space.

use crate::error::SolveError;
use crate::model::{Problem, Relation, Sense, VarId};
use crate::solution::{Solution, SolveStats};

/// Counts of what presolve removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PresolveReport {
    /// Rows dropped (empty or converted to bounds).
    pub removed_rows: usize,
    /// Variables eliminated (fixed or empty columns).
    pub removed_vars: usize,
    /// Fixed-point iterations performed.
    pub passes: usize,
}

/// Maps a reduced solution back onto the original variables.
#[derive(Clone, Debug)]
pub struct Restoration {
    /// For each original variable: either its fixed value or its index in
    /// the reduced problem.
    mapping: Vec<VarFate>,
    /// Objective contribution of the eliminated variables.
    objective_offset: f64,
    sense: Sense,
}

#[derive(Clone, Copy, Debug)]
enum VarFate {
    Fixed(f64),
    Kept(usize),
}

impl Restoration {
    /// Number of original variables.
    pub fn num_original_vars(&self) -> usize {
        self.mapping.len()
    }

    /// Lifts a reduced-space solution into the original space.
    ///
    /// # Panics
    ///
    /// Panics if `reduced` does not match the reduced problem's width.
    pub fn restore(&self, reduced: &Solution) -> Solution {
        let values: Vec<f64> = self
            .mapping
            .iter()
            .map(|fate| match fate {
                VarFate::Fixed(v) => *v,
                VarFate::Kept(j) => reduced.values()[*j],
            })
            .collect();
        let obj = reduced.objective() + self.objective_offset;
        let _ = self.sense;
        Solution::new(obj, values, reduced.iterations())
            .with_stats(*reduced.stats())
            .with_trace(reduced.trace().clone())
    }
}

/// Applies the reductions and returns `(reduced problem, restoration,
/// report)`.
///
/// # Errors
///
/// * [`SolveError::Infeasible`] when a reduction proves the constraints
///   empty (e.g. an empty row with an unsatisfiable right-hand side).
/// * [`SolveError::Unbounded`] when an empty column can improve the
///   objective forever.
///
/// # Examples
///
/// ```
/// use metis_lp::{presolve, Problem, Relation, Sense};
///
/// let mut p = Problem::new(Sense::Minimize);
/// let x = p.add_var(1.0, 0.0, 10.0);
/// let y = p.add_var(2.0, 3.0, 3.0);            // fixed
/// p.add_constraint([(x, 1.0)], Relation::Ge, 4.0); // singleton → bound
/// p.add_constraint([(x, 0.0)], Relation::Le, 1.0); // empty row
/// let _ = y;
///
/// let (reduced, restoration, report) = presolve(&p)?;
/// // The singleton row becomes the bound x ≥ 4, after which x is an
/// // empty column: everything presolves away.
/// assert_eq!(reduced.num_constraints(), 0);
/// assert_eq!(reduced.num_vars(), 0);
/// assert_eq!(report.removed_vars, 2);
///
/// let sol = restoration.restore(&reduced.solve()?);
/// assert!((sol.objective() - (4.0 + 6.0)).abs() < 1e-9);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
pub fn presolve(problem: &Problem) -> Result<(Problem, Restoration, PresolveReport), SolveError> {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let tol = 1e-9;

    // Working copies.
    let mut lower: Vec<f64> = (0..n).map(|j| problem.bounds(problem.var(j)).0).collect();
    let mut upper: Vec<f64> = (0..n).map(|j| problem.bounds(problem.var(j)).1).collect();
    let obj: Vec<f64> = (0..n)
        .map(|j| problem.objective_coeff(problem.var(j)))
        .collect();
    let relations = problem.row_relations();
    let mut rhs = problem.row_rhs();
    let by_col = problem.entries_by_column();
    // Row-wise view.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (j, col) in by_col.iter().enumerate() {
        for &(r, v) in col {
            rows[r].push((j, v));
        }
    }

    let mut var_alive = vec![true; n];
    let mut var_fixed_at = vec![f64::NAN; n];
    let mut row_alive = vec![true; m];
    let mut report = PresolveReport::default();

    loop {
        report.passes += 1;
        let mut changed = false;

        // Fixed variables: substitute into rows.
        for j in 0..n {
            if var_alive[j] && upper[j] - lower[j] <= tol {
                let v = lower[j];
                var_alive[j] = false;
                var_fixed_at[j] = v;
                report.removed_vars += 1;
                changed = true;
                if v != 0.0 {
                    for &(r, coef) in &by_col[j] {
                        rhs[r] -= coef * v;
                    }
                }
            }
        }

        for r in 0..m {
            if !row_alive[r] {
                continue;
            }
            let live: Vec<(usize, f64)> = rows[r]
                .iter()
                .copied()
                .filter(|&(j, _)| var_alive[j])
                .collect();
            match live.len() {
                0 => {
                    // Empty row: must be consistent on its own.
                    let ok = match relations[r] {
                        Relation::Le => 0.0 <= rhs[r] + tol,
                        Relation::Ge => 0.0 >= rhs[r] - tol,
                        Relation::Eq => rhs[r].abs() <= tol,
                    };
                    if !ok {
                        return Err(SolveError::Infeasible);
                    }
                    row_alive[r] = false;
                    report.removed_rows += 1;
                    changed = true;
                }
                1 => {
                    // Singleton row → bound.
                    let (j, a) = live[0];
                    if a.abs() <= tol {
                        continue; // effectively empty; next pass handles it
                    }
                    let b = rhs[r] / a;
                    let (mut nlo, mut nup) = (lower[j], upper[j]);
                    match (relations[r], a > 0.0) {
                        (Relation::Le, true) | (Relation::Ge, false) => nup = nup.min(b),
                        (Relation::Ge, true) | (Relation::Le, false) => nlo = nlo.max(b),
                        (Relation::Eq, _) => {
                            nlo = nlo.max(b);
                            nup = nup.min(b);
                        }
                    }
                    if problem.is_integer(problem.var(j)) {
                        // Integer variables can round their bounds inward.
                        if nlo.is_finite() {
                            nlo = (nlo - tol).ceil();
                        }
                        if nup.is_finite() {
                            nup = (nup + tol).floor();
                        }
                    }
                    if nlo > nup + tol {
                        return Err(SolveError::Infeasible);
                    }
                    lower[j] = nlo;
                    upper[j] = nup.max(nlo);
                    row_alive[r] = false;
                    report.removed_rows += 1;
                    changed = true;
                }
                _ => {}
            }
        }

        // Empty columns: push to the objective-preferred bound.
        for j in 0..n {
            if !var_alive[j] {
                continue;
            }
            let appears = by_col[j].iter().any(|&(r, _)| row_alive[r]);
            if appears {
                continue;
            }
            let minimize = problem.sense() == Sense::Minimize;
            let prefer_low = (obj[j] > 0.0) == minimize;
            let is_int = problem.is_integer(problem.var(j));
            // Integer variables must rest on an integral point inside
            // their (possibly fractional) bounds.
            let low_rest = if is_int {
                (lower[j] - tol).ceil()
            } else {
                lower[j]
            };
            let up_rest = if is_int {
                (upper[j] + tol).floor()
            } else {
                upper[j]
            };
            if is_int && low_rest > up_rest + tol {
                return Err(SolveError::Infeasible);
            }
            let target = if obj[j] == 0.0 {
                // Indifferent: any finite resting point will do.
                if low_rest.is_finite() {
                    low_rest
                } else if up_rest.is_finite() {
                    up_rest
                } else {
                    0.0
                }
            } else if prefer_low {
                if low_rest.is_finite() {
                    low_rest
                } else {
                    return Err(SolveError::Unbounded);
                }
            } else if up_rest.is_finite() {
                up_rest
            } else {
                return Err(SolveError::Unbounded);
            };
            var_alive[j] = false;
            var_fixed_at[j] = target;
            report.removed_vars += 1;
            changed = true;
        }

        if !changed {
            break;
        }
    }

    // Assemble the reduced problem.
    let mut reduced = Problem::new(problem.sense());
    let mut mapping = Vec::with_capacity(n);
    let mut objective_offset = 0.0;
    let mut new_index = vec![usize::MAX; n];
    for j in 0..n {
        if var_alive[j] {
            let id = reduced.add_var(obj[j], lower[j], upper[j]);
            reduced.set_integer(id, problem.is_integer(problem.var(j)));
            new_index[j] = id.index();
            mapping.push(VarFate::Kept(id.index()));
        } else {
            objective_offset += obj[j] * var_fixed_at[j];
            mapping.push(VarFate::Fixed(var_fixed_at[j]));
        }
    }
    for r in 0..m {
        if !row_alive[r] {
            continue;
        }
        let terms: Vec<(VarId, f64)> = rows[r]
            .iter()
            .filter(|&&(j, _)| var_alive[j])
            .map(|&(j, v)| (reduced.var(new_index[j]), v))
            .collect();
        reduced.add_constraint(terms, relations[r], rhs[r]);
    }

    Ok((
        reduced,
        Restoration {
            mapping,
            objective_offset,
            sense: problem.sense(),
        },
        report,
    ))
}

/// Convenience: presolve, solve the reduction, and lift the solution.
///
/// # Errors
///
/// Propagates presolve detections and simplex failures.
pub fn presolve_and_solve(problem: &Problem) -> Result<Solution, SolveError> {
    let (reduced, restoration, report) = presolve(problem)?;
    let sol = reduced.solve()?;
    let restored = restoration.restore(&sol);
    // The restoration step is the error-prone half of presolve: certify
    // the *restored* point against the *original* problem in debug
    // builds, not just the reduced solve against the reduced problem.
    if cfg!(debug_assertions) {
        crate::verify::verify(problem, &restored, 1e-6)?;
    }
    let stats = SolveStats {
        presolve_removed_rows: report.removed_rows,
        presolve_removed_vars: report.removed_vars,
        ..*restored.stats()
    };
    Ok(restored.with_stats(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn removes_empty_rows() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 5.0);
        p.add_constraint([(x, 0.0)], Relation::Le, 3.0);
        let (r, _, report) = presolve(&p).unwrap();
        assert_eq!(r.num_constraints(), 0);
        assert_eq!(report.removed_rows, 1);
    }

    #[test]
    fn inconsistent_empty_row_is_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 5.0);
        p.add_constraint([(x, 0.0)], Relation::Ge, 3.0);
        assert_eq!(presolve(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 100.0);
        let y = p.add_var(1.0, 0.0, 100.0);
        p.add_constraint([(x, 2.0)], Relation::Ge, 10.0); // x ≥ 5
        p.add_constraint([(y, -1.0)], Relation::Ge, -7.0); // y ≤ 7
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 50.0);
        let (r, _, report) = presolve(&p).unwrap();
        assert_eq!(r.num_constraints(), 1);
        assert_eq!(report.removed_rows, 2);
        assert_eq!(r.bounds(r.var(0)), (5.0, 100.0));
        assert_eq!(r.bounds(r.var(1)), (0.0, 7.0));
    }

    #[test]
    fn conflicting_singletons_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 100.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 5.0);
        assert_eq!(presolve(&p).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn fixed_vars_substituted() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 10.0);
        let f = p.add_var(5.0, 2.0, 2.0);
        p.add_constraint([(x, 1.0), (f, 3.0)], Relation::Ge, 10.0); // x ≥ 4
        let (r, restoration, report) = presolve(&p).unwrap();
        // Fixing f turns the row into a singleton bound on x, which then
        // leaves x as an empty column — both variables get eliminated.
        assert_eq!(report.removed_vars, 2);
        assert_eq!(r.num_vars(), 0);
        let sol = restoration.restore(&r.solve().unwrap());
        // x = 4, f = 2 → obj 4 + 10 = 14.
        assert_close(sol.objective(), 14.0);
        assert_close(sol.values()[0], 4.0);
        assert_close(sol.values()[1], 2.0);
    }

    #[test]
    fn empty_columns_rest_at_preferred_bound() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(2.0, 0.0, 3.0); // empty, wants upper
        let y = p.add_var(-1.0, -1.0, 5.0); // empty, wants lower
        let _ = (x, y);
        let (r, restoration, _) = presolve(&p).unwrap();
        assert_eq!(r.num_vars(), 0);
        let sol = restoration.restore(&r.solve().unwrap());
        assert_close(sol.values()[0], 3.0);
        assert_close(sol.values()[1], -1.0);
        assert_close(sol.objective(), 7.0);
    }

    #[test]
    fn unbounded_empty_column_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let _x = p.add_var(1.0, 0.0, f64::INFINITY);
        assert_eq!(presolve(&p).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn presolve_then_solve_matches_direct_solve() {
        // A problem exercising every reduction at once.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(3.0, 0.0, 10.0);
        let y = p.add_var(1.0, 0.0, 10.0);
        let f = p.add_var(2.0, 1.5, 1.5);
        let z = p.add_var(-1.0, 0.0, 4.0); // becomes empty after reductions
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0);
        p.add_constraint([(x, 1.0), (y, 1.0), (f, 1.0)], Relation::Ge, 6.0);
        p.add_constraint([(z, 0.0)], Relation::Le, 1.0);
        let direct = p.solve().unwrap();
        let via = presolve_and_solve(&p).unwrap();
        assert_close(via.objective(), direct.objective());
        assert!(p.max_violation(via.values()) < 1e-6);
    }

    #[test]
    fn integrality_markers_survive() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_int_var(1.0, 0.0, 9.0);
        let f = p.add_var(0.0, 1.0, 1.0);
        p.add_constraint([(x, 1.0), (f, 1.0)], Relation::Ge, 3.5);
        // f = 1 fixes, leaving the singleton x ≥ 2.5 which rounds up to
        // x ≥ 3 for the integer variable; x then rests at 3.
        let (r, restoration, _) = presolve(&p).unwrap();
        assert_eq!(r.num_vars(), 0);
        let sol = restoration.restore(&r.solve().unwrap());
        assert_close(sol.values()[0], 3.0);
    }

    #[test]
    fn integer_var_kept_in_rows_stays_integer() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_int_var(1.0, 0.0, 9.0);
        let y = p.add_var(1.0, 0.0, 9.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        let (r, _, _) = presolve(&p).unwrap();
        assert_eq!(r.num_vars(), 2);
        assert!(r.is_integer(r.var(0)));
        assert!(!r.is_integer(r.var(1)));
    }

    #[test]
    fn cascading_reductions_reach_fixpoint() {
        // Fixing x empties a row, which frees y into an empty column.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 4.0, 4.0);
        let y = p.add_var(2.0, 0.0, 8.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let _ = y;
        let (r, restoration, report) = presolve(&p).unwrap();
        assert_eq!(r.num_vars(), 0);
        assert_eq!(r.num_constraints(), 0);
        assert!(report.passes >= 2);
        let sol = restoration.restore(&r.solve().unwrap());
        assert_close(sol.objective(), 4.0);
    }
}
