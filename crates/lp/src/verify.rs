//! Independent certification of reported LP solutions.
//!
//! A simplex solve does a sparse LU refactorization plus FTRAN/BTRAN
//! triangular solves per pivot; checking its answer is one sparse
//! matrix-vector product. This module recomputes, from the
//! [`Problem`] alone, everything a [`Solution`] claims — row activities,
//! bound satisfaction, and the objective value — and compares against
//! the reported figures. It shares no state with the solver: the row
//! activities are accumulated in one pass over the problem's own
//! `(row, col, coeff)` entries, never from the solver's cached standard
//! form, so a bug in the solver cannot also hide in the check.
//! [`Problem::max_violation`] reads the same pass.
//!
//! Certification runs automatically after every solve under
//! `debug_assertions` or when [`SolveOptions::verify`] is set (which
//! `MetisConfig::audit` turns on for every LP the alternation issues).
//!
//! [`SolveOptions::verify`]: crate::SolveOptions::verify

use crate::error::SolveError;
use crate::model::{Problem, Relation};
use crate::solution::Solution;

/// The recomputed facts about one reported solution.
///
/// Produced by [`certify`]; [`Certificate::accepted`] is the verdict.
#[derive(Clone, Copy, Debug)]
pub struct Certificate {
    /// Largest `Ax − b` residual in the violating direction over all
    /// rows (`0.0` when every row holds).
    pub max_row_residual: f64,
    /// Largest excursion of any variable outside `[lower, upper]`.
    pub max_bound_violation: f64,
    /// Objective value the solver reported.
    pub reported_objective: f64,
    /// Objective recomputed as `c·x` from the problem's coefficients.
    pub recomputed_objective: f64,
    /// Tolerance the verdict was taken at.
    pub tol: f64,
}

impl Certificate {
    /// Whether the solution passes: residuals and bound violations within
    /// `tol`, and the reported objective within `tol·(1 + |c·x|)` of the
    /// recomputed one.
    pub fn accepted(&self) -> bool {
        self.max_row_residual <= self.tol
            && self.max_bound_violation <= self.tol
            && self.objective_gap() <= self.tol * (1.0 + self.recomputed_objective.abs())
    }

    /// Absolute gap between reported and recomputed objective.
    pub fn objective_gap(&self) -> f64 {
        (self.reported_objective - self.recomputed_objective).abs()
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row residual {:.3e}, bound violation {:.3e}, objective gap {:.3e} (tol {:.1e})",
            self.max_row_residual,
            self.max_bound_violation,
            self.objective_gap(),
            self.tol
        )
    }
}

/// Recomputes the certificate for `solution` against `problem` at `tol`.
///
/// Never fails; inspect [`Certificate::accepted`] for the verdict, or use
/// [`verify`] for the `Result` form.
pub fn certify(problem: &Problem, solution: &Solution, tol: f64) -> Certificate {
    let x = solution.values();
    let (max_row_residual, max_bound_violation) = residuals(problem, x);
    Certificate {
        max_row_residual,
        max_bound_violation,
        reported_objective: solution.objective(),
        recomputed_objective: problem.eval_objective(x),
        tol,
    }
}

/// The largest row residual of `x` in the violating direction and its
/// largest excursion outside the variable bounds, each `0.0` when none
/// is violated, from one pass over the problem's `(row, col, coeff)`
/// entries. A NaN activity or value counts as an infinite violation.
///
/// # Panics
///
/// Panics if `x.len() != problem.num_vars()`.
pub(crate) fn residuals(problem: &Problem, x: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), problem.vars.len());
    let mut activity = vec![0.0; problem.rows.len()];
    for &(r, c, v) in &problem.entries {
        activity[r as usize] += v * x[c as usize];
    }
    let rows = problem
        .rows
        .iter()
        .zip(&activity)
        .map(|(row, &a)| match row.relation {
            Relation::Le => a - row.rhs,
            Relation::Ge => row.rhs - a,
            Relation::Eq => (a - row.rhs).abs(),
        });
    let bounds = problem
        .vars
        .iter()
        .zip(x)
        .map(|(v, &xi)| (v.lower - xi).max(xi - v.upper));
    (worst(rows), worst(bounds))
}

/// The largest of `violations` and `0.0`, with NaN counted as infinite
/// (`f64::max` would drop it).
fn worst(violations: impl Iterator<Item = f64>) -> f64 {
    violations.fold(
        0.0,
        |w, v| if v.is_nan() { f64::INFINITY } else { w.max(v) },
    )
}

/// [`certify`] with a `Result` verdict, for use on solver return paths.
///
/// # Errors
///
/// Returns [`SolveError::CertificateRejected`] when the recomputation
/// disagrees with the reported solution beyond `tol`.
pub fn verify(problem: &Problem, solution: &Solution, tol: f64) -> Result<Certificate, SolveError> {
    let cert = certify(problem, solution, tol);
    if cert.accepted() {
        Ok(cert)
    } else {
        Err(SolveError::CertificateRejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::SolveOptions;

    fn toy() -> Problem {
        // max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        p
    }

    #[test]
    fn accepts_a_genuine_optimum() {
        let p = toy();
        let s = p.solve().unwrap();
        let cert = certify(&p, &s, 1e-6);
        assert!(cert.accepted(), "{cert}");
        assert!(cert.objective_gap() < 1e-9);
    }

    /// A solution with the given point and reported objective, as if a
    /// (buggy) solver had returned it.
    fn claimed(values: Vec<f64>, objective: f64) -> Solution {
        Solution::new(objective, values, 0)
    }

    #[test]
    fn rejects_an_infeasible_point() {
        let p = toy();
        // x = 100 violates both x ≤ 4 and 3x + 2y ≤ 18.
        let s = claimed(vec![100.0, 0.0], 300.0);
        let cert = certify(&p, &s, 1e-6);
        assert!(!cert.accepted());
        assert!(cert.max_row_residual > 1.0);
        assert!(matches!(
            verify(&p, &s, 1e-6),
            Err(SolveError::CertificateRejected)
        ));
    }

    #[test]
    fn rejects_a_bound_excursion() {
        let mut p = toy();
        let z = p.add_var(0.0, 0.0, 1.0);
        let optimum = p.solve().unwrap();
        let mut x = optimum.values().to_vec();
        x[z.index()] = -0.5;
        let s = claimed(x, optimum.objective());
        let cert = certify(&p, &s, 1e-6);
        assert!(!cert.accepted());
        assert!((cert.max_bound_violation - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_a_misreported_objective() {
        let p = toy();
        let optimum = p.solve().unwrap();
        let s = claimed(optimum.values().to_vec(), optimum.objective() + 1.0);
        let cert = certify(&p, &s, 1e-6);
        assert!(!cert.accepted());
        assert!(cert.max_row_residual <= 1e-9, "point itself is feasible");
        assert!((cert.objective_gap() - 1.0).abs() < 1e-12);
    }

    /// `certify`'s `(row residual, bound violation)`, as bits.
    fn residual_bits(p: &Problem, x: [f64; 3]) -> (u64, u64) {
        let cert = certify(p, &claimed(x.to_vec(), 0.0), 1e-6);
        (
            cert.max_row_residual.to_bits(),
            cert.max_bound_violation.to_bits(),
        )
    }

    #[test]
    fn reports_the_residuals_worked_out_by_hand() {
        // x ∈ [0, 4], y ∈ [0, 10], z ∈ [−1, 1];
        //   r0: x + 2y + x + 0·z ≤ 10   (x twice, an explicit zero)
        //   r1: y − z ≥ 3
        //   r2: x + z = 2
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 4.0);
        let y = p.add_var(2.0, 0.0, 10.0);
        let z = p.add_var(-3.0, -1.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 2.0), (x, 1.0), (z, 0.0)], Relation::Le, 10.0);
        p.add_constraint([(y, 1.0), (z, -1.0)], Relation::Ge, 3.0);
        p.add_constraint([(x, 1.0), (z, 1.0)], Relation::Eq, 2.0);
        // Each point with its residuals (r0, r1, r2) and bound excursion.
        let cases = [
            // (10, 3, 2): every row holds with equality.
            ([1.0, 4.0, 1.0], 0.0, 0.0),
            // (12, 3, 3): x counts twice in r0.
            ([2.0, 4.0, 1.0], 2.0, 0.0),
            // (5, 0.5, 2): r1 short by 2.5; r0's slack does not count.
            ([1.0, 1.5, 1.0], 2.5, 0.0),
            // (9, 4.5, 0): r2 short by 2, r1 over-satisfied.
            ([0.5, 4.0, -0.5], 2.0, 0.0),
            // (10, 2.5, 2.5): z above its upper bound by 0.5.
            ([1.0, 4.0, 1.5], 0.5, 0.5),
            // (7.5, 3, 0.75): x below its lower bound by 0.25.
            ([-0.25, 4.0, 1.0], 1.25, 0.25),
        ];
        for (point, row, bound) in cases {
            assert_eq!(
                residual_bits(&p, point),
                (f64::to_bits(row), f64::to_bits(bound)),
                "at {point:?}"
            );
        }
        let cert = certify(&p, &claimed(vec![1.0, 4.0, 1.0], 6.0), 1e-6);
        assert!(cert.accepted(), "{cert}");
        assert_eq!(cert.recomputed_objective.to_bits(), 6.0_f64.to_bits());
        assert_eq!(
            p.max_violation(&[-0.25, 4.0, 1.0]).to_bits(),
            1.25_f64.to_bits()
        );
    }

    #[test]
    fn a_nan_point_is_infinitely_violated() {
        let p = toy();
        for x in [[f64::NAN, 0.0], [0.0, f64::NAN]] {
            let cert = certify(&p, &claimed(x.to_vec(), 0.0), 1e-6);
            assert!(!cert.accepted());
            assert_eq!(cert.max_row_residual, f64::INFINITY, "at {x:?}");
            assert_eq!(cert.max_bound_violation, f64::INFINITY, "at {x:?}");
            assert_eq!(p.max_violation(&x), f64::INFINITY, "at {x:?}");
        }
    }

    #[test]
    fn certifying_reads_no_solver_state() {
        // The check must not build (or read) the solver's cached
        // standard form: it works from the problem statement alone.
        let p = toy();
        let cert = certify(&p, &claimed(vec![2.0, 6.0], 36.0), 1e-6);
        assert!(cert.accepted(), "{cert}");
        assert!(!p.has_standard_form());
        assert!(verify(&p, &claimed(vec![100.0, 0.0], 300.0), 1e-6).is_err());
        assert!(!p.has_standard_form());
        p.solve().unwrap();
        assert!(p.has_standard_form(), "a solve builds it");
    }

    #[test]
    fn verify_option_is_exercised_on_the_solve_path() {
        let p = toy();
        let opts = SolveOptions { verify: true };
        let s = p.solve_with(&opts).unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-6);
    }
}
