//! Independent certification of reported LP solutions.
//!
//! A simplex solve does a sparse LU refactorization plus FTRAN/BTRAN
//! triangular solves per pivot; checking its answer is one sparse
//! matrix-vector product. This module recomputes, from the
//! [`Problem`] alone, everything a [`Solution`] claims — row activities,
//! bound satisfaction, and the objective value — and compares against
//! the reported figures. It shares no state with the solver: the row
//! activities are accumulated straight from the entry list, so a bug in
//! the solver's incremental basis updates cannot also hide in the check.
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
    let mut activity = vec![0.0; problem.num_constraints()];
    for (col, entries) in problem.entries_by_column().iter().enumerate() {
        let xi = x[col];
        for &(row, coeff) in entries {
            activity[row] += coeff * xi;
        }
    }
    let mut max_row_residual: f64 = 0.0;
    let relations = problem.row_relations();
    let rhs = problem.row_rhs();
    for ((a, rel), b) in activity.iter().zip(&relations).zip(&rhs) {
        let residual = match rel {
            Relation::Le => a - b,
            Relation::Ge => b - a,
            Relation::Eq => (a - b).abs(),
        };
        max_row_residual = max_row_residual.max(residual);
    }
    let mut max_bound_violation: f64 = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        let (lo, up) = problem.bounds(problem.var(i));
        max_bound_violation = max_bound_violation.max(lo - xi).max(xi - up);
    }
    Certificate {
        max_row_residual,
        max_bound_violation,
        reported_objective: solution.objective(),
        recomputed_objective: problem.eval_objective(x),
        tol,
    }
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

    #[test]
    fn verify_option_is_exercised_on_the_solve_path() {
        let p = toy();
        let opts = SolveOptions { verify: true };
        let s = p.solve_with(&opts).unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-6);
    }
}
