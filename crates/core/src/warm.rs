//! Simplex basis reuse shared by the two warm-started relaxation solvers
//! ([`crate::RlspmWarmSolver`] and [`crate::BlspmWarmSolver`]).

use metis_lp::{Basis, Problem, Solution, SolveError, SolveOptions};

/// The basis a warm solver carries from one re-solve to the next, with
/// its warm/cold solve counts. A solve counts as warm only if the simplex
/// really restarted from the stored basis ([`metis_lp::SolveStats`]'s
/// `warm_started`): `Problem::solve_with_basis` silently starts cold when
/// the basis is unusable, and such a solve counts as cold.
#[derive(Clone, Default)]
pub(crate) struct WarmBasis {
    basis: Option<Basis>,
    pub(crate) warm_solves: usize,
    pub(crate) cold_solves: usize,
}

impl WarmBasis {
    /// Solves `problem` from the stored basis when one exists and keeps
    /// the new optimum's basis. If the warm restart fails for any reason
    /// (e.g. a singular restored factorization reported as
    /// infeasibility), the basis is discarded and the solve retried cold.
    pub(crate) fn solve(
        &mut self,
        problem: &Problem,
        options: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        let warm = self.basis.take();
        let (solution, basis) = match problem.solve_with_basis(options, warm.as_ref()) {
            Ok(pair) => pair,
            Err(_) if warm.is_some() => problem.solve_with_basis(options, None)?,
            Err(e) => return Err(e),
        };
        if solution.stats().warm_started {
            self.warm_solves += 1;
        } else {
            self.cold_solves += 1;
        }
        self.basis = Some(basis);
        Ok(solution)
    }

    /// Drops the stored basis, forcing the next solve to start cold.
    pub(crate) fn reset(&mut self) {
        self.basis = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_lp::{Relation, Sense};

    #[test]
    fn a_silent_cold_restart_counts_as_cold() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let opts = SolveOptions::default();
        let mut warm = WarmBasis::default();
        warm.solve(&p, &opts).unwrap();
        // The old optimal basis is not dual-feasible for the flipped
        // objective, so `solve_with_basis` restarts cold and returns Ok.
        p.set_objective(x, -1.0);
        let sol = warm.solve(&p, &opts).unwrap();
        assert!(!sol.stats().warm_started);
        assert_eq!((warm.warm_solves, warm.cold_solves), (0, 2));
        // The same objective again reuses the basis.
        let sol = warm.solve(&p, &opts).unwrap();
        assert!(sol.stats().warm_started);
        assert_eq!((warm.warm_solves, warm.cold_solves), (1, 2));
    }
}
