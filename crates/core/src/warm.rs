//! Simplex basis reuse shared by the two warm-started relaxation solvers
//! ([`crate::RlspmWarmSolver`] and [`crate::BlspmWarmSolver`]).

use metis_lp::{Basis, Problem, Solution, SolveError, SolveOptions};

/// The basis a warm solver carries from one re-solve to the next, with
/// its warm/cold solve counts.
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
            Ok(pair) => {
                if warm.is_some() {
                    self.warm_solves += 1;
                } else {
                    self.cold_solves += 1;
                }
                pair
            }
            Err(_) if warm.is_some() => {
                self.cold_solves += 1;
                problem.solve_with_basis(options, None)?
            }
            Err(e) => return Err(e),
        };
        self.basis = Some(basis);
        Ok(solution)
    }

    /// Drops the stored basis, forcing the next solve to start cold.
    pub(crate) fn reset(&mut self) {
        self.basis = None;
    }
}
