//! Solver output types.

use crate::model::{RowId, VarId};

/// Work counters from one solve, attached to every [`Solution`].
///
/// These feed the workspace's telemetry layer (simplex iteration and
/// pivot accounting, warm-start effectiveness, factor sizes) without
/// the solver depending on it: the solver only counts, the caller
/// decides where the counts go.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex pivots across all phases (primal + dual; for MILP,
    /// summed over all branch-and-bound nodes).
    pub iterations: usize,
    /// Pivots spent in phase 1 (restoring feasibility).
    pub phase1_iterations: usize,
    /// Pivots performed by the dual simplex (warm-start reoptimization).
    pub dual_iterations: usize,
    /// Ratio tests that ended in a bound flip instead of a pivot.
    pub bound_flips: usize,
    /// Basis refactorizations (periodic refresh plus warm-start setup; a
    /// warm start that reuses its [`Basis`](crate::Basis)'s kept LU
    /// factors does not count).
    pub refreshes: usize,
    /// Whether this solve reoptimized from a supplied basis rather than
    /// starting cold.
    pub warm_started: bool,
    /// Product-form eta updates appended between refactorizations.
    pub eta_updates: usize,
    /// Primal pivots whose entering column was replayed from the pivot
    /// path of the problem's previous cold slack-start solve, with no
    /// pricing pass (see [`Problem`](crate::Problem)).
    pub replayed: usize,
    /// Nonzeros in the `L` factor of the last refactorization.
    pub lu_l_nnz: usize,
    /// Nonzeros in the `U` factor (diagonal included) of the last
    /// refactorization.
    pub lu_u_nnz: usize,
}

/// An optimal (or, for MILP with limits, best-found) solution.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    objective: f64,
    values: Vec<f64>,
    duals: Option<Vec<f64>>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(objective: f64, values: Vec<f64>, iterations: usize) -> Self {
        Solution {
            objective,
            values,
            duals: None,
            stats: SolveStats {
                iterations,
                ..SolveStats::default()
            },
        }
    }

    pub(crate) fn with_duals(mut self, duals: Vec<f64>) -> Self {
        self.duals = Some(duals);
        self
    }

    pub(crate) fn with_stats(mut self, stats: SolveStats) -> Self {
        self.stats = stats;
        self
    }

    /// The dual value (shadow price) of one constraint: the marginal
    /// change of the objective, in the problem's own sense, per unit
    /// increase of that row's right-hand side.
    ///
    /// `None` for MILP solutions (duals are an LP concept).
    ///
    /// # Panics
    ///
    /// Panics if `row` does not belong to the solved problem.
    pub fn dual(&self, row: RowId) -> Option<f64> {
        self.duals.as_ref().map(|d| d[row.index()])
    }

    /// All row duals (see [`Solution::dual`]); `None` for MILP solutions.
    pub fn duals(&self) -> Option<&[f64]> {
        self.duals.as_deref()
    }

    /// Objective value in the problem's own sense (already un-negated for
    /// maximization problems).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Detailed work counters for this solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}
