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
    /// Product-form eta updates appended between refactorizations
    /// (0 on the dense backend, which updates `B⁻¹` in place).
    pub eta_updates: usize,
    /// Nonzeros in the `L` factor of the last sparse refactorization
    /// (0 on the dense backend).
    pub lu_l_nnz: usize,
    /// Nonzeros in the `U` factor (diagonal included) of the last sparse
    /// refactorization (0 on the dense backend).
    pub lu_u_nnz: usize,
}

/// Which rule chose the entering column of a traced pivot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePricing {
    /// Full Dantzig sweep over all reduced costs.
    Dantzig,
    /// Bland's anti-cycling rule (degeneracy fallback).
    Bland,
    /// Dual simplex (the *row* was priced; the column came from the
    /// dual ratio test).
    Dual,
}

impl TracePricing {
    /// Stable lowercase label for reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TracePricing::Dantzig => "dantzig",
            TracePricing::Bland => "bland",
            TracePricing::Dual => "dual",
        }
    }
}

/// One recorded simplex step (opt-in via
/// [`crate::SolveOptions::trace`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// 1-based pivot index within this solve, counted across phases
    /// (phase 1, primal, and dual share the counter).
    pub iteration: usize,
    /// Entering column, standard-form index.
    pub entering: usize,
    /// Leaving column, standard-form index; `None` for a bound flip
    /// (the entering variable moved to its opposite bound without a
    /// basis change).
    pub leaving: Option<usize>,
    /// Objective value after the step, in the problem's own sense.
    pub objective: f64,
    /// Magnitude of the pivot element (0 for a bound flip).
    pub pivot: f64,
    /// Rule that selected the step.
    pub pricing: TracePricing,
}

/// Bounded per-iteration trace of one solve: the last
/// [`LpTrace::CAPACITY`] steps, with earlier ones counted as dropped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LpTrace {
    /// Retained steps, oldest first.
    pub records: Vec<TraceRecord>,
    /// Steps evicted once the ring filled (these were the earliest).
    pub dropped: u64,
}

impl LpTrace {
    /// Ring capacity: enough for every pivot of the workspace's LPs,
    /// while bounding memory for adversarial instances.
    pub const CAPACITY: usize = 4_096;

    /// Total steps the solve performed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.records.len() as u64 + self.dropped
    }
}

/// An optimal (or, for MILP with limits, best-found) solution.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    objective: f64,
    values: Vec<f64>,
    duals: Option<Vec<f64>>,
    stats: SolveStats,
    trace: LpTrace,
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
            trace: LpTrace::default(),
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

    pub(crate) fn with_trace(mut self, trace: LpTrace) -> Self {
        self.trace = trace;
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

    /// Number of simplex pivots performed (summed over phases; for MILP,
    /// over all nodes).
    pub fn iterations(&self) -> usize {
        self.stats.iterations
    }

    /// Detailed work counters for this solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Per-iteration trace (empty unless
    /// [`crate::SolveOptions::trace`] was set).
    pub fn trace(&self) -> &LpTrace {
        &self.trace
    }
}
