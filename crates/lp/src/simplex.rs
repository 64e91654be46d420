//! Bounded-variable revised simplex over a factorized sparse basis.
//!
//! The solver works on an internal standard form
//!
//! ```text
//! min c·x   s.t.  A x + s = b,   l ≤ (x, s, a) ≤ u
//! ```
//!
//! with one slack per row (`≤` rows get `s ∈ [0, ∞)`, `≥` rows
//! `s ∈ (−∞, 0]`, `=` rows `s ∈ [0, 0]`) and, during phase 1, one artificial
//! variable per initially-infeasible row. Maximization is handled by
//! negating the objective.
//!
//! The engine has one configuration, the one that is fastest on the
//! RL-SPM/BL-SPM LPs this workspace builds (up to ≈10³–10⁴ rows and
//! columns, very sparse):
//!
//! * The basis is held as a **sparse LU factorization** with Markowitz
//!   fill-in control ([`crate::factor`]), so FTRAN (`B⁻¹aⱼ`) and BTRAN
//!   (`cᵦᵀB⁻¹`) cost time proportional to the factor nonzeros rather
//!   than `O(m²)`. Each pivot appends a **product-form eta**; the
//!   factorization is rebuilt every [`REFRESH_EVERY`]
//!   pivots. The historical dense explicit `B⁻¹` (elementary row
//!   updates per pivot, Gauss-Jordan refresh) remains available behind
//!   [`SolveOptions::basis`]`=`[`BasisBackend::Dense`] as the reference
//!   implementation the sparse backend is tested against.
//! * Pricing is **Dantzig** over every column: the most violating
//!   reduced cost enters, earliest index on ties. An automatic switch
//!   to Bland's rule after a run of degenerate pivots guarantees
//!   termination. The reduced costs `c − Aᵀy` come from one row-wise
//!   product over the transpose of the standard-form matrix, scattering
//!   only the rows whose dual `yᵢ` is nonzero. The matrix `[A | I]` and
//!   its transpose are cached on the [`Problem`], built by its first
//!   solve and shared by later solves and clones until a variable or
//!   constraint is added; a solve copies them only when phase 1 appends
//!   artificials. Each column's terms are added in ascending row order, so
//!   every reduced cost is bit-identical to a per-column dot product.
//!   The dual simplex takes its pivot row `(B⁻¹A)[r, :]` and reduced
//!   costs the same way.
//! * The ratio test is the textbook smallest-ratio rule, ties broken by
//!   lowest row index.
//! * A cold solve starts from the slack basis. When some slack cannot
//!   absorb its row's residual, a **feasibility crash** first tries to
//!   build a primal-feasible basis from the row structure: each such row
//!   makes basic a structural column that zeroes its residual within the
//!   column's bounds, then each row this overdraws is repaired by an
//!   unbounded column moved to the largest amount any of its rows needs.
//!   If the result factorizes and every basic value is within bounds,
//!   phase 2 starts from it and phase 1 is skipped; otherwise the solver
//!   restores the slack basis and runs phase 1 with artificials. On the
//!   RL-SPM relaxation the crash routes every request on its first path
//!   and sets each charge column to its peak load; BL-SPM starts feasible
//!   from the slack basis, and transportation-style LPs fall back.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::SolveError;
use crate::factor::{EtaFile, LuFactors};
use crate::matrix::CscMatrix;
use crate::model::{Problem, Relation, Sense, StandardForm};
use crate::solution::{LpTrace, Solution, SolveStats, TracePricing, TraceRecord};

/// How the simplex represents (the inverse of) the basis matrix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BasisBackend {
    /// Sparse LU factorization with Markowitz ordering and product-form
    /// eta updates between refactorizations: pivots cost time
    /// proportional to the factor nonzeros. The default.
    #[default]
    SparseLu,
    /// Dense explicit `m×m` inverse, updated by elementary row
    /// operations (`O(m²)` per pivot) and recomputed by Gauss-Jordan
    /// (`O(m³)`). Kept as the reference the sparse backend is checked
    /// against.
    Dense,
}

/// Feasibility / optimality tolerance.
const TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted in the ratio test.
const PIVOT_TOL: f64 = 1e-9;
/// Refactorization cadence: the basis representation is rebuilt from
/// scratch every this many pivots. For [`BasisBackend::SparseLu`] this
/// also bounds the eta-file length; for [`BasisBackend::Dense`] it bounds
/// drift of the explicit inverse.
const REFRESH_EVERY: usize = 300;
/// Consecutive degenerate pivots before pricing switches to Bland's rule.
const BLAND_AFTER: usize = 200;

/// Options for one simplex solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveOptions {
    /// Basis representation; see [`BasisBackend`]. Both backends accept
    /// and produce the same warm-start [`Basis`] snapshots.
    pub basis: BasisBackend,
    /// Independently certify every returned solution via
    /// [`crate::verify`] (recomputed residuals, bounds, objective) and
    /// fail the solve with [`SolveError::CertificateRejected`] on
    /// disagreement. Always on under `debug_assertions`; this flag forces
    /// it in release builds (`MetisConfig::audit` sets it).
    pub verify: bool,
    /// Record a per-iteration trace (entering/leaving column, objective,
    /// pivot magnitude, pricing rule) into a bounded ring returned via
    /// [`Solution::trace`]. Off by default: each traced step costs an
    /// `O(m + n)` objective evaluation. Tracing is read-only — it never
    /// changes the pivot sequence, so a traced solve returns exactly
    /// the solution an untraced one does.
    pub trace: bool,
}

/// A snapshot of an optimal basis, reusable to warm-start the solve of a
/// *related* problem: same rows and columns, with bounds, right-hand
/// sides or costs edited in place (the re-solve pattern of a
/// fixed-structure program). Opaque; obtain one from
/// [`Problem::solve_with_basis`].
///
/// A basis may also carry the sparse LU factors of its own basis matrix.
/// It does so only when they are a fresh factorization of exactly that
/// basis: the solve that produced it made no pivot after its last
/// refactorization and added no artificial column. A warm start from
/// it on a problem that shares the same cached standard form (a
/// re-solve after editing bounds, right-hand sides or costs, or a
/// clone of such a problem) copies those factors instead of
/// refactorizing. The factorization is deterministic in the matrix and
/// the basis, so this saves time and changes no result; any other
/// problem refactorizes as usual.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Status of every structural variable and slack (artificials are
    /// never snapshotted).
    state: Vec<VarState>,
    n_struct: usize,
    /// Fresh LU factors of this basis and the standard form they factor.
    factors: Option<(Arc<StandardForm>, LuFactors)>,
}

impl Problem {
    /// Solves the linear relaxation of this problem (integrality markers are
    /// ignored) with default options.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Infeasible`], [`SolveError::Unbounded`], or a
    /// numerical/limit error.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves the linear relaxation with explicit options.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`].
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SolveError> {
        let mut s = Simplex::new(self, options);
        let solution = s.run()?;
        self.certify_if_requested(options, &solution)?;
        Ok(solution)
    }

    /// Solves the relaxation, optionally warm-starting from a [`Basis`]
    /// snapshotted on a related problem (identical rows/columns; bounds,
    /// right-hand sides and costs may differ). Returns the solution
    /// together with the final basis for further chaining.
    ///
    /// When the supplied basis is dual-feasible for this problem — the
    /// case after tightening a bound or a right-hand side — reoptimization
    /// runs the **dual simplex** and typically needs a handful of pivots.
    /// Otherwise the solver starts cold. Any failure of the warm attempt,
    /// `Infeasible`, `Unbounded` and a rejected certificate included,
    /// falls back to one cold solve, whose outcome is returned;
    /// [`SolveStats::warm_started`](crate::SolveStats::warm_started)
    /// tells the two paths apart. Warm and cold reach the same optimum
    /// **value**, but when optima are tied they may stop at different
    /// optimal vertices, so the returned solution can differ.
    ///
    /// # Errors
    ///
    /// See [`Problem::solve`]; errors come from the cold path.
    pub fn solve_with_basis(
        &self,
        options: &SolveOptions,
        warm: Option<&Basis>,
    ) -> Result<(Solution, Basis), SolveError> {
        if let Some(basis) = warm {
            let mut s = Simplex::new(self, options);
            if let Ok(solution) = s.run_from_basis(basis) {
                if self.certify_if_requested(options, &solution).is_ok() {
                    return Ok((solution, s.into_basis()));
                }
            }
        }
        let mut s = Simplex::new(self, options);
        let solution = s.run()?;
        self.certify_if_requested(options, &solution)?;
        Ok((solution, s.into_basis()))
    }

    /// Runs [`crate::verify`] on a freshly produced solution when
    /// [`SolveOptions::verify`] is set or in debug builds. The
    /// certificate tolerance is one order looser than the solver's own,
    /// so honest accumulated rounding never trips it.
    fn certify_if_requested(
        &self,
        options: &SolveOptions,
        solution: &Solution,
    ) -> Result<(), SolveError> {
        if options.verify || cfg!(debug_assertions) {
            crate::verify::verify(self, solution, TOL * 10.0)?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Nonbasic free variable, held at value 0.
    FreeZero,
}

struct Simplex<'p> {
    /// The problem's cached standard form, which `a` and `at` borrow
    /// until phase 1 appends artificials.
    standard: &'p Arc<StandardForm>,
    /// Full standard-form matrix: structural | slacks | artificials.
    /// Borrowed from the problem's cache; owned once phase 1 appends
    /// artificials.
    a: Cow<'p, CscMatrix>,
    /// Transpose of `a` (its rows), rebuilt whenever `a` gains columns.
    at: Cow<'p, CscMatrix>,
    /// Objective over all standard-form columns (minimization).
    cost: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rhs: Vec<f64>,
    n_struct: usize,
    n_slack: usize,
    maximize: bool,

    state: Vec<VarState>,
    basis: Vec<u32>,
    /// Basis representation: dense explicit inverse or sparse LU + etas.
    repr: BasisRepr,
    /// The basis the sparse LU factors were last computed for (empty
    /// before the first factorization and after a failed one).
    factored: Vec<u32>,
    /// Values of basic variables, per row.
    xb: Vec<f64>,

    opts: SolveOptions,
    iterations: usize,
    /// Hard cap on pivots across both phases, `1000 + 50·(m + n)`.
    max_iterations: usize,
    /// Pivots between refactorizations, [`REFRESH_EVERY`].
    refresh_every: usize,
    degenerate_streak: usize,
    pivots_since_refresh: usize,

    // Work counters reported through `Solution::stats`.
    phase1_iterations: usize,
    dual_iterations: usize,
    bound_flips: usize,
    refreshes: usize,
    warm_started: bool,
    eta_updates: usize,
    lu_l_nnz: usize,
    lu_u_nnz: usize,

    /// Per-iteration ring buffer, filled only when `opts.trace` is set.
    /// `trace[trace_start..]` then `trace[..trace_start]` is the
    /// chronological order once the ring has wrapped.
    trace: Vec<TraceRecord>,
    trace_start: usize,
    trace_dropped: u64,

    // Scratch buffers reused across iterations.
    y: Vec<f64>,
    w: Vec<f64>,
    /// Reduced costs `c − Aᵀy` of every column, from [`Self::price_all`].
    d: Vec<f64>,
    /// Dual-simplex pivot row `(B⁻¹A)[r, :]`, from [`Self::pivot_row`].
    alpha: Vec<f64>,
    /// Row-space scratch (FTRAN right-hand sides, BTRAN outputs).
    rowbuf: Vec<f64>,
    /// Permuted-space scratch handed to [`LuFactors`] solves.
    lubuf: Vec<f64>,
}

/// Runtime basis representation behind [`BasisBackend`].
#[expect(
    clippy::large_enum_variant,
    reason = "one representation lives per solve; the size skew between variants \
              is irrelevant next to the O(m²)/O(nnz) buffers each one owns"
)]
enum BasisRepr {
    /// Dense row-major `B⁻¹`, `m × m`.
    Dense { binv: Vec<f64> },
    /// Sparse LU factors of `B` plus the eta file of pivots applied
    /// since the last refactorization.
    Sparse { lu: LuFactors, etas: EtaFile },
}

/// Outcome of one pricing step.
enum PriceStep {
    Optimal,
    Enter { col: usize, dir: f64 },
}

/// Outcome of one ratio test.
enum Ratio {
    Unbounded,
    BoundFlip {
        step: f64,
    },
    Pivot {
        row: usize,
        step: f64,
        to_upper: bool,
    },
}

impl<'p> Simplex<'p> {
    fn new(problem: &'p Problem, opts: &SolveOptions) -> Self {
        let m = problem.num_constraints();
        let n = problem.num_vars();
        let maximize = problem.sense() == Sense::Maximize;

        // Structural columns, then one slack per row: a·x + s = b.
        let standard = problem.standard_form();
        let mut cost: Vec<f64> = problem
            .vars
            .iter()
            .map(|v| if maximize { -v.obj } else { v.obj })
            .collect();
        let mut lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
        let mut upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();

        for row in &problem.rows {
            cost.push(0.0);
            match row.relation {
                Relation::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                Relation::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                Relation::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        let rhs: Vec<f64> = problem.rows.iter().map(|r| r.rhs).collect();

        let repr = match opts.basis {
            BasisBackend::Dense => BasisRepr::Dense { binv: Vec::new() },
            BasisBackend::SparseLu => BasisRepr::Sparse {
                lu: LuFactors::identity(m),
                etas: EtaFile::default(),
            },
        };

        Simplex {
            standard,
            a: Cow::Borrowed(&standard.a),
            at: Cow::Borrowed(&standard.at),
            d: vec![0.0; n + m],
            cost,
            lower,
            upper,
            rhs,
            n_struct: n,
            n_slack: m,
            maximize,
            state: Vec::new(),
            basis: Vec::new(),
            repr,
            factored: Vec::new(),
            xb: Vec::new(),
            opts: *opts,
            iterations: 0,
            max_iterations: 1000 + 50 * (m + n),
            refresh_every: REFRESH_EVERY,
            degenerate_streak: 0,
            pivots_since_refresh: 0,
            phase1_iterations: 0,
            dual_iterations: 0,
            bound_flips: 0,
            refreshes: 0,
            warm_started: false,
            eta_updates: 0,
            lu_l_nnz: 0,
            lu_u_nnz: 0,
            trace: Vec::new(),
            trace_start: 0,
            trace_dropped: 0,
            y: vec![0.0; m],
            w: vec![0.0; m],
            alpha: Vec::new(),
            rowbuf: vec![0.0; m],
            lubuf: vec![0.0; m],
        }
    }

    fn m(&self) -> usize {
        self.rhs.len()
    }

    /// Resting value of a nonbasic variable in a given state.
    fn nonbasic_value(&self, j: usize, st: VarState) -> f64 {
        match st {
            VarState::AtLower => self.lower[j],
            VarState::AtUpper => self.upper[j],
            VarState::FreeZero => 0.0,
            #[expect(
                clippy::unreachable,
                reason = "callers filter to nonbasic states; enum invariant"
            )]
            VarState::Basic(_) => unreachable!("basic variable has no resting value"),
        }
    }

    /// Initial nonbasic state: prefer a finite bound, else free at zero.
    fn initial_state(&self, j: usize) -> VarState {
        if self.lower[j].is_finite() {
            VarState::AtLower
        } else if self.upper[j].is_finite() {
            VarState::AtUpper
        } else {
            VarState::FreeZero
        }
    }

    fn run(&mut self) -> Result<Solution, SolveError> {
        let m = self.m();
        let n_total = self.n_struct + self.n_slack;

        // --- Initial point: structural vars at a bound, slacks basic. ---
        self.state = (0..n_total)
            .map(|j| {
                if j < self.n_struct {
                    self.initial_state(j)
                } else {
                    VarState::Basic((j - self.n_struct) as u32)
                }
            })
            .collect();
        self.basis = (0..m).map(|i| (self.n_struct + i) as u32).collect();

        // Row residuals with all structural vars at their resting values.
        let mut resid = self.rhs.clone();
        for j in 0..self.n_struct {
            let v = self.nonbasic_value(j, self.state[j]);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut resid);
            }
        }

        // A primal-feasible crash basis makes phase 1 unnecessary.
        if !self.crash(&resid) {
            self.phase1(&resid)?;
        }

        // --- Phase 2. ---
        self.degenerate_streak = 0;
        self.optimize()?;

        self.extract_solution()
    }

    /// Phase 1 from the slack basis: adds one artificial per row whose
    /// slack cannot absorb its residual `resid` (none: the slack basis
    /// is feasible) and minimizes their sum, leaving a feasible basis
    /// for phase 2.
    fn phase1(&mut self, resid: &[f64]) -> Result<(), SolveError> {
        let m = self.m();
        let n_total = self.n_struct + self.n_slack;

        // B = I for the slack basis.
        if let BasisRepr::Dense { binv } = &mut self.repr {
            *binv = vec![0.0; m * m];
            for i in 0..m {
                binv[i * m + i] = 1.0;
            }
        }

        // --- Phase 1: add artificials for rows whose slack can't absorb
        // the residual. ---
        // (row, ±1) of each artificial's unit column.
        let mut arts: Vec<(usize, f64)> = Vec::new();
        self.xb = vec![0.0; m];
        for (i, &r) in resid.iter().enumerate() {
            let sj = self.n_struct + i;
            let (sl, su) = (self.lower[sj], self.upper[sj]);
            if r > su + TOL {
                // Slack pinned at its upper bound; artificial absorbs r − su.
                self.state[sj] = VarState::AtUpper;
                self.xb[i] = r - su;
                arts.push((i, 1.0));
            } else if r < sl - TOL {
                self.state[sj] = VarState::AtLower;
                self.xb[i] = sl - r;
                arts.push((i, -1.0));
                // B gets a −1 on this diagonal, so B⁻¹ does too.
                if let BasisRepr::Dense { binv } = &mut self.repr {
                    binv[i * m + i] = -1.0;
                }
            } else {
                self.xb[i] = r.clamp(sl.min(su), su.max(sl));
            }
        }

        if !arts.is_empty() {
            // Append the artificial columns to the matrix and vectors.
            self.a.to_mut().append_unit_cols(arts.iter().copied());
            self.at = Cow::Owned(self.a.transpose());
            let n_art = arts.len();
            self.d.resize(n_total + n_art, 0.0);
            let saved_cost = std::mem::replace(&mut self.cost, vec![0.0; n_total + n_art]);
            for (k, &(row, _)) in arts.iter().enumerate() {
                let aj = n_total + k;
                self.cost[aj] = 1.0;
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.state.push(VarState::Basic(row as u32));
                // The artificial replaces the slack as the basic variable
                // of its row; xb[row] was already set above.
                self.basis[row] = aj as u32;
            }

            self.factorize_sparse()?;
            self.optimize()?;
            self.phase1_iterations = self.iterations;

            let phase1_obj = self.current_objective();
            if phase1_obj > 1e-6 {
                return Err(SolveError::Infeasible);
            }
            // Freeze artificials at zero for phase 2. Basic artificials at
            // value 0 are harmless: the [0,0] range blocks any move through
            // them, forcing them out of the basis on contact.
            for k in 0..n_art {
                let aj = n_total + k;
                self.lower[aj] = 0.0;
                self.upper[aj] = 0.0;
                if !matches!(self.state[aj], VarState::Basic(_)) {
                    self.state[aj] = VarState::AtLower;
                }
            }
            // Restore the real objective (zero on artificials).
            self.cost = saved_cost;
            self.cost.resize(n_total + n_art, 0.0);
        } else {
            self.factorize_sparse()?;
        }
        Ok(())
    }

    /// Feasibility crash: tries to replace phase 1 by a primal-feasible
    /// basis read off the row structure, given the slack basis's row
    /// residuals `resid`. Returns `true` with the basis factorized and
    /// `xb` set; returns `false` with `state` and `basis` as they were
    /// (the slack basis) when the slack basis is already feasible or no
    /// feasible crash basis was found.
    ///
    /// * Pass 1: each row whose slack cannot absorb its residual makes
    ///   basic the lowest-index nonbasic structural column with a nonzero
    ///   in the row that stays within its bounds when moved to zero the
    ///   residual; the row's slack goes nonbasic at the bound it hit.
    /// * Pass 2: each row whose still-basic slack pass 1 pushed out of
    ///   range makes basic the lowest-index column at a finite lower
    ///   bound, with an infinite upper bound and an entry of the repairing
    ///   sign, all of whose rows still have a basic slack. The column
    ///   moves by the largest amount any of its rows needs and becomes
    ///   basic in that row.
    ///
    /// The crash is kept only if the basis factorizes and every basic
    /// value lies within its bounds. On RL-SPM (assignment rows plus load
    /// rows sharing a charge column) it routes every request on its first
    /// path and makes each charge column basic at its peak load.
    fn crash(&mut self, resid: &[f64]) -> bool {
        let m = self.m();
        let ns = self.n_struct;
        let slack_range = |s: &Self, i: usize| (s.lower[ns + i], s.upper[ns + i]);
        if (0..m).all(|i| self.slack_absorbs(i, resid[i])) {
            return false;
        }
        let saved_state = self.state.clone();
        let mut r = resid.to_vec();

        // Pass 1.
        for i in 0..m {
            if self.slack_absorbs(i, resid[i]) || self.slack_absorbs(i, r[i]) {
                continue;
            }
            let (sl, su) = slack_range(self, i);
            let to_upper = r[i] > su;
            let excess = r[i] - if to_upper { su } else { sl };
            let pick = self.structural_row(i).find(|&(j, v)| {
                if v.abs() < PIVOT_TOL || matches!(self.state[j], VarState::Basic(_)) {
                    return false;
                }
                let x = self.nonbasic_value(j, self.state[j]) + excess / v;
                x >= self.lower[j] - TOL && x <= self.upper[j] + TOL
            });
            let Some((j, v)) = pick else {
                return self.crash_fallback(saved_state);
            };
            self.make_crash_basic(j, i, to_upper);
            self.a.axpy_col(j, -excess / v, &mut r);
        }

        // Pass 2.
        for i in 0..m {
            if self.basis[i] as usize != ns + i || self.slack_absorbs(i, r[i]) {
                continue;
            }
            let sign = if r[i] < self.lower[ns + i] { -1.0 } else { 1.0 };
            let pick = self.structural_row(i).find(|&(j, v)| {
                v * sign > PIVOT_TOL
                    && self.state[j] == VarState::AtLower
                    && self.upper[j] == f64::INFINITY
                    && self
                        .a
                        .col(j)
                        .iter()
                        .all(|(k, _)| self.basis[k] as usize == ns + k)
            });
            let Some((j, _)) = pick else {
                return self.crash_fallback(saved_state);
            };
            // The step each of the column's rows needs; the largest wins.
            let mut best: Option<(usize, f64, bool)> = None; // (row, step, to_upper)
            for (k, v) in self.a.col(j).iter() {
                let (kl, ku) = slack_range(self, k);
                let need = if v < 0.0 && r[k] < kl {
                    Some(((kl - r[k]) / -v, false))
                } else if v > 0.0 && r[k] > ku {
                    Some(((r[k] - ku) / v, true))
                } else {
                    None
                };
                if let Some((t, up)) = need {
                    if best.is_none_or(|(_, bt, _)| t > bt) {
                        best = Some((k, t, up));
                    }
                }
            }
            let Some((row, t, to_upper)) = best else {
                return self.crash_fallback(saved_state);
            };
            self.make_crash_basic(j, row, to_upper);
            self.a.axpy_col(j, -t, &mut r);
        }

        // Accept only a factorizable, primal-feasible basis.
        self.xb = vec![0.0; m];
        if self.refactor().is_err() {
            return self.crash_fallback(saved_state);
        }
        let feasible = self.basis.iter().zip(&self.xb).all(|(&bj, &x)| {
            let bj = bj as usize;
            x >= self.lower[bj] - TOL && x <= self.upper[bj] + TOL
        });
        feasible || self.crash_fallback(saved_state)
    }

    /// Row `i`'s structural entries `(column, value)`, columns ascending.
    fn structural_row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let ns = self.n_struct;
        self.at.col(i).iter().take_while(move |&(j, _)| j < ns)
    }

    /// Whether row `i`'s slack can take the value `x` within its bounds.
    fn slack_absorbs(&self, i: usize, x: f64) -> bool {
        let s = self.n_struct + i;
        x <= self.upper[s] + TOL && x >= self.lower[s] - TOL
    }

    /// Makes structural column `j` basic in `row`, retiring the row's
    /// slack to the bound it hit.
    fn make_crash_basic(&mut self, j: usize, row: usize, slack_to_upper: bool) {
        self.state[j] = VarState::Basic(row as u32);
        self.state[self.n_struct + row] = if slack_to_upper {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };
        self.basis[row] = j as u32;
    }

    /// Undoes a rejected crash: restores the slack basis and the saved
    /// `state`. Phase 1 rebuilds `xb` and the basis representation (the
    /// dense inverse included) from those two.
    fn crash_fallback(&mut self, state: Vec<VarState>) -> bool {
        self.state = state;
        self.basis = (0..self.m()).map(|i| (self.n_struct + i) as u32).collect();
        false
    }

    /// Snapshots the final basis over structural + slack columns.
    /// Rows whose basic variable is an artificial are remapped to their
    /// slack when possible; when not, the snapshot is unusable and a
    /// warm start from it will fall back to a cold start.
    ///
    /// The sparse LU factors go with the snapshot when they are a fresh
    /// factorization of exactly this basis: no pivot since the last
    /// refactorization and no artificial column.
    fn into_basis(self) -> Basis {
        let nm = self.n_struct + self.n_slack;
        let mut state: Vec<VarState> = self.state[..nm].to_vec();
        for (r, &bj) in self.basis.iter().enumerate() {
            if (bj as usize) >= nm {
                let slack = self.n_struct + r;
                if !matches!(state[slack], VarState::Basic(_)) {
                    state[slack] = VarState::Basic(r as u32);
                }
            }
        }
        let fresh = matches!(self.a, Cow::Borrowed(_)) && self.factored == self.basis;
        let factors = match self.repr {
            BasisRepr::Sparse { lu, etas } if fresh && etas.is_empty() => {
                Some((Arc::clone(self.standard), lu.without_workspace()))
            }
            _ => None,
        };
        Basis {
            state,
            n_struct: self.n_struct,
            factors,
        }
    }

    /// Attempts a warm-started solve from a snapshotted basis: restore →
    /// dual simplex (restores primal feasibility) → primal simplex. The
    /// restored basis reuses the snapshot's kept LU factors when they
    /// factor this problem's standard form, and is refactorized
    /// otherwise.
    ///
    /// Errors other than `Infeasible`/`Unbounded` mean "basis unusable";
    /// the caller cold-starts.
    fn run_from_basis(&mut self, warm: &Basis) -> Result<Solution, SolveError> {
        let m = self.m();
        let nm = self.n_struct + self.n_slack;
        if warm.n_struct != self.n_struct || warm.state.len() != nm {
            return Err(SolveError::Singular);
        }
        self.warm_started = true;
        // Restore statuses, reconciling nonbasic states with the current
        // bounds (a tightened bound may have invalidated the old resting
        // side).
        self.state = warm.state.clone();
        let mut basis: Vec<Option<u32>> = vec![None; m];
        let mut basic_count = 0;
        for j in 0..nm {
            match self.state[j] {
                VarState::Basic(r) => {
                    let r = r as usize;
                    if r >= m || basis[r].is_some() {
                        return Err(SolveError::Singular);
                    }
                    basis[r] = Some(j as u32);
                    basic_count += 1;
                }
                VarState::AtLower if !self.lower[j].is_finite() => {
                    self.state[j] = if self.upper[j].is_finite() {
                        VarState::AtUpper
                    } else {
                        VarState::FreeZero
                    };
                }
                VarState::AtUpper if !self.upper[j].is_finite() => {
                    self.state[j] = if self.lower[j].is_finite() {
                        VarState::AtLower
                    } else {
                        VarState::FreeZero
                    };
                }
                _ => {}
            }
        }
        if basic_count != m {
            return Err(SolveError::Singular);
        }
        #[expect(
            clippy::unwrap_used,
            reason = "basic_count == m above guarantees every slot is filled"
        )]
        let filled = basis.into_iter().map(|b| b.unwrap()).collect();
        self.basis = filled;
        if let BasisRepr::Dense { binv } = &mut self.repr {
            *binv = vec![0.0; m * m];
        }
        self.xb = vec![0.0; m];
        match (&mut self.repr, &warm.factors) {
            (BasisRepr::Sparse { lu, .. }, Some((standard, kept)))
                if Arc::ptr_eq(standard, self.standard) =>
            {
                // `kept` is what factorizing this basis of this matrix
                // would compute again.
                lu.clone_from(kept);
                self.lu_l_nnz = lu.l_nnz();
                self.lu_u_nnz = lu.u_nnz();
                self.factored.clone_from(&self.basis);
                self.compute_xb();
            }
            _ => self.refresh()?, // factorizes B and recomputes xb
        }

        // The warm basis must be dual-feasible (reduced costs consistent
        // with the nonbasic statuses); bound changes preserve this, other
        // edits may not.
        if !self.is_dual_feasible() {
            return Err(SolveError::IterationLimit);
        }

        self.degenerate_streak = 0;
        self.dual_optimize()?;
        // Polish with the primal (usually zero pivots).
        self.optimize()?;
        self.extract_solution()
    }

    /// Whether every nonbasic reduced cost is consistent with its status.
    fn is_dual_feasible(&mut self) -> bool {
        self.price_all();
        let tol = TOL * 10.0;
        for j in 0..self.state.len() {
            let d = match self.state[j] {
                VarState::Basic(_) => continue,
                _ => self.d[j],
            };
            let ok = match self.state[j] {
                VarState::AtLower => self.lower[j] >= self.upper[j] || d >= -tol,
                VarState::AtUpper => self.lower[j] >= self.upper[j] || d <= tol,
                VarState::FreeZero => d.abs() <= tol,
                #[expect(
                    clippy::unreachable,
                    reason = "the iteration skips basic columns; enum invariant"
                )]
                VarState::Basic(_) => unreachable!(),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Dual simplex: starting from a dual-feasible basis, drive all basic
    /// variables back inside their bounds.
    fn dual_optimize(&mut self) -> Result<(), SolveError> {
        let m = self.m();
        loop {
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            // Leaving row: most violated basic variable.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, at_upper)
            for r in 0..m {
                let bj = self.basis[r] as usize;
                let below = self.lower[bj] - self.xb[r];
                let above = self.xb[r] - self.upper[bj];
                let (viol, at_upper) = if below > above {
                    (below, false)
                } else {
                    (above, true)
                };
                if viol > TOL {
                    match leave {
                        Some((_, v, _)) if v >= viol => {}
                        _ => leave = Some((r, viol, at_upper)),
                    }
                }
            }
            let Some((row, _, at_upper)) = leave else {
                return Ok(()); // primal feasible
            };
            self.iterations += 1;
            self.dual_iterations += 1;

            let bj = self.basis[row] as usize;
            let target = if at_upper {
                self.upper[bj]
            } else {
                self.lower[bj]
            };
            let need_up = target > self.xb[row];

            // Reduced costs, and row `row` of `B⁻¹A` for the dual ratio
            // test.
            self.price_all();
            self.pivot_row(row);

            // Entering column: dual ratio test.
            let mut best: Option<(usize, f64, f64, f64)> = None; // (col, dir, ratio, |alpha|)
            for j in 0..self.state.len() {
                let dirs: &[f64] = match self.state[j] {
                    VarState::Basic(_) => continue,
                    VarState::AtLower if self.lower[j] >= self.upper[j] => continue,
                    VarState::AtUpper if self.lower[j] >= self.upper[j] => continue,
                    VarState::AtLower => &[1.0],
                    VarState::AtUpper => &[-1.0],
                    VarState::FreeZero => &[1.0, -1.0],
                };
                let (alpha, d) = (self.alpha[j], self.d[j]);
                if alpha.abs() < PIVOT_TOL {
                    continue;
                }
                for &dir in dirs {
                    // Moving j by t·dir changes xb[row] by −alpha·dir·t.
                    let rises = -alpha * dir > 0.0;
                    if rises != need_up {
                        continue;
                    }
                    // Dual feasibility keeps d·dir ≥ 0 (within tol).
                    let ratio = (d * dir).max(0.0) / alpha.abs();
                    let better = match best {
                        None => true,
                        Some((_, _, br, ba)) => {
                            ratio < br - 1e-12 || (ratio < br + 1e-12 && alpha.abs() > ba)
                        }
                    };
                    if better {
                        best = Some((j, dir, ratio, alpha.abs()));
                    }
                }
            }
            let Some((col, dir, _, _)) = best else {
                // No way to repair this row: the problem is infeasible.
                return Err(SolveError::Infeasible);
            };

            self.compute_direction(col);
            let wr = self.w[row];
            if wr.abs() < PIVOT_TOL {
                return Err(SolveError::Singular);
            }
            let step = (self.xb[row] - target) / (dir * wr);
            if step < -1e-7 {
                return Err(SolveError::Singular); // sign bookkeeping broke
            }
            self.apply_pivot(col, dir, row, step.max(0.0), at_upper)?;
            self.trace_step(col, Some(bj), wr.abs(), TracePricing::Dual);
        }
    }

    /// Reads the structural solution and duals off the final basis.
    fn extract_solution(&mut self) -> Result<Solution, SolveError> {
        // Extract structural values.
        let mut x = vec![0.0; self.n_struct];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VarState::Basic(row) => self.xb[row as usize],
                st => self.nonbasic_value(j, st),
            };
        }
        let mut obj = 0.0;
        for (cj, xj) in self.cost.iter().zip(&x) {
            obj += cj * xj;
        }
        if self.maximize {
            obj = -obj;
        }

        // Row duals `y = c_Bᵀ B⁻¹` of the final basis, converted back to
        // the problem's own sense (we minimized the negated objective
        // when maximizing).
        self.compute_duals();
        let mut duals = self.y.clone();
        if self.maximize {
            for d in &mut duals {
                *d = -*d;
            }
        }
        let stats = SolveStats {
            iterations: self.iterations,
            phase1_iterations: self.phase1_iterations,
            dual_iterations: self.dual_iterations,
            bound_flips: self.bound_flips,
            refreshes: self.refreshes,
            warm_started: self.warm_started,
            eta_updates: self.eta_updates,
            lu_l_nnz: self.lu_l_nnz,
            lu_u_nnz: self.lu_u_nnz,
        };
        let trace = self.take_trace();
        Ok(Solution::new(obj, x, self.iterations)
            .with_stats(stats)
            .with_duals(duals)
            .with_trace(trace))
    }

    /// Appends one step to the bounded trace ring. No-op unless
    /// `opts.trace` is set, so untraced solves pay a single branch.
    /// Call *after* the step was applied: the recorded objective is the
    /// post-step value (phase-1 steps record the phase-1 objective —
    /// total artificial infeasibility — which is what a convergence
    /// plot of feasibility restoration wants).
    fn trace_step(
        &mut self,
        entering: usize,
        leaving: Option<usize>,
        pivot: f64,
        pricing: TracePricing,
    ) {
        if !self.opts.trace {
            return;
        }
        let mut objective = self.current_objective();
        if self.maximize {
            objective = -objective;
        }
        let record = TraceRecord {
            iteration: self.iterations,
            entering,
            leaving,
            objective,
            pivot,
            pricing,
        };
        if self.trace.len() < LpTrace::CAPACITY {
            self.trace.push(record);
        } else {
            self.trace[self.trace_start] = record;
            self.trace_start = (self.trace_start + 1) % LpTrace::CAPACITY;
            self.trace_dropped += 1;
        }
    }

    /// Drains the trace ring into chronological order for the solution.
    fn take_trace(&mut self) -> LpTrace {
        let mut records = std::mem::take(&mut self.trace);
        records.rotate_left(self.trace_start);
        self.trace_start = 0;
        let dropped = self.trace_dropped;
        self.trace_dropped = 0;
        LpTrace { records, dropped }
    }

    /// Objective of the current basic solution under `self.cost`.
    fn current_objective(&self) -> f64 {
        let mut obj = 0.0;
        for (i, &bj) in self.basis.iter().enumerate() {
            obj += self.cost[bj as usize] * self.xb[i];
        }
        for (j, &st) in self.state.iter().enumerate() {
            if !matches!(st, VarState::Basic(_)) && self.cost[j] != 0.0 {
                obj += self.cost[j] * self.nonbasic_value(j, st);
            }
        }
        obj
    }

    /// Runs primal simplex iterations until optimal for the current costs.
    fn optimize(&mut self) -> Result<(), SolveError> {
        loop {
            if self.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            let bland = self.degenerate_streak >= BLAND_AFTER;
            let rule = if bland {
                TracePricing::Bland
            } else {
                TracePricing::Dantzig
            };
            match self.price(bland) {
                PriceStep::Optimal => return Ok(()),
                PriceStep::Enter { col, dir } => {
                    self.iterations += 1;
                    self.compute_direction(col);
                    match self.ratio_test(col, dir) {
                        Ratio::Unbounded => return Err(SolveError::Unbounded),
                        Ratio::BoundFlip { step } => {
                            self.apply_bound_flip(col, dir, step);
                            self.degenerate_streak = 0;
                            self.trace_step(col, None, 0.0, rule);
                        }
                        Ratio::Pivot {
                            row,
                            step,
                            to_upper,
                        } => {
                            if step <= TOL {
                                self.degenerate_streak += 1;
                            } else {
                                self.degenerate_streak = 0;
                            }
                            let leaving = self.basis[row] as usize;
                            let pivot_mag = self.w[row].abs();
                            self.apply_pivot(col, dir, row, step, to_upper)?;
                            self.trace_step(col, Some(leaving), pivot_mag, rule);
                        }
                    }
                }
            }
        }
    }

    /// Prices every column ([`Self::price_all`]) and picks an entering
    /// one.
    ///
    /// Dantzig pricing scans every column: the most violating reduced
    /// cost wins, earliest index on ties. Under Bland's rule the first
    /// improving index enters instead (the anti-cycling guarantee needs
    /// the global minimum index).
    fn price(&mut self, bland: bool) -> PriceStep {
        self.price_all();
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        for j in 0..self.state.len() {
            let Some((dir, score)) = self.price_candidate(j) else {
                continue;
            };
            if bland {
                return PriceStep::Enter { col: j, dir };
            }
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        match best {
            Some((col, dir, _)) => PriceStep::Enter { col, dir },
            None => PriceStep::Optimal,
        }
    }

    /// Reduced-cost test for one column against `self.d`:
    /// `Some((dir, score))` when `j` is nonbasic, not fixed, and moving
    /// it in direction `dir` improves the objective by rate `score`.
    fn price_candidate(&self, j: usize) -> Option<(f64, f64)> {
        let d = self.d[j];
        let fixed = self.lower[j] >= self.upper[j];
        match self.state[j] {
            VarState::AtLower if !fixed && d < -TOL => Some((1.0, -d)),
            VarState::AtUpper if !fixed && d > TOL => Some((-1.0, d)),
            VarState::FreeZero if d < -TOL => Some((1.0, -d)),
            VarState::FreeZero if d > TOL => Some((-1.0, d)),
            _ => None,
        }
    }

    /// Computes the duals `y = c_Bᵀ B⁻¹` into `self.y` (row space).
    fn compute_duals(&mut self) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            y,
            cost,
            basis,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for yj in y.iter_mut() {
                    *yj = 0.0;
                }
                for (i, &bj) in basis.iter().enumerate() {
                    let cb = cost[bj as usize];
                    if cb != 0.0 {
                        let row = &binv[i * m..(i + 1) * m];
                        for (yj, &bij) in y.iter_mut().zip(row) {
                            *yj += cb * bij;
                        }
                    }
                }
            }
            BasisRepr::Sparse { lu, etas } => {
                // c_B in slot space, pushed back through the etas, then
                // through the factors.
                for (ci, &bj) in rowbuf.iter_mut().zip(basis.iter()) {
                    *ci = cost[bj as usize];
                }
                etas.btran(rowbuf);
                lu.btran(rowbuf, y, lubuf);
            }
        }
    }

    /// Computes the duals `y = c_Bᵀ B⁻¹` and from them the reduced cost
    /// `dⱼ = cⱼ − aⱼ·y` of every column into `self.d`. `Aᵀy` is taken by
    /// rows over the nonzero duals only, and is bit-identical to one
    /// [`CscMatrix::dot_col`] per column (see
    /// [`CscMatrix::mul_vec_into`]).
    fn price_all(&mut self) {
        self.compute_duals();
        self.at.mul_vec_into(&self.y, &mut self.d);
        for (dj, &cj) in self.d.iter_mut().zip(&self.cost) {
            *dj = cj - *dj;
        }
    }

    /// Row `row` of `B⁻¹A` into `self.alpha`, for the dual simplex
    /// ratio test: `ρ = B⁻ᵀ e_row` (in `self.w`, which the following
    /// FTRAN overwrites), then `αⱼ = aⱼ·ρ` by rows over the nonzero `ρᵢ`.
    fn pivot_row(&mut self, row: usize) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            at,
            w: rho,
            alpha,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => rho.copy_from_slice(&binv[row * m..(row + 1) * m]),
            BasisRepr::Sparse { lu, etas } => {
                rowbuf.fill(0.0);
                rowbuf[row] = 1.0;
                etas.btran(rowbuf);
                lu.btran(rowbuf, rho, lubuf);
            }
        }
        alpha.resize(at.nrows(), 0.0);
        at.mul_vec_into(rho, alpha);
    }

    /// Rebuilds the sparse factorization from the current basis and
    /// drops the accumulated updates. No-op on the dense backend.
    fn factorize_sparse(&mut self) -> Result<(), SolveError> {
        let Simplex {
            repr,
            a,
            basis,
            factored,
            lu_l_nnz,
            lu_u_nnz,
            ..
        } = self;
        match repr {
            BasisRepr::Sparse { lu, etas } => {
                factored.clear();
                lu.factor(a, basis, 1e-12)?;
                factored.clone_from(basis);
                etas.clear();
                *lu_l_nnz = lu.l_nnz();
                *lu_u_nnz = lu.u_nnz();
            }
            BasisRepr::Dense { .. } => {}
        }
        Ok(())
    }

    /// `w = B⁻¹ · A[:, col]`.
    fn compute_direction(&mut self, col: usize) {
        let m = self.rhs.len();
        let Simplex {
            repr,
            a,
            w,
            rowbuf,
            lubuf,
            ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for wi in w.iter_mut() {
                    *wi = 0.0;
                }
                for (r, v) in a.col(col).iter() {
                    // w += v * B^{-1}[:, r]
                    for i in 0..m {
                        w[i] += v * binv[i * m + r];
                    }
                }
            }
            BasisRepr::Sparse { lu, etas } => {
                rowbuf.fill(0.0);
                for (r, v) in a.col(col).iter() {
                    rowbuf[r] = v;
                }
                lu.ftran(rowbuf, w, lubuf);
                etas.ftran(w);
            }
        }
    }

    /// Finds the blocking constraint for the entering column moving by
    /// `t ≥ 0` in direction `dir` (basics change by `−t·dir·w`).
    fn ratio_test(&self, col: usize, dir: f64) -> Ratio {
        let range = self.upper[col] - self.lower[col];
        let mut t_best = if range.is_finite() {
            range
        } else {
            f64::INFINITY
        };
        let mut blocking: Option<(usize, bool)> = None; // (row, leaves_at_upper)

        for i in 0..self.m() {
            let delta = -dir * self.w[i];
            let bj = self.basis[i] as usize;
            if delta > PIVOT_TOL {
                // Basic variable increases; blocked by its upper bound.
                let ub = self.upper[bj];
                if ub.is_finite() {
                    let t = (ub - self.xb[i]) / delta;
                    if t < t_best - 1e-12 || (t < t_best + 1e-12 && blocking.is_none()) {
                        t_best = t.max(0.0);
                        blocking = Some((i, true));
                    }
                }
            } else if delta < -PIVOT_TOL {
                let lb = self.lower[bj];
                if lb.is_finite() {
                    let t = (lb - self.xb[i]) / delta;
                    if t < t_best - 1e-12 || (t < t_best + 1e-12 && blocking.is_none()) {
                        t_best = t.max(0.0);
                        blocking = Some((i, false));
                    }
                }
            }
        }

        match blocking {
            None if t_best.is_infinite() => Ratio::Unbounded,
            None => Ratio::BoundFlip { step: t_best },
            Some((row, to_upper)) => Ratio::Pivot {
                row,
                step: t_best,
                to_upper,
            },
        }
    }

    /// Entering variable traverses its whole range without any basic
    /// variable blocking: flip it to the opposite bound.
    fn apply_bound_flip(&mut self, col: usize, dir: f64, step: f64) {
        self.bound_flips += 1;
        for i in 0..self.m() {
            self.xb[i] -= step * dir * self.w[i];
        }
        self.state[col] = match self.state[col] {
            VarState::AtLower => VarState::AtUpper,
            VarState::AtUpper => VarState::AtLower,
            other => other, // free variables never bound-flip (infinite range)
        };
    }

    fn apply_pivot(
        &mut self,
        col: usize,
        dir: f64,
        row: usize,
        step: f64,
        to_upper: bool,
    ) -> Result<(), SolveError> {
        let m = self.m();
        let pivot = self.w[row];
        if pivot.abs() < PIVOT_TOL {
            return Err(SolveError::Singular);
        }

        // Update basic values and the entering variable's value.
        for i in 0..m {
            self.xb[i] -= step * dir * self.w[i];
        }
        let entering_start = match self.state[col] {
            #[expect(
                clippy::unreachable,
                reason = "pricing only selects nonbasic columns; enum invariant"
            )]
            VarState::Basic(_) => unreachable!("entering variable is basic"),
            st => self.nonbasic_value(col, st),
        };
        let entering_value = entering_start + dir * step;

        // Leaving variable exits at the bound it hit.
        let leaving = self.basis[row] as usize;
        self.state[leaving] = if to_upper {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };
        // Snap exactly onto the bound to stop drift.
        let snapped = if to_upper {
            self.upper[leaving]
        } else {
            self.lower[leaving]
        };
        debug_assert!(
            (self.xb[row] - snapped).abs() < 1e-4,
            "leaving variable far from its bound"
        );
        let _ = snapped;

        self.basis[row] = col as u32;
        self.state[col] = VarState::Basic(row as u32);
        self.xb[row] = entering_value;

        match &mut self.repr {
            BasisRepr::Dense { binv } => {
                // Elementary row update of B^{-1}: pivot row divided by
                // w_row, others eliminated.
                let inv_pivot = 1.0 / pivot;
                // Split borrow: copy pivot row once.
                let prow: Vec<f64> = binv[row * m..(row + 1) * m]
                    .iter()
                    .map(|&v| v * inv_pivot)
                    .collect();
                for i in 0..m {
                    if i == row {
                        continue;
                    }
                    let wi = self.w[i];
                    if wi != 0.0 {
                        let base = i * m;
                        for (k, &pv) in prow.iter().enumerate() {
                            binv[base + k] -= wi * pv;
                        }
                    }
                }
                binv[row * m..(row + 1) * m].copy_from_slice(&prow);
            }
            BasisRepr::Sparse { etas, .. } => {
                // Product-form update: B' = B·E with E the identity whose
                // column `row` is the entering direction w.
                etas.push(row, &self.w);
                self.eta_updates += 1;
            }
        }

        self.pivots_since_refresh += 1;
        if self.pivots_since_refresh >= self.refresh_every {
            self.refresh()?;
        }
        Ok(())
    }

    /// Rebuilds the basis representation from scratch (refactorization)
    /// and recomputes the basic values.
    fn refresh(&mut self) -> Result<(), SolveError> {
        self.refreshes += 1;
        self.pivots_since_refresh = 0;
        self.refactor()
    }

    /// Factorizes the current basis and recomputes the basic values.
    fn refactor(&mut self) -> Result<(), SolveError> {
        match self.opts.basis {
            BasisBackend::Dense => self.refresh_dense()?,
            BasisBackend::SparseLu => self.factorize_sparse()?,
        }
        self.compute_xb();
        Ok(())
    }

    /// Recomputes the basic values `xb = B⁻¹ (b − N x_N)` from a basis
    /// representation with an empty eta file.
    fn compute_xb(&mut self) {
        let mut resid = self.rhs.clone();
        for (j, &st) in self.state.iter().enumerate() {
            if matches!(st, VarState::Basic(_)) {
                continue;
            }
            let v = self.nonbasic_value(j, st);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut resid);
            }
        }
        let m = self.m();
        let Simplex {
            repr, xb, lubuf, ..
        } = self;
        match repr {
            BasisRepr::Dense { binv } => {
                for (i, xi) in xb.iter_mut().enumerate() {
                    let base = i * m;
                    *xi = binv[base..base + m]
                        .iter()
                        .zip(&resid)
                        .map(|(b, r)| b * r)
                        .sum();
                }
            }
            BasisRepr::Sparse { lu, .. } => {
                // The eta file is empty; the factors alone are B.
                lu.ftran(&resid, xb, lubuf);
            }
        }
    }

    /// Recomputes the dense explicit `B⁻¹` by Gauss-Jordan elimination.
    fn refresh_dense(&mut self) -> Result<(), SolveError> {
        let m = self.m();
        // Assemble B column-wise into an augmented [B | I] dense matrix and
        // run Gauss-Jordan with partial pivoting.
        let mut aug = vec![0.0; m * 2 * m];
        let width = 2 * m;
        for (i, &bj) in self.basis.iter().enumerate() {
            for (r, v) in self.a.col(bj as usize).iter() {
                aug[r * width + i] = v;
            }
        }
        for i in 0..m {
            aug[i * width + m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut best = col;
            let mut best_abs = aug[col * width + col].abs();
            for r in (col + 1)..m {
                let a = aug[r * width + col].abs();
                if a > best_abs {
                    best_abs = a;
                    best = r;
                }
            }
            if best_abs < 1e-12 {
                return Err(SolveError::Singular);
            }
            if best != col {
                for k in 0..width {
                    aug.swap(col * width + k, best * width + k);
                }
            }
            let inv = 1.0 / aug[col * width + col];
            for k in 0..width {
                aug[col * width + k] *= inv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = aug[r * width + col];
                if f != 0.0 {
                    for k in 0..width {
                        aug[r * width + k] -= f * aug[col * width + k];
                    }
                }
            }
        }
        if let BasisRepr::Dense { binv } = &mut self.repr {
            if binv.len() != m * m {
                *binv = vec![0.0; m * m];
            }
            for i in 0..m {
                for k in 0..m {
                    binv[i * m + k] = aug[i * width + m + k];
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Problem, Relation, RowId, Sense, VarId};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn trivial_bounds_only() {
        // min 2x − 3y, 0 ≤ x ≤ 1, 0 ≤ y ≤ 2 → x=0, y=2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(2.0, 0.0, 1.0);
        let y = p.add_var(-3.0, 0.0, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -6.0);
        assert_close(s.value(x), 0.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn classic_2d_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_and_ge_need_phase1() {
        // min x + y s.t. x + y = 2, x ≥ 0.5 → obj 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 0.5);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 2.0);
        assert!(s.value(x) >= 0.5 - 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn trace_is_read_only_and_complete() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);

        let plain = p.solve().unwrap();
        let traced = p
            .solve_with(&SolveOptions {
                trace: true,
                ..SolveOptions::default()
            })
            .unwrap();

        // Tracing never changes the pivot sequence or the answer.
        assert_eq!(plain.values(), traced.values());
        assert_eq!(plain.objective(), traced.objective());
        assert_eq!(plain.stats(), traced.stats());
        assert!(plain.trace().records.is_empty(), "untraced solve is clean");

        let trace = traced.trace();
        assert_eq!(trace.dropped, 0);
        // One record per pivot or bound flip.
        assert_eq!(
            trace.total() as usize,
            traced.stats().iterations + traced.stats().bound_flips
        );
        // Iteration indices are 1-based, strictly increasing, and the
        // last record lands on the solve's final objective.
        for (k, r) in trace.records.iter().enumerate() {
            if k > 0 {
                assert!(r.iteration > trace.records[k - 1].iteration);
            }
            assert!(r.leaving.is_some() || r.pivot == 0.0);
        }
        let last = trace.records.last().unwrap();
        assert!((last.objective - traced.objective()).abs() < 1e-9);
        assert_eq!(last.pricing, TracePricing::Dantzig);
    }

    #[test]
    fn trace_records_dual_pivots_on_warm_restarts() {
        // Solve, tighten a bound so the old basis is primal-infeasible
        // but dual-feasible, and reoptimize warm with tracing on.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions {
            trace: true,
            ..SolveOptions::default()
        };
        let (sol, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert!(sol.trace().total() > 0);

        let mut q = p.clone();
        q.set_bounds(y, 0.0, 2.0);
        let (resol, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        assert!(resol.stats().warm_started);
        if resol.stats().dual_iterations > 0 {
            assert!(resol
                .trace()
                .records
                .iter()
                .any(|r| r.pricing == TracePricing::Dual));
        }
    }

    /// Both basis backends.
    fn backends() -> [SolveOptions; 2] {
        [BasisBackend::SparseLu, BasisBackend::Dense].map(|basis| SolveOptions {
            basis,
            ..SolveOptions::default()
        })
    }

    /// A small RL-SPM relaxation: three requests with two candidate paths
    /// each (`Σ x = 1`), load rows `Σ r·x − c_e ≤ 0` per (edge, slot), and
    /// one charge column per edge with upper bound `charge_cap`.
    fn rlspm_shaped(charge_cap: f64) -> Problem {
        // (rate, first slot, last slot, paths as edge lists) per request.
        let requests: [(f64, usize, usize, [&[usize]; 2]); 3] = [
            (2.0, 0, 1, [&[0], &[1, 2]]),
            (1.0, 1, 2, [&[0, 1], &[2]]),
            (3.0, 0, 2, [&[1], &[0, 2]]),
        ];
        let prices = [1.0, 2.5, 1.5];
        let mut p = Problem::new(Sense::Minimize);
        let x: Vec<Vec<_>> = requests
            .iter()
            .map(|_| (0..2).map(|_| p.add_var(0.0, 0.0, 1.0)).collect())
            .collect();
        let c: Vec<_> = prices
            .iter()
            .map(|&price| p.add_var(price, 0.0, charge_cap))
            .collect();
        for xi in &x {
            p.add_constraint(xi.iter().map(|&v| (v, 1.0)), Relation::Eq, 1.0);
        }
        for (e, &ce) in c.iter().enumerate() {
            for t in 0..3 {
                let mut row = vec![(ce, -1.0)];
                for (i, &(rate, start, end, paths)) in requests.iter().enumerate() {
                    for (j, path) in paths.iter().enumerate() {
                        if (start..=end).contains(&t) && path.contains(&e) {
                            row.push((x[i][j], rate));
                        }
                    }
                }
                if row.len() > 1 {
                    p.add_constraint(row, Relation::Le, 0.0);
                }
            }
        }
        p
    }

    #[test]
    fn crash_skips_phase1_on_rlspm_shape() {
        // A finite charge cap keeps pass 2 from using the charge column,
        // so that copy of the LP runs phase 1 and gives the reference.
        let reference = rlspm_shaped(1e3).solve().unwrap();
        assert!(reference.stats().phase1_iterations > 0);
        for opts in backends() {
            let s = rlspm_shaped(f64::INFINITY).solve_with(&opts).unwrap();
            assert_eq!(s.stats().phase1_iterations, 0, "{:?}", opts.basis);
            assert_close(s.objective(), reference.objective());
        }
    }

    #[test]
    fn rejected_crash_falls_back_to_phase1() {
        // Pass 2 raises c to 2 for row 2, which overdraws the row before
        // it (c ≤ 1): the crash basis factorizes but is infeasible, so
        // phase 1 must run from an intact slack basis. Optimum
        // x0 = x1 = 0.5, c = 1.
        let mut p = Problem::new(Sense::Minimize);
        let x0 = p.add_var(0.0, 0.0, 1.0);
        let x1 = p.add_var(1.0, 0.0, 1.0);
        let c = p.add_var(0.1, 0.0, f64::INFINITY);
        p.add_constraint([(x0, 1.0), (x1, 1.0)], Relation::Eq, 1.0);
        p.add_constraint([(c, 1.0)], Relation::Le, 1.0);
        p.add_constraint([(x0, 2.0), (c, -1.0)], Relation::Le, 0.0);
        // No column can absorb the equality row within its bounds.
        let mut q = Problem::new(Sense::Minimize);
        let y0 = q.add_var(1.0, 0.0, 2.0);
        let y1 = q.add_var(2.0, 0.0, 2.0);
        q.add_constraint([(y0, 1.0), (y1, 1.0)], Relation::Eq, 3.0);
        for opts in backends() {
            let s = p.solve_with(&opts).unwrap();
            assert!(s.stats().phase1_iterations > 0, "{:?}", opts.basis);
            assert_close(s.objective(), 0.6);
            assert_close(s.value(c), 1.0);
            let s = q.solve_with(&opts).unwrap();
            assert!(s.stats().phase1_iterations > 0, "{:?}", opts.basis);
            assert_close(s.objective(), 4.0);
        }
    }

    /// A seeded RL-SPM-shaped LP: `k` requests with two or three paths
    /// over `e` edges and `t` slots, assignment rows `Σ x = 1`, load rows
    /// `Σ r·x − c_e ≤ 0`, and an unbounded charge column per edge.
    fn seeded_rlspm(rng: &mut ChaCha8Rng, k: usize, e: usize, t: usize) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let mut load: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); e * t];
        let mut assign = Vec::new();
        for _ in 0..k {
            let rate = rng.gen_range(0.5..4.0);
            let (t0, t1) = (rng.gen_range(0..t), rng.gen_range(0..t));
            let xs: Vec<VarId> = (0..rng.gen_range(2..4))
                .map(|_| p.add_var(0.0, 0.0, 1.0))
                .collect();
            for &x in &xs {
                for _ in 0..rng.gen_range(1..4) {
                    let edge = rng.gen_range(0..e);
                    for slot in t0.min(t1)..=t0.max(t1) {
                        load[edge * t + slot].push((x, rate));
                    }
                }
            }
            assign.push(xs);
        }
        let charges: Vec<VarId> = (0..e)
            .map(|_| p.add_var(rng.gen_range(0.5..3.0), 0.0, f64::INFINITY))
            .collect();
        for xs in assign {
            p.add_constraint(xs.into_iter().map(|x| (x, 1.0)), Relation::Eq, 1.0);
        }
        for (row, mut terms) in load.into_iter().enumerate() {
            if !terms.is_empty() {
                terms.push((charges[row / t], -1.0));
                p.add_constraint(terms, Relation::Le, 0.0);
            }
        }
        p
    }

    /// A seeded BL-SPM-shaped LP: maximize value over acceptance
    /// variables `0 ≤ x ≤ 1` with per-request `Σ x ≤ 1` rows and
    /// `Σ r·x ≤ capacity` rows per (edge, slot).
    fn seeded_blspm(rng: &mut ChaCha8Rng, k: usize, e: usize, t: usize) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let mut cap: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); e * t];
        let mut accept = Vec::new();
        for _ in 0..k {
            let (rate, value) = (rng.gen_range(0.5..4.0), rng.gen_range(1.0..9.0));
            let slot = rng.gen_range(0..t);
            let xs: Vec<VarId> = (0..rng.gen_range(1..4))
                .map(|_| p.add_var(value, 0.0, 1.0))
                .collect();
            for &x in &xs {
                for _ in 0..rng.gen_range(1..3) {
                    cap[rng.gen_range(0..e) * t + slot].push((x, rate));
                }
            }
            accept.push(xs);
        }
        for xs in accept {
            p.add_constraint(xs.into_iter().map(|x| (x, 1.0)), Relation::Le, 1.0);
        }
        for terms in cap.into_iter().filter(|c| !c.is_empty()) {
            p.add_constraint(terms, Relation::Le, rng.gen_range(2.0..10.0));
        }
        p
    }

    /// A seeded random sparse LP with every row relation, duplicate
    /// terms in a row (some cancelling to zero), and one column `z`
    /// whose two entries cancel exactly.
    fn seeded_sparse(rng: &mut ChaCha8Rng, n: usize, m: usize) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..n)
            .map(|_| p.add_var(rng.gen_range(-2.0..2.0), 0.0, rng.gen_range(1.0..5.0)))
            .collect();
        let z = p.add_var(1.0, 0.0, 1.0);
        for i in 0..m {
            let mut terms: Vec<(VarId, f64)> = (0..rng.gen_range(1..5))
                .map(|_| (vars[rng.gen_range(0..n)], rng.gen_range(-3.0..3.0)))
                .collect();
            if i % 4 == 0 {
                // x + y − x: coalescing drops x from this row.
                let (x, v) = terms[0];
                terms.push((x, -v));
            }
            if let Some(&c) = [1.5, -1.5].get(i) {
                terms.push((z, c));
            }
            let rel = [Relation::Le, Relation::Ge, Relation::Eq][i % 3];
            p.add_constraint(terms, rel, rng.gen_range(0.0..2.0));
        }
        p
    }

    /// A row-space vector mixing `+0.0`, `−0.0`, tiny values whose
    /// products underflow, and ordinary values of both signs.
    fn mixed_vector(rng: &mut ChaCha8Rng, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| match rng.gen_range(0..6) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => rng.gen_range(-1.0..1.0) * 1e-320,
                _ => rng.gen_range(-5.0..5.0),
            })
            .collect()
    }

    /// The row-wise `Aᵀv` over `s.at` equals `s.a.dot_col(j, v)` bit for
    /// bit in every column `j`.
    fn assert_rowwise_is_dot_col(s: &Simplex, v: &[f64]) {
        let mut out = vec![f64::NAN; s.a.ncols()];
        s.at.mul_vec_into(v, &mut out);
        for (j, got) in out.iter().enumerate() {
            assert_eq!(got.to_bits(), s.a.dot_col(j, v).to_bits(), "column {j}");
        }
    }

    #[test]
    fn rowwise_product_is_bit_identical_to_dot_col() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for round in 0..12 {
            let problems = [
                seeded_rlspm(&mut rng, 6 + round, 4, 3),
                seeded_blspm(&mut rng, 8 + round, 4, 3),
                seeded_sparse(&mut rng, 10 + round, 8 + round),
            ];
            for p in &problems {
                let s = Simplex::new(p, &SolveOptions::default());
                for _ in 0..4 {
                    assert_rowwise_is_dot_col(&s, &mixed_vector(&mut rng, s.m()));
                }
                // All ones: `z`'s sum cancels to exactly zero.
                assert_rowwise_is_dot_col(&s, &vec![1.0; s.m()]);
                assert_rowwise_is_dot_col(&s, &vec![-0.0; s.m()]);
            }
        }
    }

    #[test]
    fn rowwise_product_covers_phase1_artificials() {
        // A transportation LP: the crash falls back, so phase 1 appends
        // artificials and rebuilds the row view.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut p = Problem::new(Sense::Minimize);
        let v: Vec<Vec<VarId>> = (0..3)
            .map(|_| {
                (0..4)
                    .map(|_| p.add_var(rng.gen_range(1.0..9.0), 0.0, f64::INFINITY))
                    .collect()
            })
            .collect();
        for row in &v {
            p.add_constraint(row.iter().map(|&x| (x, 1.0)), Relation::Le, 10.0);
        }
        for j in 0..4 {
            p.add_constraint(v.iter().map(|row| (row[j], 1.0)), Relation::Ge, 6.0);
        }
        for opts in backends() {
            let mut s = Simplex::new(&p, &opts);
            let sol = s.run().unwrap();
            assert!(sol.stats().phase1_iterations > 0);
            assert!(s.a.ncols() > s.n_struct + s.n_slack, "artificials appended");
            assert_eq!(*s.at, s.a.transpose());
            for _ in 0..8 {
                assert_rowwise_is_dot_col(&s, &mixed_vector(&mut rng, s.m()));
            }
            // The final reduced costs, as pricing saw them.
            s.price_all();
            for j in 0..s.a.ncols() {
                let d = s.cost[j] - s.a.dot_col(j, &s.y);
                assert_eq!(s.d[j].to_bits(), d.to_bits(), "column {j}");
            }
        }
    }

    #[test]
    fn infeasible_conflicting_rows() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Ge, 3.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(0.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min |x| style: min x s.t. x ≥ −5 handled via free var + Ge row.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Ge, -5.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -5.0);
        assert_close(s.value(x), -5.0);
    }

    #[test]
    fn negative_rhs_le() {
        // min x s.t. −x ≤ −3  (i.e. x ≥ 3)
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, -1.0)], Relation::Le, -3.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn bound_flip_path() {
        // max x + y s.t. x + y ≤ 10, 0 ≤ x ≤ 2, 0 ≤ y ≤ 3 → 5.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 2.0);
        let y = p.add_var(1.0, 0.0, 3.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), 5.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 1.5, 1.5);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.objective(), 4.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        for k in 1..=6 {
            p.add_constraint(
                [(x, 1.0), (y, k as f64)],
                Relation::Le,
                1.0 + (k as f64 - 1.0),
            );
        }
        p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint([(y, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert!(s.objective() <= 2.0 + 1e-6);
        assert!(p.max_violation(s.values()).max(0.0) < 1e-6);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 15), 3 demands (8, 7, 10), min cost.
        let cost = [[4.0, 6.0, 9.0], [5.0, 3.0, 8.0]];
        let supply = [10.0, 15.0];
        let demand = [8.0, 7.0, 10.0];
        let mut p = Problem::new(Sense::Minimize);
        let mut v = [[None; 3]; 2];
        for i in 0..2 {
            for j in 0..3 {
                v[i][j] = Some(p.add_var(cost[i][j], 0.0, f64::INFINITY));
            }
        }
        for i in 0..2 {
            p.add_constraint(
                (0..3).map(|j| (v[i][j].unwrap(), 1.0)),
                Relation::Le,
                supply[i],
            );
        }
        for j in 0..3 {
            p.add_constraint(
                (0..2).map(|i| (v[i][j].unwrap(), 1.0)),
                Relation::Ge,
                demand[j],
            );
        }
        // Optimal: x11=8, x13=2, x22=7, x23=8 → 32+18+21+64 = 135. The
        // crash has no negative column to repair the overdrawn supply
        // rows, so both backends fall back to phase 1.
        for opts in backends() {
            let s = p.solve_with(&opts).unwrap();
            assert_close(s.objective(), 135.0);
            assert!(p.max_violation(s.values()) < 1e-6);
            assert!(s.stats().phase1_iterations > 0, "{:?}", opts.basis);
        }
    }

    #[test]
    fn maximize_equals_negated_minimize() {
        let build = |sense| {
            let mut p = Problem::new(sense);
            let x = p.add_var(if sense == Sense::Maximize { 2.0 } else { -2.0 }, 0.0, 5.0);
            let y = p.add_var(if sense == Sense::Maximize { 1.0 } else { -1.0 }, 0.0, 5.0);
            p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
            p
        };
        let smax = build(Sense::Maximize).solve().unwrap();
        let smin = build(Sense::Minimize).solve().unwrap();
        assert_close(smax.objective(), -smin.objective());
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn no_constraints_bounded_vars() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(7.0, -1.0, 2.0);
        let s = p.solve().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.objective(), 14.0);
    }

    #[test]
    fn iteration_limit_error() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        let mut s = Simplex::new(&p, &SolveOptions::default());
        s.max_iterations = 1;
        // One pivot is not enough to reach optimality here.
        assert_eq!(s.run().unwrap_err(), SolveError::IterationLimit);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): cycles forever under naive Dantzig pricing with
        // exact arithmetic. The degenerate-streak → Bland fallback must
        // terminate at the optimum −1/20.
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var(-0.75, 0.0, f64::INFINITY);
        let x2 = p.add_var(150.0, 0.0, f64::INFINITY);
        let x3 = p.add_var(-0.02, 0.0, f64::INFINITY);
        let x4 = p.add_var(6.0, 0.0, f64::INFINITY);
        p.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint([(x3, 1.0)], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_close(s.objective(), -0.05);
    }

    #[test]
    fn klee_minty_terminates() {
        // Klee–Minty cube (n = 6): exponential for worst-case pivot
        // rules, but must finish well within the iteration budget.
        let n = 6;
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(2f64.powi((n - 1 - j) as i32), 0.0, f64::INFINITY))
            .collect();
        for i in 0..n {
            let mut terms: Vec<(crate::model::VarId, f64)> = Vec::new();
            for (j, &vj) in vars.iter().enumerate().take(i) {
                terms.push((vj, 2f64.powi((i - j + 1) as i32)));
            }
            terms.push((vars[i], 1.0));
            p.add_constraint(terms, Relation::Le, 5f64.powi(i as i32 + 1));
        }
        let s = p.solve().unwrap();
        assert_close(s.objective(), 5f64.powi(n as i32));
    }

    #[test]
    fn random_dense_lp_feasible_and_stable() {
        // A moderately sized LP exercising the periodic refresh path.
        let n = 30;
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|j| p.add_var(((j * 7) % 11) as f64 - 3.0, 0.0, 4.0))
            .collect();
        for i in 0..n {
            let terms: Vec<_> = (0..n)
                .filter(|j| (i + j) % 3 == 0)
                .map(|j| (vars[j], 1.0 + ((i * j) % 5) as f64))
                .collect();
            if !terms.is_empty() {
                p.add_constraint(terms, Relation::Ge, 2.0 + (i % 4) as f64);
            }
        }
        let s = p.solve().unwrap();
        assert!(p.max_violation(s.values()) < 1e-6);
        let mut frequent = Simplex::new(&p, &SolveOptions::default());
        frequent.refresh_every = 5;
        let s2 = frequent.run().unwrap();
        assert_close(s.objective(), s2.objective());
    }

    #[test]
    fn duals_of_textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        // Known shadow prices: 0, 3/2, 1.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        let r1 = p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let r2 = p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        let r3 = p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_close(s.dual(r1).unwrap(), 0.0);
        assert_close(s.dual(r2).unwrap(), 1.5);
        assert_close(s.dual(r3).unwrap(), 1.0);
        assert_eq!(s.duals().unwrap().len(), 3);
    }

    #[test]
    fn duals_predict_rhs_perturbation() {
        // Shadow price = marginal objective change for a small rhs bump.
        let build = |rhs: f64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var(2.0, 0.0, f64::INFINITY);
            let y = p.add_var(3.0, 0.0, f64::INFINITY);
            let row = p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, rhs);
            (p, row)
        };
        let (p, row) = build(10.0);
        let s = p.solve().unwrap();
        let dual = s.dual(row).unwrap();
        let (p2, _) = build(10.5);
        let s2 = p2.solve().unwrap();
        assert_close(s2.objective() - s.objective(), dual * 0.5);
    }

    #[test]
    fn warm_start_matches_cold_after_bound_tightening() {
        // The branch-and-bound pattern: solve, tighten one variable's
        // bound, re-solve from the old basis via the dual simplex.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions::default();
        let (s0, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert_close(s0.objective(), 36.0); // (2, 6)

        // Tighten y ≤ 4: the old optimum y = 6 violates it.
        let mut q = p.clone();
        q.set_bounds(y, 0.0, 4.0);
        let (warm, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        let cold = q.solve().unwrap();
        assert_close(warm.objective(), cold.objective());
        assert!(q.max_violation(warm.values()) < 1e-6);
    }

    #[test]
    fn warm_start_chain_stays_correct() {
        // Repeated tightenings, always reusing the previous basis.
        let build = || {
            let mut p = Problem::new(Sense::Minimize);
            let vars: Vec<_> = (0..6)
                .map(|i| p.add_var(1.0 + i as f64 * 0.5, 0.0, 10.0))
                .collect();
            for i in 0..6 {
                let j = (i + 1) % 6;
                p.add_constraint([(vars[i], 1.0), (vars[j], 1.0)], Relation::Ge, 4.0);
            }
            (p, vars)
        };
        let (mut p, vars) = build();
        let opts = SolveOptions::default();
        let (_, mut basis) = p.solve_with_basis(&opts, None).unwrap();
        for step in 0..4 {
            let v = vars[step % vars.len()];
            let (lo, up) = p.bounds(v);
            p.set_bounds(v, (lo + 1.0).min(up), up);
            let (warm, b) = p.solve_with_basis(&opts, Some(&basis)).unwrap();
            basis = b;
            let cold = p.solve().unwrap();
            assert_close(warm.objective(), cold.objective());
        }
    }

    #[test]
    fn warm_start_detects_infeasibility() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Ge, 4.0);
        let opts = SolveOptions::default();
        let (_, basis) = p.solve_with_basis(&opts, None).unwrap();
        let mut q = p.clone();
        q.set_bounds(x, 0.0, 2.0); // conflicts with x ≥ 4
        assert_eq!(
            q.solve_with_basis(&opts, Some(&basis)).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn warm_start_with_garbage_basis_falls_back() {
        // A basis from an unrelated problem must not corrupt the result.
        let mut other = Problem::new(Sense::Minimize);
        let a = other.add_var(1.0, 0.0, 1.0);
        other.add_constraint([(a, 1.0)], Relation::Le, 1.0);
        let opts = SolveOptions::default();
        let (_, alien) = other.solve_with_basis(&opts, None).unwrap();

        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 5.0);
        let y = p.add_var(2.0, 0.0, 5.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
        let (sol, _) = p.solve_with_basis(&opts, Some(&alien)).unwrap();
        assert_close(sol.objective(), 11.0); // y = 5, x = 1
    }

    /// `classic_2d_max` with `c` as the coefficient of `y` in its last
    /// row, and its row ids. Its optimal basis, `{x, y, s₁}`, stays
    /// optimal for `c ∈ [2, 3)`.
    fn classic_lp(c: f64) -> (Problem, Vec<RowId>) {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        let rows = vec![
            p.add_constraint([(x, 1.0)], Relation::Le, 4.0),
            p.add_constraint([(y, 2.0)], Relation::Le, 12.0),
            p.add_constraint([(x, 3.0), (y, c)], Relation::Le, 18.0),
        ];
        (p, rows)
    }

    /// A basis that carries fresh factors: the warm re-solve of an
    /// unchanged problem pivots zero times after its refactorization.
    fn basis_with_factors(p: &Problem, opts: &SolveOptions) -> Basis {
        let (_, cold) = p.solve_with_basis(opts, None).unwrap();
        let (again, basis) = p.solve_with_basis(opts, Some(&cold)).unwrap();
        assert!(again.stats().warm_started);
        assert_eq!(again.iterations(), 0);
        assert!(
            basis.factors.is_some(),
            "no pivot since the refactorization"
        );
        basis
    }

    #[test]
    fn kept_factors_give_the_same_bits_as_a_refactorization() {
        let (mut p, rows) = classic_lp(2.0);
        let opts = SolveOptions::default();
        let kept = basis_with_factors(&p, &opts);
        let mut stripped = kept.clone();
        stripped.factors = None;
        // A right-hand-side edit keeps the standard form, and so the
        // factors, but moves the optimum (y = 10 would need x < 0): the
        // warm solves must pivot.
        p.set_rhs(rows[1], 20.0);
        let (reused, _) = p.solve_with_basis(&opts, Some(&kept)).unwrap();
        let (refactored, _) = p.solve_with_basis(&opts, Some(&stripped)).unwrap();
        assert!(reused.stats().warm_started && refactored.stats().warm_started);
        assert!(reused.iterations() > 0, "the edit moves the optimum");
        assert_eq!(reused.stats().refreshes + 1, refactored.stats().refreshes);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(reused.values()), bits(refactored.values()));
        assert_eq!(
            reused.objective().to_bits(),
            refactored.objective().to_bits()
        );
        assert_eq!(
            bits(reused.duals().unwrap()),
            bits(refactored.duals().unwrap())
        );
        assert_eq!(reused.iterations(), refactored.iterations());
    }

    #[test]
    fn factors_of_another_problem_are_never_reused() {
        let opts = SolveOptions {
            verify: true,
            ..SolveOptions::default()
        };
        // Same shape, other coefficients: the same basis is optimal for
        // both, but its matrix differs. Reusing `p`'s factors would put
        // `q` at `p`'s vertex (2, 6), which violates `q`'s last row.
        let (p, _) = classic_lp(2.0);
        let (q, _) = classic_lp(2.5);
        let foreign = basis_with_factors(&p, &opts);
        let (warm, _) = q.solve_with_basis(&opts, Some(&foreign)).unwrap();
        let cold = q.solve_with(&opts).unwrap();
        assert!(warm.stats().warm_started);
        assert_eq!(warm.stats().refreshes, 1, "the warm start refactorized");
        crate::verify::verify(&q, &warm, TOL * 10.0).unwrap();
        assert_close(warm.objective(), cold.objective());
    }

    #[test]
    fn a_basis_with_basic_artificials_carries_no_factors() {
        // x + y = 2 and its double, with x, y ≤ 1: the crash finds no
        // column for the first row, and phase 1 leaves an artificial of
        // the redundant pair basic at zero.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(1.0, 0.0, 1.0);
        let y = p.add_var(1.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint([(x, 2.0), (y, 2.0)], Relation::Eq, 4.0);
        let mut s = Simplex::new(&p, &SolveOptions::default());
        let sol = s.run().unwrap();
        assert_close(sol.objective(), 2.0);
        let nm = s.n_struct + s.n_slack;
        assert!(s.basis.iter().any(|&bj| bj as usize >= nm));
        // Even factors fresh for this basis stay behind: the snapshot
        // swaps the artificial for its row's slack.
        s.refresh().unwrap();
        assert!(s.into_basis().factors.is_none());
    }

    #[test]
    fn a_silent_cold_restart_counts_as_cold() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        let opts = SolveOptions::default();
        let (first, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert!(!first.stats().warm_started);
        // The old optimal basis is not dual-feasible for the flipped
        // objective, so `solve_with_basis` restarts cold and returns Ok.
        p.set_objective(x, -1.0);
        let (sol, basis) = p.solve_with_basis(&opts, Some(&basis)).unwrap();
        assert!(!sol.stats().warm_started);
        assert_close(sol.objective(), 0.0);
        // The same objective again reuses the basis.
        let (sol, _) = p.solve_with_basis(&opts, Some(&basis)).unwrap();
        assert!(sol.stats().warm_started);
        assert_close(sol.objective(), 0.0);
    }

    #[test]
    fn adding_a_cut_or_a_column_after_a_solve_rebuilds_the_form() {
        // max x + y  s.t.  x + 2y ≤ 4, x ≤ 3: optimum (3, 0.5).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, f64::INFINITY);
        let y = p.add_var(1.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0), (y, 2.0)], Relation::Le, 4.0);
        p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
        let opts = SolveOptions::default();
        let (first, basis) = p.solve_with_basis(&opts, None).unwrap();
        assert_close(first.objective(), 3.5);

        // The cut x + y ≤ 3 binds at the old optimum.
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.standard_form().a.nrows(), 3);
        for warm in [None, Some(&basis)] {
            let (sol, _) = p.solve_with_basis(&opts, warm).unwrap();
            assert_close(sol.objective(), 3.0);
            assert!(p.max_violation(sol.values()) < 1e-9);
        }

        // A new column that only the objective sees.
        let z = p.add_var(5.0, 0.0, 1.0);
        assert_eq!(p.standard_form().a.ncols(), 3 + 3);
        let sol = p.solve().unwrap();
        assert_close(sol.objective(), 8.0);
        assert_close(sol.value(z), 1.0);
    }

    #[test]
    fn edits_keep_the_cached_form_and_match_a_fresh_build() {
        // Right-hand sides, bounds and costs change; the matrix does not.
        let edit = |p: &mut Problem, seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (n, m) = (p.num_vars(), p.num_constraints());
            for _ in 0..3 {
                p.set_rhs(RowId(rng.gen_range(0..m) as u32), rng.gen_range(0.5..3.0));
                let v = p.var(rng.gen_range(0..n));
                p.set_bounds(v, 0.0, rng.gen_range(0.0..1.0));
                let v = p.var(rng.gen_range(0..n));
                p.set_objective(v, rng.gen_range(1.0..9.0));
            }
        };
        let build = |seed: u64| seeded_blspm(&mut ChaCha8Rng::seed_from_u64(seed), 30, 6, 4);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..8 {
            for opts in backends() {
                let mut p = build(seed);
                let (_, basis) = p.solve_with_basis(&opts, None).unwrap();
                let cached = Arc::as_ptr(p.standard_form());
                edit(&mut p, 100 + seed);
                assert!(
                    std::ptr::eq(cached, Arc::as_ptr(p.standard_form())),
                    "edits keep the form"
                );
                let mut fresh = build(seed);
                edit(&mut fresh, 100 + seed);
                for warm in [None, Some(&basis)] {
                    let (got, _) = p.solve_with_basis(&opts, warm).unwrap();
                    let (want, _) = fresh.solve_with_basis(&opts, warm).unwrap();
                    assert_eq!(bits(got.values()), bits(want.values()));
                    assert_eq!(bits(got.duals().unwrap()), bits(want.duals().unwrap()));
                    assert_eq!(got.stats(), want.stats());
                }
            }
        }
    }

    #[test]
    fn stats_report_work_counters() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let opts = SolveOptions::default();
        let (cold, basis) = p.solve_with_basis(&opts, None).unwrap();
        let cs = cold.stats();
        assert!(cs.iterations > 0);
        assert_eq!(cs.iterations, cold.iterations());
        assert!(!cs.warm_started);
        assert_eq!(cs.dual_iterations, 0);

        // Tighten a bound and reoptimize warm: the dual simplex runs.
        let mut q = p.clone();
        q.set_bounds(y, 0.0, 4.0);
        let (warm, _) = q.solve_with_basis(&opts, Some(&basis)).unwrap();
        let ws = warm.stats();
        assert!(ws.warm_started);
        assert!(ws.dual_iterations > 0);
        assert!(ws.refreshes >= 1, "warm start refactorizes the basis");
        assert!(ws.iterations >= ws.dual_iterations);
    }

    #[test]
    fn refresh_keeps_answers_stable() {
        // Force frequent refreshes and compare against default options.
        let build = || {
            let mut p = Problem::new(Sense::Minimize);
            let n = 12;
            let vars: Vec<_> = (0..n)
                .map(|i| p.add_var(1.0 + (i as f64) * 0.3, 0.0, 4.0))
                .collect();
            for i in 0..n {
                let j = (i + 1) % n;
                p.add_constraint([(vars[i], 1.0), (vars[j], 1.0)], Relation::Ge, 3.0);
            }
            p
        };
        let s_default = build().solve().unwrap();
        let p = build();
        let mut every_pivot = Simplex::new(&p, &SolveOptions::default());
        every_pivot.refresh_every = 1;
        let s_refresh = every_pivot.run().unwrap();
        assert_close(s_default.objective(), s_refresh.objective());
    }
}
