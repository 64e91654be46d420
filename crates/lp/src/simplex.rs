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
//!   pivots.
//! * The entering direction `w = B⁻¹aⱼ` is **hypersparse**: a few dozen
//!   nonzeros out of hundreds of rows on the RL-SPM/BL-SPM bases. Its
//!   FTRAN solves only where a nonzero can arise
//!   ([`LuFactors::ftran_col`], [`EtaFile::ftran_sparse`]) and returns
//!   the sorted list of its nonzero rows, and the ratio test, the
//!   basic-value update and the eta push visit only that list. Every
//!   value is bit-identical to the dense solve's.
//! * The duals' LU solve is **incremental** ([`LuFactors::btran_duals`]):
//!   it redoes only the elimination steps whose inputs changed bits
//!   since the previous pricing pass, and its output is bit-identical to
//!   the dense BTRAN, which debug builds check on every pass. A pricing
//!   pass on a basis and costs already priced (a warm solve's first
//!   iteration after its dual-feasibility check, the final duals) reuses
//!   the duals and reduced costs it has.
//! * Pricing is **Dantzig** over every column: the most violating
//!   reduced cost enters, earliest index on ties. An automatic switch
//!   to Bland's rule after a run of degenerate pivots guarantees
//!   termination. One pass computes each reduced cost and scores it
//!   with per-column movability multipliers instead of branching on
//!   the column's state. The reduced costs `c − Aᵀy` come from one
//!   row-wise product over the transpose of the standard-form matrix, scattering
//!   only the rows whose dual `yᵢ` is nonzero. The matrix `[A | I]` and
//!   its transpose are cached on the [`Problem`], built by its first
//!   solve and shared by later solves and clones until a variable or
//!   constraint is added; a solve copies them only when phase 1 appends
//!   artificials. Each column's terms are added in ascending row order, so
//!   every reduced cost is bit-identical to a per-column dot product.
//! * A **dual-simplex iteration works on its pivot row's support**. On
//!   the RL-SPM/BL-SPM bases `ρ = B⁻ᵀe_r` has a dozen or so nonzeros,
//!   `ρᵀA` reaches a few dozen columns and half of those can enter. The
//!   row comes from the eta file's BTRAN and the sparse LU solve
//!   ([`LuFactors::btran_sparse`]); `α = ρᵀA` is scattered over `ρ`'s
//!   nonzero rows in ascending order, which zeroes, writes and lists
//!   only the columns it reaches ([`CscMatrix::mul_sparse_into`]); and
//!   the ratio test walks those columns in ascending order, computing
//!   the reduced cost `dⱼ = cⱼ − aⱼ·y` (`CscMatrix::dot_col`,
//!   bit-identical to the row-wise product) only for a candidate, one
//!   with `|αⱼ| ≥ PIVOT_TOL`. The duals `y` stay incremental; the first
//!   iteration after the dual-feasibility check reads the reduced costs
//!   that check computed. Every value the iteration reads, and so the
//!   entering column, is the one the dense computation over every column
//!   gives, which debug builds check on every iteration.
//! * Each [`Problem`] keeps **one solve workspace** ([`SolveWorkspace`]):
//!   the LU factorization's elimination workspace and duals cache, an
//!   eta block, and the per-column and per-row arrays. A solve takes it
//!   from the problem and puts it back when it ends, so the problem's
//!   next solve, warm or cold, allocates only what it must grow. Each
//!   solve sizes and clears what it reads, so results do not depend on
//!   what the workspace saw before.
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
//! * A cold solve whose phase 2 starts from the slack basis **replays**
//!   the [`PivotPath`] the previous such solve of the same [`Problem`]
//!   recorded. Pricing reads only the costs, bounds, column states, the
//!   basis, its factors and etas, and the Bland flag; none of these
//!   depends on the right-hand side, which is all that may differ
//!   between the two solves. So while every earlier step had its
//!   recorded ratio-test outcome and the Bland flags agree, the recorded
//!   entering column is the one pricing would pick, and the iteration
//!   takes it without computing the duals or the reduced costs. FTRAN,
//!   the ratio test and the updates run as usual; the first outcome that
//!   differs ends the replay. Debug builds price every replayed step and
//!   check the choice.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::SolveError;
use crate::factor::{EtaFile, LuFactors, SparseVec};
use crate::matrix::CscMatrix;
use crate::model::{Problem, Relation, Sense, StandardForm};
use crate::solution::{Solution, SolveStats};

/// Feasibility / optimality tolerance.
const TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted in the ratio test.
const PIVOT_TOL: f64 = 1e-9;
/// Refactorization cadence: the LU factors are rebuilt from scratch
/// every this many pivots, which bounds the eta-file length.
const REFRESH_EVERY: usize = 300;
/// Consecutive degenerate pivots before pricing switches to Bland's rule.
const BLAND_AFTER: usize = 200;

/// Options for one simplex solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveOptions {
    /// Independently certify every returned solution via
    /// [`crate::verify`] (recomputed residuals, bounds, objective) and
    /// fail the solve with [`SolveError::CertificateRejected`] on
    /// disagreement. Always on under `debug_assertions`; this flag forces
    /// it in release builds (`MetisConfig::audit` sets it).
    pub verify: bool,
}

/// A snapshot of an optimal basis, reusable to warm-start the solve of a
/// *related* problem: same rows and columns, with bounds, right-hand
/// sides or costs edited in place (the re-solve pattern of a
/// fixed-structure program). Opaque; obtain one from
/// [`Problem::solve_with_basis`].
///
/// A basis may also carry the LU factors of its own basis matrix.
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
        let mut s = Simplex::new(self);
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
            let mut s = Simplex::new(self);
            if let Ok(solution) = s.run_from_basis(basis) {
                if self.certify_if_requested(options, &solution).is_ok() {
                    return Ok((solution, s.into_basis()));
                }
            }
        }
        let mut s = Simplex::new(self);
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

/// The primal phase-2 iterations of one cold solve that started from
/// the slack basis, in order: what a later such solve of the same
/// problem replays (see [`Problem::set_rhs`]).
pub(crate) type PivotPath = Vec<Step>;

/// One primal iteration: the entering column pricing chose, under which
/// rule, and what the ratio test did with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    col: u32,
    /// Whether the column entered upward (`dir = 1`).
    up: bool,
    /// Whether pricing ran under Bland's rule.
    bland: bool,
    /// The leaving row and whether it left at its upper bound; `None`
    /// for a bound flip.
    leave: Option<(u32, bool)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Nonbasic free variable, held at value 0.
    FreeZero,
}

/// The buffers of one solve that the next solve of the same [`Problem`]
/// reuses: the LU factorization's elimination workspace and duals cache
/// (without the factors), the eta file's first block, and the solver's
/// per-column and per-row arrays. A solve takes them from its problem
/// ([`Simplex::new`]) and puts them back when it ends (`Simplex`'s
/// `Drop`); see the fields of [`Simplex`] for what each holds. Nothing
/// here carries over into a result: `Simplex::new` resizes and clears
/// every buffer a solve reads before writing it, the eta file starts
/// empty, and the duals cache starts cold at the solve's first
/// factorization (or copy of kept factors), so its first duals solve
/// writes all of `y`.
#[derive(Debug, Default)]
pub(crate) struct SolveWorkspace {
    cost: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    rhs: Vec<f64>,
    state: Vec<VarState>,
    movable: Vec<[f64; 2]>,
    basis: Vec<u32>,
    lu: LuFactors,
    etas: EtaFile,
    factored: Vec<u32>,
    xb: Vec<f64>,
    y: Vec<f64>,
    w: SparseVec,
    d: Vec<f64>,
    alpha: SparseVec,
    rho: SparseVec,
    rowbuf: Vec<f64>,
    lubuf: Vec<f64>,
}

struct Simplex<'p> {
    /// The problem solved: its cached standard form, which `a` and `at`
    /// borrow until phase 1 appends artificials, and the pivot path a
    /// cold slack-start solve replays and records.
    problem: &'p Problem,
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

    /// Written only through [`Self::set_state`], which keeps `movable`
    /// in step.
    state: Vec<VarState>,
    /// `[up, down]` per column: `1.0` where pricing may move the column
    /// up (nonbasic at a lower bound below its upper, or free) or down
    /// (at an upper bound above its lower, or free), else `0.0`.
    movable: Vec<[f64; 2]>,
    basis: Vec<u32>,
    /// Sparse LU factors of the basis matrix as of the last
    /// refactorization.
    lu: LuFactors,
    /// Product-form etas of the pivots applied since then.
    etas: EtaFile,
    /// The basis `lu` was last computed for (empty
    /// before the first factorization and after a failed one).
    factored: Vec<u32>,
    /// Values of basic variables, per row.
    xb: Vec<f64>,

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

    /// Whether `y` and `d` are still those of the current basis, factors
    /// and costs: set by a pricing pass, cleared by every state change
    /// (pivots included), refactorization and cost change.
    priced: bool,
    /// Pricing passes answered from `y` and `d` as they stood.
    #[cfg(test)]
    pricing_reused: usize,

    /// The path being replayed, while every step so far matched it.
    replay: Option<Arc<PivotPath>>,
    /// This solve's own path, recorded when phase 2 starts from the
    /// slack basis.
    path: Option<PivotPath>,
    /// Iterations whose entering column came from `replay`.
    replayed: usize,

    // Scratch buffers reused across iterations.
    /// The duals, from [`Self::compute_duals`]. The only buffer handed to
    /// [`LuFactors::btran_duals`], which writes only what changed.
    y: Vec<f64>,
    /// The entering direction `B⁻¹aⱼ`, from [`Self::compute_direction`].
    w: SparseVec,
    /// Reduced costs `c − Aᵀy` of every column, from [`Self::price`] or
    /// [`Self::price_all`].
    d: Vec<f64>,
    /// Dual-simplex pivot row `(B⁻¹A)[r, :]`, from [`Self::pivot_row`],
    /// listing the columns it touches, and the BTRAN `ρ = B⁻ᵀe_r` it is
    /// taken from, listing its nonzero rows.
    alpha: SparseVec,
    rho: SparseVec,
    /// Row-space scratch (FTRAN right-hand sides, BTRAN outputs).
    rowbuf: Vec<f64>,
    /// Permuted-space scratch handed to [`LuFactors`] solves.
    lubuf: Vec<f64>,
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
    /// A solver for `problem`, with the buffers its last solve left
    /// behind (see [`SolveWorkspace`]) sized and cleared for this one.
    fn new(problem: &'p Problem) -> Self {
        let m = problem.num_constraints();
        let n = problem.num_vars();
        let maximize = problem.sense() == Sense::Maximize;
        let SolveWorkspace {
            mut cost,
            mut lower,
            mut upper,
            mut rhs,
            mut state,
            mut movable,
            mut basis,
            lu,
            mut etas,
            mut factored,
            mut xb,
            mut y,
            mut w,
            mut d,
            mut alpha,
            mut rho,
            mut rowbuf,
            mut lubuf,
        } = problem.workspace.take().map(|w| *w).unwrap_or_default();

        // Structural columns, then one slack per row: a·x + s = b.
        let standard = problem.standard_form();
        cost.clear();
        lower.clear();
        upper.clear();
        for v in &problem.vars {
            cost.push(if maximize { -v.obj } else { v.obj });
            lower.push(v.lower);
            upper.push(v.upper);
        }
        for row in &problem.rows {
            cost.push(0.0);
            let (lo, up) = match row.relation {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            lower.push(lo);
            upper.push(up);
        }
        rhs.clear();
        rhs.extend(problem.rows.iter().map(|r| r.rhs));
        state.clear();
        movable.clear();
        basis.clear();
        etas.reset(m);
        factored.clear();
        for buf in [&mut xb, &mut y, &mut rowbuf, &mut lubuf] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        d.clear();
        d.resize(n + m, 0.0);
        w.reset(m);
        rho.reset(m);
        alpha.reset(n + m);

        Simplex {
            problem,
            a: Cow::Borrowed(&standard.a),
            at: Cow::Borrowed(&standard.at),
            d,
            cost,
            lower,
            upper,
            rhs,
            n_struct: n,
            n_slack: m,
            maximize,
            state,
            movable,
            basis,
            lu,
            etas,
            factored,
            xb,
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
            priced: false,
            #[cfg(test)]
            pricing_reused: 0,
            replay: None,
            path: None,
            replayed: 0,
            y,
            w,
            alpha,
            rho,
            rowbuf,
            lubuf,
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

    /// Puts column `j` in state `st` and updates its pricing
    /// multipliers from its current bounds.
    fn set_state(&mut self, j: usize, st: VarState) {
        self.priced = false;
        let fixed = self.lower[j] >= self.upper[j];
        self.movable[j] = match st {
            VarState::AtLower if !fixed => [1.0, 0.0],
            VarState::AtUpper if !fixed => [0.0, 1.0],
            VarState::FreeZero => [1.0, 1.0],
            _ => [0.0, 0.0],
        };
        self.state[j] = st;
    }

    /// Sets every column's pricing multipliers from its state in
    /// `self.state`, through [`Self::set_state`].
    fn sync_movable(&mut self) {
        self.movable.clear();
        self.movable.resize(self.state.len(), [0.0; 2]);
        for j in 0..self.state.len() {
            self.set_state(j, self.state[j]);
        }
    }

    fn run(&mut self) -> Result<Solution, SolveError> {
        let m = self.m();
        let n_total = self.n_struct + self.n_slack;

        // --- Initial point: structural vars at a bound, slacks basic. ---
        for j in 0..n_total {
            let st = if j < self.n_struct {
                self.initial_state(j)
            } else {
                VarState::Basic((j - self.n_struct) as u32)
            };
            self.state.push(st);
        }
        self.sync_movable();
        self.set_slack_basis();

        // Row residuals with all structural vars at their resting values.
        let mut resid = self.rhs.clone();
        for j in 0..self.n_struct {
            let v = self.nonbasic_value(j, self.state[j]);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut resid);
            }
        }

        // A feasible slack basis skips the crash, `phase1` only factorizes
        // it, and phase 2 from it replays and records a pivot path.
        // Otherwise a primal-feasible crash basis makes phase 1
        // unnecessary.
        let slack_start = (0..m).all(|i| self.slack_absorbs(i, resid[i]));
        if slack_start || !self.crash(&resid) {
            self.phase1(&resid)?;
        }
        if slack_start {
            self.replay = self.problem.path.get();
            self.path = Some(Vec::with_capacity(
                self.replay.as_ref().map_or(0, |p| p.len()),
            ));
        }

        // --- Phase 2. ---
        self.degenerate_streak = 0;
        self.optimize()?;

        let solution = self.extract_solution()?;
        if let Some(path) = self.path.take() {
            self.problem.path.set(Arc::new(path));
        }
        Ok(solution)
    }

    /// Phase 1 from the slack basis: adds one artificial per row whose
    /// slack cannot absorb its residual `resid` (none: the slack basis
    /// is feasible) and minimizes their sum, leaving a feasible basis
    /// for phase 2.
    fn phase1(&mut self, resid: &[f64]) -> Result<(), SolveError> {
        let n_total = self.n_struct + self.n_slack;

        // --- Phase 1: add artificials for rows whose slack can't absorb
        // the residual. ---
        // (row, ±1) of each artificial's unit column.
        let mut arts: Vec<(usize, f64)> = Vec::new();
        for (i, &r) in resid.iter().enumerate() {
            let sj = self.n_struct + i;
            let (sl, su) = (self.lower[sj], self.upper[sj]);
            if r > su + TOL {
                // Slack pinned at its upper bound; artificial absorbs r − su.
                self.set_state(sj, VarState::AtUpper);
                self.xb[i] = r - su;
                arts.push((i, 1.0));
            } else if r < sl - TOL {
                self.set_state(sj, VarState::AtLower);
                self.xb[i] = sl - r;
                arts.push((i, -1.0));
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
            self.state.resize(n_total + n_art, VarState::AtLower);
            self.movable.resize(n_total + n_art, [0.0; 2]);
            for (k, &(row, _)) in arts.iter().enumerate() {
                let aj = n_total + k;
                self.cost[aj] = 1.0;
                self.lower.push(0.0);
                self.upper.push(f64::INFINITY);
                self.set_state(aj, VarState::Basic(row as u32));
                // The artificial replaces the slack as the basic variable
                // of its row; xb[row] was already set above.
                self.basis[row] = aj as u32;
            }

            self.factorize()?;
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
                    self.set_state(aj, VarState::AtLower);
                }
            }
            // Restore the real objective (zero on artificials).
            self.cost = saved_cost;
            self.cost.resize(n_total + n_art, 0.0);
            self.priced = false;
        } else {
            self.factorize()?;
        }
        Ok(())
    }

    /// Feasibility crash: tries to replace phase 1 by a primal-feasible
    /// basis read off the row structure, given the residuals `resid` of
    /// an infeasible slack basis. Returns `true` with the basis
    /// factorized and `xb` set; returns `false` with `state` and `basis`
    /// as they were (the slack basis) when no feasible crash basis was
    /// found.
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
        let saved_state = self.state.clone();
        let mut r = resid.to_vec();

        // Pass 1.
        for i in 0..m {
            if self.slack_absorbs(i, resid[i]) || self.slack_absorbs(i, r[i]) {
                continue;
            }
            let (sl, su) = self.slack_range(i);
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
            if self.basis[i] as usize != self.slack(i) || self.slack_absorbs(i, r[i]) {
                continue;
            }
            let sign = if r[i] < self.slack_range(i).0 {
                -1.0
            } else {
                1.0
            };
            let pick = self.structural_row(i).find(|&(j, v)| {
                v * sign > PIVOT_TOL
                    && self.state[j] == VarState::AtLower
                    && self.upper[j] == f64::INFINITY
                    && self
                        .a
                        .col(j)
                        .iter()
                        .all(|(k, _)| self.basis[k] as usize == self.slack(k))
            });
            let Some((j, _)) = pick else {
                return self.crash_fallback(saved_state);
            };
            // The step each of the column's rows needs; the largest wins.
            let mut best: Option<(usize, f64, bool)> = None; // (row, step, to_upper)
            for (k, v) in self.a.col(j).iter() {
                let (kl, ku) = self.slack_range(k);
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

    /// Standard-form column of row `i`'s slack.
    fn slack(&self, i: usize) -> usize {
        debug_assert!(i < self.n_slack, "row {i} has no slack");
        self.n_struct + i
    }

    /// Bounds `(lower, upper)` of row `i`'s slack.
    fn slack_range(&self, i: usize) -> (f64, f64) {
        let s = self.slack(i);
        (self.lower[s], self.upper[s])
    }

    /// Whether row `i`'s slack can take the value `x` within its bounds.
    fn slack_absorbs(&self, i: usize, x: f64) -> bool {
        let (sl, su) = self.slack_range(i);
        x <= su + TOL && x >= sl - TOL
    }

    /// Makes structural column `j` basic in `row`, retiring the row's
    /// slack to the bound it hit.
    fn make_crash_basic(&mut self, j: usize, row: usize, slack_to_upper: bool) {
        self.set_state(j, VarState::Basic(row as u32));
        let slack = self.slack(row);
        let st = if slack_to_upper {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };
        self.set_state(slack, st);
        self.basis[row] = j as u32;
    }

    /// Undoes a rejected crash: restores the slack basis and the saved
    /// `state`. Phase 1 rebuilds `xb` and the factors from those two.
    fn crash_fallback(&mut self, state: Vec<VarState>) -> bool {
        self.state = state;
        self.sync_movable();
        self.set_slack_basis();
        false
    }

    /// Makes every row's slack its basic variable.
    fn set_slack_basis(&mut self) {
        let ns = self.n_struct;
        self.basis.clear();
        self.basis
            .extend((0..self.n_slack).map(|i| (ns + i) as u32));
    }

    /// Snapshots the final basis over structural + slack columns.
    /// Rows whose basic variable is an artificial are remapped to their
    /// slack when possible; when not, the snapshot is unusable and a
    /// warm start from it will fall back to a cold start.
    ///
    /// The sparse LU factors go with the snapshot when they are a fresh
    /// factorization of exactly this basis: no pivot since the last
    /// refactorization and no artificial column. They move out of the
    /// solver; its workspace stays behind for the problem's next solve.
    fn into_basis(mut self) -> Basis {
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
        let factors = (fresh && self.etas.is_empty()).then(|| {
            (
                Arc::clone(self.problem.standard_form()),
                self.lu.take_factors(),
            )
        });
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
        self.state.clone_from(&warm.state);
        self.sync_movable();
        const UNFILLED: u32 = u32::MAX;
        self.basis.clear();
        self.basis.resize(m, UNFILLED);
        let mut basic_count = 0;
        for j in 0..nm {
            match self.state[j] {
                VarState::Basic(r) => {
                    let r = r as usize;
                    if r >= m || self.basis[r] != UNFILLED {
                        return Err(SolveError::Singular);
                    }
                    self.basis[r] = j as u32;
                    basic_count += 1;
                }
                VarState::AtLower if !self.lower[j].is_finite() => {
                    let st = if self.upper[j].is_finite() {
                        VarState::AtUpper
                    } else {
                        VarState::FreeZero
                    };
                    self.set_state(j, st);
                }
                VarState::AtUpper if !self.upper[j].is_finite() => {
                    let st = if self.lower[j].is_finite() {
                        VarState::AtLower
                    } else {
                        VarState::FreeZero
                    };
                    self.set_state(j, st);
                }
                _ => {}
            }
        }
        if basic_count != m {
            return Err(SolveError::Singular);
        }
        match &warm.factors {
            Some((standard, kept)) if Arc::ptr_eq(standard, self.problem.standard_form()) => {
                // `kept` is what factorizing this basis of this matrix
                // would compute again.
                self.lu.clone_from(kept);
                self.lu_l_nnz = self.lu.l_nnz();
                self.lu_u_nnz = self.lu.u_nnz();
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

            // Row `row` of `B⁻¹A` on its support, and the dual ratio test
            // over the columns it touches. A candidate's reduced cost is
            // read from `d` when the dual-feasibility check has just
            // priced every column, and is computed from the duals
            // otherwise; `d` then stays stale and `priced` unset.
            let reuse = self.reuse_pricing();
            if !reuse {
                self.compute_duals();
            }
            self.pivot_row(row);
            let (a, y, d, cost) = (&self.a, &self.y, &self.d, &self.cost);
            let entering = self.dual_ratio_test(
                self.alpha.nz.iter().map(|&j| j as usize),
                &self.alpha.val,
                |j| {
                    if reuse {
                        d[j]
                    } else {
                        cost[j] - a.dot_col(j, y)
                    }
                },
                need_up,
            );
            #[cfg(debug_assertions)]
            self.check_dual_row(row, need_up, entering);
            let Some((col, dir)) = entering else {
                // No way to repair this row: the problem is infeasible.
                return Err(SolveError::Infeasible);
            };

            self.compute_direction(col);
            let wr = self.w.val[row];
            if wr.abs() < PIVOT_TOL {
                return Err(SolveError::Singular);
            }
            let step = (self.xb[row] - target) / (dir * wr);
            if step < -1e-7 {
                return Err(SolveError::Singular); // sign bookkeeping broke
            }
            self.apply_pivot(col, dir, row, step.max(0.0), at_upper)?;
        }
    }

    /// The dual simplex's entering column and direction for a leaving
    /// row whose basic value must rise (`need_up`) or fall, from that
    /// row of `B⁻¹A` (`alpha`) over the columns `cols`, ascending. A
    /// candidate is a nonbasic column that can move, with
    /// `|αⱼ| ≥ PIVOT_TOL`, in a direction that moves the row toward its
    /// bound; the smallest ratio `max(dⱼ·dir, 0)/|αⱼ|` wins, a ratio within
    /// `1e-12` of the best wins by a larger `|αⱼ|`, and the earlier column
    /// on a full tie. `reduced(j)` gives `dⱼ` and is called for
    /// candidates only. Columns outside `cols` must have `αⱼ = 0`, so
    /// the columns `α` touches give what every column gives.
    fn dual_ratio_test(
        &self,
        cols: impl Iterator<Item = usize>,
        alpha: &[f64],
        reduced: impl Fn(usize) -> f64,
        need_up: bool,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64, f64)> = None; // (col, dir, ratio, |alpha|)
        for j in cols {
            let dirs: &[f64] = match self.state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower if self.lower[j] >= self.upper[j] => continue,
                VarState::AtUpper if self.lower[j] >= self.upper[j] => continue,
                VarState::AtLower => &[1.0],
                VarState::AtUpper => &[-1.0],
                VarState::FreeZero => &[1.0, -1.0],
            };
            let alpha = alpha[j];
            if alpha.abs() < PIVOT_TOL {
                continue;
            }
            let d = reduced(j);
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
        best.map(|(j, dir, _, _)| (j, dir))
    }

    /// The debug oracle of one dual iteration, given the pivot row of
    /// `row` and the entering column the ratio test picked from it:
    /// recomputes the row densely (the eta file's BTRAN and
    /// [`LuFactors::btran`] for `ρ`, [`CscMatrix::mul_vec_into`] for `α`)
    /// and every reduced cost from the current duals as
    /// [`Self::price_all`] does, and asserts that `ρ` and `α` have the
    /// same bits on their support and are zero elsewhere, and that the
    /// ratio test over every column picks `entering`.
    #[cfg(any(test, debug_assertions))]
    fn check_dual_row(&mut self, row: usize, need_up: bool, entering: Option<(usize, f64)>) {
        let mut e = vec![0.0; self.m()];
        e[row] = 1.0;
        self.etas.btran(&mut e);
        let mut rho = vec![0.0; self.m()];
        self.lu.btran(&e, &mut rho, &mut self.lubuf);
        assert!(
            same_on_support(&self.rho, &rho),
            "the sparse BTRAN row differs from the dense one"
        );
        let mut alpha = vec![0.0; self.at.nrows()];
        self.at.mul_vec_into(&rho, &mut alpha);
        assert!(
            same_on_support(&self.alpha, &alpha),
            "the sparse pivot row differs from the dense one"
        );
        let mut d = vec![0.0; alpha.len()];
        self.at.mul_vec_into(&self.y, &mut d);
        for (dj, &cj) in d.iter_mut().zip(&self.cost) {
            *dj = cj - *dj;
        }
        let full = self.dual_ratio_test(0..alpha.len(), &alpha, |j| d[j], need_up);
        assert!(
            full == entering,
            "the ratio test over every column picks {full:?}, over the row's support {entering:?}"
        );
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
        // when maximizing). The last pricing pass saw this basis.
        self.price_all();
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
            replayed: self.replayed,
            lu_l_nnz: self.lu_l_nnz,
            lu_u_nnz: self.lu_u_nnz,
        };
        Ok(Solution::new(obj, x, self.iterations)
            .with_stats(stats)
            .with_duals(duals))
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
            let (col, dir) = match self.replayed_entry(bland) {
                Some(entry) => entry,
                None => match self.price(bland) {
                    PriceStep::Optimal => return Ok(()),
                    PriceStep::Enter { col, dir } => (col, dir),
                },
            };
            self.iterations += 1;
            self.compute_direction(col);
            let leave = match self.ratio_test(col, dir) {
                Ratio::Unbounded => return Err(SolveError::Unbounded),
                Ratio::BoundFlip { step } => {
                    self.apply_bound_flip(col, dir, step);
                    self.degenerate_streak = 0;
                    None
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
                    self.apply_pivot(col, dir, row, step, to_upper)?;
                    Some((row as u32, to_upper))
                }
            };
            self.note_step(Step {
                col: col as u32,
                up: dir > 0.0,
                bland,
                leave,
            });
        }
    }

    /// The entering column and direction of the replayed path's next
    /// step, when the solve is still on the path and that step was
    /// priced under the same rule (`bland`). Everything pricing reads is
    /// then what it was in the recorded solve, so this is its choice.
    fn replayed_entry(&mut self, bland: bool) -> Option<(usize, f64)> {
        let step = *self.replay.as_ref()?.get(self.path.as_ref()?.len())?;
        if step.bland != bland {
            return None;
        }
        self.replayed += 1;
        let entry = (step.col as usize, if step.up { 1.0 } else { -1.0 });
        #[cfg(debug_assertions)]
        {
            let priced = match self.price(bland) {
                PriceStep::Optimal => None,
                PriceStep::Enter { col, dir } => Some((col, dir)),
            };
            debug_assert!(
                priced == Some(entry),
                "a replayed step enters {entry:?} where pricing picks {priced:?}"
            );
        }
        Some(entry)
    }

    /// Records one primal iteration on this solve's path, and ends the
    /// replay unless the replayed path took the same step there.
    fn note_step(&mut self, step: Step) {
        let Some(path) = &mut self.path else {
            return;
        };
        if self
            .replay
            .as_ref()
            .is_some_and(|r| r.get(path.len()) != Some(&step))
        {
            self.replay = None;
        }
        path.push(step);
    }

    /// Prices every column and picks an entering one, in one pass that
    /// computes each reduced cost `dⱼ = cⱼ − (Aᵀy)ⱼ` into `self.d` (the
    /// bits [`Self::price_all`] gives) and scores it.
    ///
    /// Dantzig pricing scans every column: the most violating reduced
    /// cost wins, earliest index on ties. Under Bland's rule the first
    /// improving index enters instead (the anti-cycling guarantee needs
    /// the global minimum index). A column's score is
    /// `max(−dⱼ·up, dⱼ·down)` with its [`Self::movable`] multipliers, the
    /// rate at which moving it improves the objective; it is a candidate
    /// when the score exceeds `TOL`, and enters upward when `−dⱼ·up`
    /// does.
    ///
    /// When the reduced costs are still current ([`Self::priced`]), the
    /// pass only scores them.
    fn price(&mut self, bland: bool) -> PriceStep {
        if self.reuse_pricing() {
            return self.pick(bland, |dj, _| *dj);
        }
        self.compute_duals();
        self.at.mul_vec_into(&self.y, &mut self.d);
        self.priced = true;
        self.pick(bland, |dj, cj| {
            let d = cj - *dj;
            *dj = d;
            d
        })
    }

    /// The scoring half of [`Self::price`], over the reduced costs that
    /// `reduced` reads from `d` (given `dⱼ` and `cⱼ`).
    fn pick(&mut self, bland: bool, reduced: impl Fn(&mut f64, f64) -> f64) -> PriceStep {
        debug_assert!(self.d.len() == self.cost.len() && self.d.len() == self.movable.len());
        let mut best_score = TOL;
        let mut best = PriceStep::Optimal;
        for (j, ((dj, &cj), &[up, down])) in self
            .d
            .iter_mut()
            .zip(&self.cost)
            .zip(&self.movable)
            .enumerate()
        {
            let d = reduced(dj, cj);
            let (rise, fall) = (-d * up, d * down);
            let score = rise.max(fall);
            if score > best_score {
                // Under Bland's rule the first candidate is final.
                best_score = if bland { f64::INFINITY } else { score };
                let dir = if rise > TOL { 1.0 } else { -1.0 };
                best = PriceStep::Enter { col: j, dir };
            }
        }
        best
    }

    /// Computes the duals `y = c_Bᵀ B⁻¹` into `self.y` (row space).
    fn compute_duals(&mut self) {
        // c_B in slot space, pushed back through the etas, then through
        // the factors.
        for (ci, &bj) in self.rowbuf.iter_mut().zip(&self.basis) {
            *ci = self.cost[bj as usize];
        }
        self.etas.btran(&mut self.rowbuf);
        self.lu.btran_duals(&self.rowbuf, &mut self.y);
        #[cfg(debug_assertions)]
        {
            let mut dense = vec![0.0; self.m()];
            self.lu.btran(&self.rowbuf, &mut dense, &mut self.lubuf);
            debug_assert!(
                same_bits(&self.y, &dense),
                "incremental duals differ from the dense BTRAN"
            );
        }
    }

    /// Computes the duals `y = c_Bᵀ B⁻¹` and from them the reduced cost
    /// `dⱼ = cⱼ − aⱼ·y` of every column into `self.d`, unless both are
    /// still current ([`Self::priced`]). `Aᵀy` is taken by rows over the
    /// nonzero duals only, and is bit-identical to one
    /// `CscMatrix::dot_col` per column (see
    /// [`CscMatrix::mul_vec_into`]).
    fn price_all(&mut self) {
        if self.reuse_pricing() {
            return;
        }
        self.compute_duals();
        self.at.mul_vec_into(&self.y, &mut self.d);
        for (dj, &cj) in self.d.iter_mut().zip(&self.cost) {
            *dj = cj - *dj;
        }
        self.priced = true;
    }

    /// Whether `y` and `d` are still those of the current basis and
    /// costs, so that a pricing pass can use them as they stand. A
    /// warm solve prices its restored basis to check dual feasibility,
    /// and then again in its first dual or primal iteration; the final
    /// duals are those of the last pricing pass. Debug builds check
    /// every reuse against a fresh computation.
    fn reuse_pricing(&mut self) -> bool {
        if !self.priced {
            return false;
        }
        #[cfg(test)]
        {
            self.pricing_reused += 1;
        }
        #[cfg(debug_assertions)]
        {
            let (y, d) = (self.y.clone(), self.d.clone());
            self.priced = false;
            self.price_all();
            debug_assert!(
                same_bits(&y, &self.y) && same_bits(&d, &self.d),
                "reused duals or reduced costs are stale"
            );
        }
        true
    }

    /// Row `row` of `B⁻¹A` into `self.alpha`, for the dual simplex
    /// ratio test, on its support: `ρ = B⁻ᵀ e_row` into `self.rho` (the
    /// eta file's BTRAN, which writes only the slots its updates
    /// replaced, then the sparse LU solve from those slots), then
    /// `αⱼ = aⱼ·ρ` scattered by rows over the nonzero `ρᵢ`.
    fn pivot_row(&mut self, row: usize) {
        self.rowbuf.fill(0.0);
        self.rowbuf[row] = 1.0;
        self.etas.btran(&mut self.rowbuf);
        let slots = std::iter::once(row).chain(self.etas.slots());
        self.lu.btran_sparse(&self.rowbuf, slots, &mut self.rho);
        self.at.mul_sparse_into(&self.rho, &mut self.alpha);
    }

    /// Rebuilds the LU factorization from the current basis and drops
    /// the accumulated etas.
    fn factorize(&mut self) -> Result<(), SolveError> {
        self.priced = false;
        self.factored.clear();
        self.lu.factor(&self.a, &self.basis, 1e-12)?;
        self.factored.clone_from(&self.basis);
        self.etas.clear();
        self.lu_l_nnz = self.lu.l_nnz();
        self.lu_u_nnz = self.lu.u_nnz();
        Ok(())
    }

    /// `w = B⁻¹ · A[:, col]`, by the sparse FTRAN: the LU solve over
    /// the steps the column reaches, then the eta file over the nonzeros.
    fn compute_direction(&mut self, col: usize) {
        self.lu.ftran_col(self.a.col(col), &mut self.w);
        self.etas.ftran_sparse(&mut self.w);
    }

    /// Finds the blocking constraint for the entering column moving by
    /// `t ≥ 0` in direction `dir` (basics change by `−t·dir·w`). Only
    /// `w`'s nonzero rows can block; they are visited in ascending
    /// order, so ties still go to the lowest row.
    fn ratio_test(&self, col: usize, dir: f64) -> Ratio {
        let range = self.upper[col] - self.lower[col];
        let mut t_best = if range.is_finite() {
            range
        } else {
            f64::INFINITY
        };
        let mut blocking: Option<(usize, bool)> = None; // (row, leaves_at_upper)

        for &i in &self.w.nz {
            let i = i as usize;
            let delta = -dir * self.w.val[i];
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
        self.update_xb(step * dir);
        let st = match self.state[col] {
            VarState::AtLower => VarState::AtUpper,
            VarState::AtUpper => VarState::AtLower,
            other => other, // free variables never bound-flip (infinite range)
        };
        self.set_state(col, st);
    }

    /// `xb −= t·w` over `w`'s nonzeros.
    fn update_xb(&mut self, t: f64) {
        for &i in &self.w.nz {
            let i = i as usize;
            self.xb[i] -= t * self.w.val[i];
        }
    }

    fn apply_pivot(
        &mut self,
        col: usize,
        dir: f64,
        row: usize,
        step: f64,
        to_upper: bool,
    ) -> Result<(), SolveError> {
        let pivot = self.w.val[row];
        if pivot.abs() < PIVOT_TOL {
            return Err(SolveError::Singular);
        }

        // Update basic values and the entering variable's value.
        self.update_xb(step * dir);
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
        let (st, bound) = if to_upper {
            (VarState::AtUpper, self.upper[leaving])
        } else {
            (VarState::AtLower, self.lower[leaving])
        };
        self.set_state(leaving, st);
        debug_assert!(
            (self.xb[row] - bound).abs() < 1e-4,
            "leaving variable far from its bound"
        );

        self.basis[row] = col as u32;
        self.set_state(col, VarState::Basic(row as u32));
        self.xb[row] = entering_value;

        // Product-form update: B' = B·E with E the identity whose column
        // `row` is the entering direction w.
        self.etas.push(row, &self.w);
        self.eta_updates += 1;

        self.pivots_since_refresh += 1;
        if self.pivots_since_refresh >= self.refresh_every {
            self.refresh()?;
        }
        Ok(())
    }

    /// Refactorizes the basis from scratch and recomputes the basic
    /// values.
    fn refresh(&mut self) -> Result<(), SolveError> {
        self.refreshes += 1;
        self.pivots_since_refresh = 0;
        self.refactor()
    }

    /// Factorizes the current basis and recomputes the basic values.
    fn refactor(&mut self) -> Result<(), SolveError> {
        self.factorize()?;
        self.compute_xb();
        Ok(())
    }

    /// Recomputes the basic values `xb = B⁻¹ (b − N x_N)` from fresh
    /// factors (an empty eta file).
    fn compute_xb(&mut self) {
        // The residual `b − N x_N`, in `rowbuf`.
        self.rowbuf.copy_from_slice(&self.rhs);
        for (j, &st) in self.state.iter().enumerate() {
            if matches!(st, VarState::Basic(_)) {
                continue;
            }
            let v = self.nonbasic_value(j, st);
            if v != 0.0 {
                self.a.axpy_col(j, -v, &mut self.rowbuf);
            }
        }
        // The eta file is empty; the factors alone are B.
        self.lu.ftran(&self.rowbuf, &mut self.xb, &mut self.lubuf);
    }
}

/// Puts the solve's buffers back on its problem for the next solve.
impl Drop for Simplex<'_> {
    fn drop(&mut self) {
        use std::mem::take;
        // The factors and all but one eta block are freed: each solve
        // factorizes (or copies a basis's factors) before it reads them,
        // and a long cold solve's factors and etas would otherwise stay
        // allocated for as long as the problem.
        self.etas.trim();
        drop(self.lu.take_factors());
        self.problem.workspace.put(Box::new(SolveWorkspace {
            cost: take(&mut self.cost),
            lower: take(&mut self.lower),
            upper: take(&mut self.upper),
            rhs: take(&mut self.rhs),
            state: take(&mut self.state),
            movable: take(&mut self.movable),
            basis: take(&mut self.basis),
            lu: take(&mut self.lu),
            etas: take(&mut self.etas),
            factored: take(&mut self.factored),
            xb: take(&mut self.xb),
            y: take(&mut self.y),
            w: take(&mut self.w),
            d: take(&mut self.d),
            alpha: take(&mut self.alpha),
            rho: take(&mut self.rho),
            rowbuf: take(&mut self.rowbuf),
            lubuf: take(&mut self.lubuf),
        }));
    }
}

/// Whether the sparse vector `sparse` lists all its nonzeros and has
/// the bits of `dense` wherever either is nonzero.
#[cfg(any(test, debug_assertions))]
fn same_on_support(sparse: &SparseVec, dense: &[f64]) -> bool {
    sparse.val.len() == dense.len()
        && sparse.val.iter().zip(dense).enumerate().all(|(i, (s, d))| {
            (*s == 0.0 && *d == 0.0)
                || (s.to_bits() == d.to_bits() && sparse.nz.binary_search(&(i as u32)).is_ok())
        })
}

/// Whether `a` and `b` hold the same values, bit for bit.
#[cfg(debug_assertions)]
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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
        let s = rlspm_shaped(f64::INFINITY).solve().unwrap();
        assert_eq!(s.stats().phase1_iterations, 0);
        assert_close(s.objective(), reference.objective());
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
        let s = p.solve().unwrap();
        assert!(s.stats().phase1_iterations > 0);
        assert_close(s.objective(), 0.6);
        assert_close(s.value(c), 1.0);
        let s = q.solve().unwrap();
        assert!(s.stats().phase1_iterations > 0);
        assert_close(s.objective(), 4.0);
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
                let s = Simplex::new(p);
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
        let mut s = Simplex::new(&p);
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

    /// The pricing rule one column at a time, as the reference for the
    /// fused [`Simplex::price`]: reduced costs by `dot_col` against
    /// `s.y`, candidates by state, then Dantzig or Bland.
    fn reference_price(s: &Simplex, bland: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        for j in 0..s.state.len() {
            let d = s.cost[j] - s.a.dot_col(j, &s.y);
            let fixed = s.lower[j] >= s.upper[j];
            let candidate = match s.state[j] {
                VarState::AtLower if !fixed && d < -TOL => Some((1.0, -d)),
                VarState::AtUpper if !fixed && d > TOL => Some((-1.0, d)),
                VarState::FreeZero if d < -TOL => Some((1.0, -d)),
                VarState::FreeZero if d > TOL => Some((-1.0, d)),
                _ => None,
            };
            let Some((dir, score)) = candidate else {
                continue;
            };
            if bland {
                return Some((j, dir));
            }
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    #[test]
    fn fused_pricing_picks_what_per_column_pricing_picks() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let mut entered = 0;
        for round in 0..10 {
            let problems = [
                seeded_rlspm(&mut rng, 6 + round, 4, 3),
                seeded_blspm(&mut rng, 8 + round, 4, 3),
                seeded_sparse(&mut rng, 10 + round, 8 + round),
            ];
            for p in &problems {
                let mut s = Simplex::new(p);
                // Solved: factors and etas as a real solve leaves them
                // (phase 1 adds fixed artificials to some).
                if s.run().is_err() {
                    continue;
                }
                for _ in 0..6 {
                    for c in s.cost.iter_mut() {
                        *c = match rng.gen_range(0..4) {
                            0 => 0.0,
                            _ => rng.gen_range(-3.0..3.0),
                        };
                    }
                    // Nonbasic columns get random bounds (fixed, free,
                    // upper-bounded only, boxed) and a random state.
                    for j in 0..s.state.len() {
                        if matches!(s.state[j], VarState::Basic(_)) {
                            continue;
                        }
                        (s.lower[j], s.upper[j]) = match rng.gen_range(0..4) {
                            0 => (1.0, 1.0),
                            1 => (f64::NEG_INFINITY, f64::INFINITY),
                            2 => (f64::NEG_INFINITY, 2.0),
                            _ => (0.0, 3.0),
                        };
                        let st = [VarState::AtLower, VarState::AtUpper, VarState::FreeZero]
                            [rng.gen_range(0..3)];
                        s.set_state(j, st);
                    }
                    for bland in [false, true] {
                        let got = match s.price(bland) {
                            PriceStep::Optimal => None,
                            PriceStep::Enter { col, dir } => Some((col, dir)),
                        };
                        assert_eq!(got, reference_price(&s, bland), "bland {bland}");
                        entered += usize::from(got.is_some());
                        for j in 0..s.d.len() {
                            let d = s.cost[j] - s.a.dot_col(j, &s.y);
                            assert_eq!(s.d[j].to_bits(), d.to_bits(), "column {j}");
                        }
                    }
                }
            }
        }
        assert!(
            entered > 100,
            "only {entered} pricing calls found a candidate"
        );
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
        // rows, so the solver falls back to phase 1.
        let s = p.solve().unwrap();
        assert_close(s.objective(), 135.0);
        assert!(p.max_violation(s.values()) < 1e-6);
        assert!(s.stats().phase1_iterations > 0);
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
        let mut s = Simplex::new(&p);
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
        let mut frequent = Simplex::new(&p);
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
    fn a_warm_solve_prices_each_basis_once() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(3.0, 0.0, f64::INFINITY);
        let y = p.add_var(5.0, 0.0, f64::INFINITY);
        p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        // Cold: the final duals are the last pricing pass's.
        let mut s = Simplex::new(&p);
        s.run().unwrap();
        assert_eq!(s.pricing_reused, 1, "cold");
        let basis = s.into_basis();
        // Unchanged: the dual-feasibility check prices the restored
        // basis, and the primal's one pricing pass and the final duals
        // reuse it.
        let mut s = Simplex::new(&p);
        let sol = s.run_from_basis(&basis).unwrap();
        assert_eq!(sol.stats().iterations, 0);
        assert_eq!(s.pricing_reused, 2, "unchanged");
        drop(s);
        // Tightened: the dual simplex's first iteration reuses the
        // check's pass, and the final duals the primal's.
        p.set_bounds(y, 0.0, 4.0);
        let mut s = Simplex::new(&p);
        let sol = s.run_from_basis(&basis).unwrap();
        assert!(sol.stats().dual_iterations > 0);
        assert_eq!(s.pricing_reused, 2, "tightened");
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
        assert_eq!(again.stats().iterations, 0);
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
        assert!(reused.stats().iterations > 0, "the edit moves the optimum");
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
        assert_eq!(reused.stats().iterations, refactored.stats().iterations);
    }

    #[test]
    fn factors_of_another_problem_are_never_reused() {
        let opts = SolveOptions { verify: true };
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
        let mut s = Simplex::new(&p);
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
        let opts = SolveOptions::default();
        for seed in 0..8 {
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

    /// `p` without its pivot path: a copy with an edit that changes
    /// nothing else.
    fn without_path(p: &Problem) -> Problem {
        let mut q = p.clone();
        let v = q.var(0);
        q.set_objective(v, q.objective_coeff(v));
        assert!(q.path.get().is_none());
        q
    }

    /// `got` and `want` agree bit for bit in values, objective and duals,
    /// and in every work counter but `replayed`.
    fn assert_same_solve(got: &Solution, want: &Solution) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.values()), bits(want.values()));
        assert_eq!(got.objective().to_bits(), want.objective().to_bits());
        assert_eq!(bits(got.duals().unwrap()), bits(want.duals().unwrap()));
        let unreplayed = |s: &SolveStats| SolveStats { replayed: 0, ..*s };
        assert_eq!(unreplayed(got.stats()), unreplayed(want.stats()));
    }

    #[test]
    fn cold_resolves_after_rhs_edits_replay_and_match_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let (mut replayed, mut pivots) = (0, 0);
        for round in 0..6 {
            let k = 40 + 10 * round;
            let mut p = seeded_blspm(&mut rng, k, 6, 4);
            // Rows `k..` are the capacity rows; tighten them, loosening
            // one in five, as a limiter's rounds do.
            for edit in 0..5 {
                if edit > 0 {
                    let rhs = p.row_rhs();
                    for (i, &b) in rhs.iter().enumerate().skip(k) {
                        let f = match rng.gen_range(0..5) {
                            0 => rng.gen_range(1.0..1.3),
                            _ => rng.gen_range(0.6..1.0),
                        };
                        p.set_rhs(RowId(i as u32), b * f);
                    }
                }
                let want = without_path(&p).solve().unwrap();
                let got = p.solve().unwrap();
                assert_same_solve(&got, &want);
                assert_eq!(want.stats().replayed, 0);
                assert_eq!(got.stats().phase1_iterations, 0);
                if edit == 0 {
                    assert_eq!(got.stats().replayed, 0, "nothing recorded yet");
                }
                assert!(got.stats().replayed <= got.stats().iterations);
                replayed += got.stats().replayed;
                pivots += got.stats().iterations;
            }
        }
        assert!(
            replayed > 0 && replayed < pivots,
            "{replayed} of {pivots} pivots replayed"
        );
    }

    #[test]
    fn edits_other_than_rhs_drop_the_path() {
        type Edit = fn(&mut Problem);
        let edits: [(&str, Edit); 4] = [
            ("set_bounds", |p| {
                let v = p.var(0);
                p.set_bounds(v, 0.0, 0.5);
            }),
            ("set_objective", |p| {
                let v = p.var(0);
                p.set_objective(v, p.objective_coeff(v) + 1.0);
            }),
            ("add_var", |p| {
                p.add_var(1.0, 0.0, 1.0);
            }),
            ("add_constraint", |p| {
                let v = p.var(0);
                p.add_constraint([(v, 1.0)], Relation::Le, 0.5);
            }),
        ];
        for (name, edit) in edits {
            let mut p = seeded_blspm(&mut ChaCha8Rng::seed_from_u64(41), 40, 6, 4);
            p.solve().unwrap();
            assert!(p.path.get().is_some(), "{name}");
            edit(&mut p);
            assert!(p.path.get().is_none(), "{name}");
            let s = p.solve().unwrap();
            assert!(s.stats().iterations > 0, "{name}");
            assert_eq!(s.stats().replayed, 0, "{name}");
        }
    }

    #[test]
    fn crash_and_phase1_solves_neither_replay_nor_record() {
        // The crash replaces phase 1 on one copy; the other runs phase 1.
        for (cap, phase1) in [(f64::INFINITY, false), (1e3, true)] {
            let p = rlspm_shaped(cap);
            for _ in 0..2 {
                let s = p.solve().unwrap();
                assert_eq!(s.stats().phase1_iterations > 0, phase1);
                assert_eq!(s.stats().replayed, 0);
            }
            assert!(p.path.get().is_none());
        }
        // A slack-start path survives a solve that must take phase 1.
        let mut p = seeded_blspm(&mut ChaCha8Rng::seed_from_u64(42), 40, 6, 4);
        let first = p.solve().unwrap();
        let kept = p.path.get().unwrap();
        let b = p.row_rhs()[0];
        p.set_rhs(RowId(0), -1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
        assert!(Arc::ptr_eq(&kept, &p.path.get().unwrap()));
        p.set_rhs(RowId(0), b);
        let again = p.solve().unwrap();
        assert_eq!(again.stats().replayed, first.stats().iterations);
        assert_same_solve(&again, &first);
    }

    #[test]
    fn a_clone_carries_the_path() {
        let p = seeded_blspm(&mut ChaCha8Rng::seed_from_u64(43), 40, 6, 4);
        let first = p.solve().unwrap();
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.path.get().unwrap(), &q.path.get().unwrap()));
        // Unchanged, the clone replays every pivot of the first solve.
        let again = q.solve().unwrap();
        assert!(first.stats().iterations > 0);
        assert_eq!(again.stats().replayed, first.stats().iterations);
        assert_same_solve(&again, &first);
    }

    #[test]
    fn a_step_priced_under_the_other_rule_is_not_replayed() {
        let p = seeded_blspm(&mut ChaCha8Rng::seed_from_u64(44), 40, 6, 4);
        let first = p.solve().unwrap();
        let mut flipped = PivotPath::clone(&p.path.get().unwrap());
        for step in &mut flipped {
            step.bland = !step.bland;
        }
        p.path.set(Arc::new(flipped));
        let again = p.solve().unwrap();
        assert_eq!(again.stats().replayed, 0);
        assert_same_solve(&again, &first);
    }

    /// Tightens three random bounds and scales three random right-hand
    /// sides by 0.6–1.1, the edits between warm re-solves.
    fn tighten(rng: &mut ChaCha8Rng, p: &mut Problem) {
        let (n, m) = (p.num_vars(), p.num_constraints());
        for _ in 0..3 {
            let v = p.var(rng.gen_range(0..n));
            let (lo, up) = p.bounds(v);
            if up.is_finite() {
                p.set_bounds(v, lo, lo + (up - lo) * rng.gen_range(0.5..1.0));
            }
            let i = rng.gen_range(0..m);
            p.set_rhs(RowId(i as u32), p.row_rhs()[i] * rng.gen_range(0.6..1.1));
        }
    }

    /// Checks the pivot row of every row of `s`'s basis, for both
    /// directions of the leaving variable, against the dense row and the
    /// ratio test over every column ([`Simplex::check_dual_row`]), with
    /// the reduced costs computed from the duals as every dual iteration
    /// but a solve's first computes them. Returns how many of these ratio
    /// tests found an entering column.
    fn check_every_dual_row(s: &mut Simplex) -> usize {
        s.compute_duals();
        let mut entered = 0;
        for row in 0..s.m() {
            s.pivot_row(row);
            for need_up in [false, true] {
                let entering = s.dual_ratio_test(
                    s.alpha.nz.iter().map(|&j| j as usize),
                    &s.alpha.val,
                    |j| s.cost[j] - s.a.dot_col(j, &s.y),
                    need_up,
                );
                s.check_dual_row(row, need_up, entering);
                entered += usize::from(entering.is_some());
            }
        }
        entered
    }

    #[test]
    fn the_pivot_row_on_its_support_matches_the_dense_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let opts = SolveOptions::default();
        let (mut dual_pivots, mut with_etas, mut entered) = (0, 0, 0);
        for round in 0..6 {
            let problems = [
                seeded_rlspm(&mut rng, 20 + 4 * round, 5, 4),
                seeded_blspm(&mut rng, 30 + 4 * round, 5, 4),
                seeded_sparse(&mut rng, 16 + round, 12 + round),
            ];
            for mut p in problems {
                let Ok((_, mut basis)) = p.solve_with_basis(&opts, None) else {
                    continue;
                };
                for _ in 0..5 {
                    tighten(&mut rng, &mut p);
                    let mut s = Simplex::new(&p);
                    let Ok(sol) = s.run_from_basis(&basis) else {
                        break;
                    };
                    dual_pivots += sol.stats().dual_iterations;
                    with_etas += usize::from(!s.etas.is_empty());
                    entered += check_every_dual_row(&mut s);
                    basis = s.into_basis();
                }
            }
        }
        assert!(
            dual_pivots > 80 && with_etas > 30 && entered > 3000,
            "{dual_pivots} dual pivots, {with_etas} solves ending with etas, \
             {entered} ratio tests entering"
        );
    }

    /// The address of `p`'s kept `d` buffer, if it keeps a workspace.
    fn kept_buffer(p: &Problem) -> Option<*const f64> {
        let work = p.workspace.take()?;
        let at = work.d.as_ptr();
        p.workspace.put(work);
        Some(at)
    }

    #[test]
    fn a_reused_workspace_gives_the_bits_of_a_fresh_one() {
        type Edit = fn(&mut Problem, &mut ChaCha8Rng);
        // Rows `..40` are the per-request rows, the rest capacity rows.
        let edits: [(&str, Edit); 9] = [
            ("cold", |_, _| {}),
            ("rhs", |p, rng| tighten(rng, p)),
            ("bounds", |p, rng| {
                for _ in 0..4 {
                    let v = p.var(rng.gen_range(0..p.num_vars()));
                    p.set_bounds(v, 0.0, rng.gen_range(0.0..0.5));
                }
            }),
            ("flipped objective", |p, _| {
                // The optimal basis is no longer dual-feasible: the warm
                // attempt fails and the solve falls back cold.
                for j in 0..p.num_vars() {
                    let v = p.var(j);
                    p.set_objective(v, -p.objective_coeff(v));
                }
            }),
            ("restored objective", |p, _| {
                for j in 0..p.num_vars() {
                    let v = p.var(j);
                    p.set_objective(v, -p.objective_coeff(v));
                }
            }),
            ("infeasible", |p, _| p.set_rhs(RowId(0), -1.0)),
            ("feasible again", |p, _| p.set_rhs(RowId(0), 1.0)),
            ("another row", |p, _| {
                let terms: Vec<_> = (0..6).map(|j| (p.var(j), 1.0)).collect();
                p.add_constraint(terms, Relation::Le, 0.5);
            }),
            ("another column", |p, _| {
                let x = p.add_var(4.0, 0.0, 1.0);
                p.add_constraint([(x, 1.0), (p.var(0), 1.0)], Relation::Le, 1.0);
            }),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let opts = SolveOptions::default();
        let mut p = seeded_blspm(&mut rng, 40, 6, 4);
        let mut basis: Option<Basis> = None;
        let (mut warm, mut fell_back, mut reused) = (0, 0, 0);
        for (name, edit) in edits {
            edit(&mut p, &mut rng);
            let before = kept_buffer(&p);
            // A clone starts with an empty workspace.
            let fresh = p.clone();
            assert!(kept_buffer(&fresh).is_none());
            let got = p.solve_with_basis(&opts, basis.as_ref());
            let want = fresh.solve_with_basis(&opts, basis.as_ref());
            match (got, want) {
                (Ok((got, next)), Ok((want, _))) => {
                    assert_same_solve(&got, &want);
                    warm += usize::from(got.stats().warm_started);
                    fell_back += usize::from(basis.is_some() && !got.stats().warm_started);
                    basis = Some(next);
                }
                (got, want) => assert_eq!(got.map(|_| ()), want.map(|_| ()), "{name}"),
            }
            reused += usize::from(before.is_some() && before == kept_buffer(&p));
        }
        assert!(
            warm >= 3 && fell_back >= 3 && reused >= 6,
            "{warm} warm, {fell_back} fell back cold, {reused} reused buffers"
        );
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
        assert_eq!(cs.iterations, cold.stats().iterations);
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
        let mut every_pivot = Simplex::new(&p);
        every_pivot.refresh_every = 1;
        let s_refresh = every_pivot.run().unwrap();
        assert_close(s_default.objective(), s_refresh.objective());
    }
}
