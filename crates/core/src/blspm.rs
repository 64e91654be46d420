//! BL-SPM (bandwidth-limited SPM) and the Tree-based Approximation
//! Algorithm (TAA, §IV of the paper).
//!
//! Given fixed per-edge capacities, BL-SPM maximizes service revenue by
//! accepting a subset of requests and routing each accepted one on a
//! single path without violating any `(edge, slot)` capacity. TAA:
//!
//! 1. solves the LP relaxation (`x_{i,j} ∈ [0,1]`, `Σ_j x_{i,j} ≤ 1`);
//! 2. scales the fractional path probabilities by `μ` chosen from the
//!    Chernoff–Hoeffding bound (inequality (6)) so a random rounding
//!    would violate each constraint with probability `< 1/(T(N+1))`;
//! 3. derandomizes with the method of conditional probabilities: walks a
//!    decision tree with `L_i + 1` branches per request (the extra branch
//!    declines it), at each level fixing the choice that minimizes a
//!    pessimistic estimator `u_root` of the failure probability.
//!
//! On top of the estimator this implementation enforces capacity
//! feasibility *exactly*: an option that would overload any cell is never
//! taken, so the returned schedule always satisfies BL-SPM's constraints
//! (the estimator then only steers revenue).

use metis_lp::{
    Basis, Problem, Relation, RowId, Sense, SolveError, SolveOptions, SolveStats, VarId,
};
use metis_telemetry::{names, Telemetry};
use metis_workload::RequestId;

use crate::chernoff::{chernoff_delta, select_mu};
use crate::instance::SpmInstance;
use crate::parallel;
use crate::schedule::{Evaluation, Schedule};

/// Fan the per-request decision-tree candidate evaluation across workers
/// only when the request touches at least this many (cell, S) terms; below
/// that, thread handoff costs more than the arithmetic it distributes.
const PARALLEL_EVAL_MIN_CELLS: usize = 64;

/// Fractional optimum of the relaxed BL-SPM.
#[derive(Clone, Debug, PartialEq)]
pub struct BlspmRelaxation {
    /// `x̂_{i,j}` per request and candidate path.
    pub x: Vec<Vec<f64>>,
    /// Fractional revenue `Σ v_i Σ_j x̂_{i,j}` — an upper bound on the
    /// integral optimum.
    pub revenue: f64,
    /// Work counters from the LP solve that produced this relaxation.
    pub stats: SolveStats,
}

/// Result of one TAA run.
#[derive(Clone, Debug)]
pub struct TaaResult {
    /// Feasible schedule (capacities respected everywhere).
    pub schedule: Schedule,
    /// Economic evaluation of the schedule.
    pub evaluation: Evaluation,
    /// The LP relaxation behind the derandomization.
    pub relaxation: BlspmRelaxation,
    /// The scaling factor `μ` chosen from inequality (6); `None` when the
    /// network has no positive capacity, or when capacity is so small
    /// that no `μ` satisfies the inequality (the round then declines
    /// everything rather than round with a guarantee it does not have).
    pub mu: Option<f64>,
}

/// The structure of TAA's derandomized walk, which depends only on the
/// instance: built once with the program, in flat arrays, and read by
/// every round's walk. A round adds only the capacities and `S = μ·x̂`.
#[derive(Clone, Debug, Default)]
struct WalkPlan {
    /// Edge of each dense `(edge, slot)` cell. Cells are numbered in the
    /// order the requests' candidate paths first reach them, which is
    /// the order the estimator's `Σ C_k` is summed in.
    cell_edge: Vec<u32>,
    /// Request `i`'s expectation cells, the union of its paths' cells in
    /// ascending order, are `expect_cells[req_expect[i]..req_expect[i + 1]]`.
    req_expect: Vec<u32>,
    expect_cells: Vec<u32>,
    /// `u64` words of path bits per expectation cell.
    mask_words: usize,
    /// Bit `j` of expectation cell `e`'s mask, in word
    /// `e · mask_words + j / 64`, is set when the request's path `j`
    /// crosses the cell.
    path_mask: Vec<u64>,
    /// The paths whose `μ·x̂` terms sum to expectation cell `e`'s `S`, in
    /// summation order: `term_paths[term_start[e]..term_start[e + 1]]`.
    term_start: Vec<u32>,
    term_paths: Vec<u32>,
    /// Request `i`'s path `j` is path `req_paths[i] + j` of the instance,
    /// and path `p`'s dense cells, in the order of its request's
    /// expectation cells, are `path_cells[path_start[p]..path_start[p + 1]]`.
    req_paths: Vec<u32>,
    path_start: Vec<u32>,
    path_cells: Vec<u32>,
}

impl WalkPlan {
    fn new(instance: &SpmInstance) -> Self {
        let slots = instance.num_slots();
        let max_paths = instance.iter().map(|(_, paths)| paths.len()).max();
        let mut plan = WalkPlan {
            mask_words: max_paths.unwrap_or(0).div_ceil(64),
            req_expect: vec![0],
            path_start: vec![0],
            ..WalkPlan::default()
        };
        let mut dense = vec![u32::MAX; instance.topology().num_edges() * slots];
        // `(cell, path)` incidences of one request. The path index rides
        // in the `f64` slot because an unstable sort's order of equal
        // keys may depend on the element type: sorting `(u32, f64)` pairs
        // keeps each cell's `μ·x̂` terms in the order the pinned results
        // (`tests/golden.rs`) sum them in.
        let mut incidences: Vec<(u32, f64)> = Vec::new();
        for (r, paths) in instance.iter() {
            incidences.clear();
            for (j, path) in paths.iter().enumerate() {
                for &e in path.edges() {
                    for t in r.start..=r.end {
                        // INDEX: e < num_edges and t ≤ r.end < slots by instance validation.
                        let cell = &mut dense[e.index() * slots + t];
                        if *cell == u32::MAX {
                            *cell = plan.cell_edge.len() as u32;
                            plan.cell_edge.push(e.index() as u32);
                        }
                        incidences.push((*cell, f64::from_bits(j as u64)));
                    }
                }
            }
            incidences.sort_unstable_by_key(|&(c, _)| c);
            let first = plan.expect_cells.len();
            for &(cell, j) in &incidences {
                if plan.expect_cells.len() == first || plan.expect_cells.last() != Some(&cell) {
                    plan.expect_cells.push(cell);
                    plan.term_start.push(plan.term_paths.len() as u32);
                    plan.path_mask
                        .resize(plan.path_mask.len() + plan.mask_words, 0);
                }
                let j = j.to_bits() as usize;
                let e = plan.expect_cells.len() - 1;
                // INDEX: cell e's mask_words words were just appended, and j / 64 < mask_words.
                plan.path_mask[e * plan.mask_words + j / 64] |= 1 << (j % 64);
                plan.term_paths.push(j as u32);
            }
            plan.req_expect.push(plan.expect_cells.len() as u32);
            plan.req_paths.push(plan.path_start.len() as u32 - 1);
            let expect = first..plan.expect_cells.len();
            for j in 0..paths.len() {
                for e in expect.clone() {
                    if plan.on_path(e, j) {
                        plan.path_cells.push(plan.expect_cells[e]);
                    }
                }
                plan.path_start.push(plan.path_cells.len() as u32);
            }
        }
        plan.term_start.push(plan.term_paths.len() as u32);
        plan
    }

    /// Request `i`'s expectation cells, as indices into `expect_cells`.
    fn expect(&self, i: usize) -> std::ops::Range<usize> {
        // INDEX: req_expect holds one boundary per request plus the final one.
        self.req_expect[i] as usize..self.req_expect[i + 1] as usize
    }

    /// Whether the request's path `j` crosses expectation cell `e`.
    fn on_path(&self, e: usize, j: usize) -> bool {
        // INDEX: mask_words words per expectation cell, and j / 64 < mask_words.
        self.path_mask[e * self.mask_words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The dense cells request `i`'s path `j` crosses.
    fn path_cells(&self, i: usize, j: usize) -> &[u32] {
        // INDEX: req_paths has one entry per request, and path_start one
        // boundary per path plus the final one.
        let p = self.req_paths[i] as usize + j;
        &self.path_cells[self.path_start[p] as usize..self.path_start[p + 1] as usize]
    }

    /// The paths whose `μ·x̂` terms sum to expectation cell `e`'s `S`.
    fn terms(&self, e: usize) -> &[u32] {
        // INDEX: term_start holds one boundary per expectation cell plus the final one.
        &self.term_paths[self.term_start[e] as usize..self.term_start[e + 1] as usize]
    }
}

/// Runs TAA: relax → scale by `μ` → derandomized decision-tree walk.
/// The relaxation is one cold solve of a fresh [`BlspmSolver`] under the
/// default [`SolveOptions`].
///
/// The returned schedule respects `capacities` at every `(edge, slot)`.
///
/// # Errors
///
/// Propagates LP failures from the relaxation stage.
///
/// # Panics
///
/// Panics if `capacities.len()` differs from the edge count.
///
/// # Examples
///
/// ```
/// use metis_core::{taa, SpmInstance};
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(30, 5));
/// let caps = vec![10.0; topo.num_edges()]; // 100 Gbps per link
/// let instance = SpmInstance::new(topo, requests, 12, 3);
/// let result = taa(&instance, &caps)?;
/// assert!(result.schedule.check_capacities(&instance, &caps).is_ok());
/// assert!(result.evaluation.revenue <= result.relaxation.revenue + 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
pub fn taa(instance: &SpmInstance, capacities: &[f64]) -> Result<TaaResult, SolveError> {
    taa_instrumented(
        instance,
        capacities,
        &SolveOptions::default(),
        1,
        &mut BlspmSolver::new(instance),
        &Telemetry::disabled(),
    )
}

/// Runs TAA like [`taa`] with the walk's independent work fanned across
/// `threads` workers, solving the relaxation with `solver` under
/// `lp_options` and recording telemetry into `tele`. The solver's kept
/// basis, if any, warm-starts the relaxation (the Metis alternation
/// rounds).
///
/// The walk itself is inherently sequential (each level conditions on the
/// previous choice), but the candidate branches at one level are
/// independent, so results are bit-identical for any thread count. The
/// walk's per-request cell structure comes with `solver`, built once per
/// instance, so only the branch scoring fans out.
///
/// The relaxation solve runs under the `taa.relax` span, the derandomized
/// walk under `taa.walk`, LP work counters land in the `lp.*` metrics,
/// and the chosen `μ` and initial estimator value `u_root` are pushed to
/// the `taa.mu` / `taa.u_root` series. Recording is write-only — passing
/// [`Telemetry::disabled`] (what [`taa`] does) yields bit-identical
/// results.
///
/// # Errors
///
/// Propagates LP failures from the relaxation stage.
///
/// # Panics
///
/// Panics if `capacities.len()` differs from the edge count or `solver`
/// was built from a different instance.
pub(crate) fn taa_instrumented(
    instance: &SpmInstance,
    capacities: &[f64],
    lp_options: &SolveOptions,
    threads: usize,
    solver: &mut BlspmSolver,
    tele: &Telemetry,
) -> Result<TaaResult, SolveError> {
    let relaxation = {
        let mut relax = tele.span(names::SPAN_TAA_RELAX);
        let relaxation = solver.solve(capacities, lp_options)?;
        relax.arg(names::ARG_LP_ITERATIONS, relaxation.stats.iterations as f64);
        relaxation
    };
    crate::obs::record_lp_stats(tele, &relaxation.stats);
    Ok(taa_from_relaxation(
        instance,
        capacities,
        threads,
        relaxation,
        &solver.walk,
        tele,
    ))
}

/// Scaling + derandomized walk, given an already-solved relaxation and
/// the instance's walk plan.
fn taa_from_relaxation(
    instance: &SpmInstance,
    capacities: &[f64],
    threads: usize,
    relaxation: BlspmRelaxation,
    plan: &WalkPlan,
    tele: &Telemetry,
) -> TaaResult {
    let _walk = tele.span(names::SPAN_TAA_WALK);
    let k = instance.num_requests();
    let topo = instance.topology();

    // Normalize rates and values into [0, 1] (Algorithm 2, line 1).
    let r_scale = instance
        .requests()
        .iter()
        .map(|r| r.rate)
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let v_scale = instance
        .requests()
        .iter()
        .map(|r| r.value)
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    // μ per inequality (6): c is the smallest positive capacity.
    let min_cap = capacities
        .iter()
        .copied()
        .filter(|&c| c > 0.0)
        .fold(f64::INFINITY, f64::min);
    let mu = if min_cap.is_finite() {
        select_mu(min_cap / r_scale, instance.num_slots(), topo.num_edges())
    } else {
        None
    };
    let Some(mu) = mu else {
        // No capacity anywhere, or so little that inequality (6) admits
        // no μ: decline everything rather than round without a guarantee.
        let schedule = Schedule::decline_all(k);
        let evaluation = schedule.evaluate(instance);
        return TaaResult {
            schedule,
            evaluation,
            relaxation,
            mu: None,
        };
    };
    tele.push(names::TAA_MU, mu);

    let cell_caps: Vec<f64> = plan
        .cell_edge
        .iter()
        .map(|&e| capacities[e as usize])
        .collect();
    let t_k = (1.0 + (1.0 - mu) / mu).ln(); // = ln(1/μ)

    // Revenue-tail parameters: I_S = μ·Î (normalized), γ = D(I_S, 1/(N+1)).
    let i_s = mu * relaxation.revenue / v_scale;
    let gamma = chernoff_delta(i_s, 1.0 / (topo.num_edges() as f64 + 1.0)).min(1.0);
    let i_b = i_s * (1.0 - gamma);
    let t_0 = (1.0 + gamma).ln();

    // Estimator state.
    // Revenue product term R = e^{t0·I_B} Π_i f_rev_i.
    let a_exp: Vec<f64> = instance
        .requests()
        .iter()
        .map(|r| (t_k * r.rate / r_scale).exp())
        .collect();
    let rev_assign: Vec<f64> = instance
        .requests()
        .iter()
        .map(|r| (-t_0 * r.value / v_scale).exp())
        .collect();
    let q: Vec<f64> = relaxation
        .x
        .iter()
        .map(|xs| mu * xs.iter().sum::<f64>())
        .collect();
    let mut f_rev: Vec<f64> = (0..k).map(|i| 1.0 + q[i] * (rev_assign[i] - 1.0)).collect();
    let mut r_term = (t_0 * i_b).exp();
    for &f in &f_rev {
        r_term *= f;
    }

    // Constraint terms C_k = e^{−t_k·c̃_k} Π_i f_cons_{i,k}; the cells
    // of one edge share its capacity, so each edge's exponential is
    // computed once.
    let edge_term: Vec<f64> = capacities
        .iter()
        .map(|&c| (-t_k * c / r_scale).exp())
        .collect();
    let mut c_term: Vec<f64> = plan
        .cell_edge
        .iter()
        .map(|&e| edge_term[e as usize])
        .collect();
    // `f_cons[e]`: the current factor of expectation cell `e`'s request
    // in that cell, initially 1 + S·(a_i − 1) with S = μ Σ_{j crossing} x̂_ij.
    let mut f_cons: Vec<f64> = Vec::with_capacity(plan.expect_cells.len());
    for (i, (x, &a)) in relaxation.x.iter().zip(&a_exp).enumerate() {
        for e in plan.expect(i) {
            let s = plan
                .terms(e)
                .iter()
                .map(|&j| mu * x[j as usize])
                .reduce(|s, term| s + term)
                .unwrap_or(0.0);
            let f = 1.0 + s * (a - 1.0);
            c_term[plan.expect_cells[e] as usize] *= f;
            f_cons.push(f);
        }
    }
    let mut total_c: f64 = c_term.iter().sum();
    // Initial pessimistic-estimator value at the root of the decision
    // tree: the bound the walk greedily drives down level by level.
    tele.push(names::TAA_U_ROOT, r_term + total_c);

    // Residual feasibility tracking.
    let mut cell_load = vec![0.0_f64; cell_caps.len()];
    let mut schedule = Schedule::decline_all(k);
    let fits = |cell_load: &[f64], i: usize, j: usize, rate: f64| {
        plan.path_cells(i, j)
            .iter()
            .all(|&c| cell_load[c as usize] + rate <= cell_caps[c as usize] + 1e-9)
    };

    // Walk the decision tree level by level (Algorithm 2, lines 4–12).
    // At the current level `fit[j]` says whether path `j` fits,
    // `scores[j]` is option `j`'s u', and `shift_on[k]` and `shift_off[k]`
    // are the changes C·(g/f − 1) of the k-th expectation cell with
    // g = a_i and g = 1.
    let mut fit: Vec<bool> = Vec::new();
    let mut scores: Vec<Option<f64>> = Vec::new();
    let mut shift_on: Vec<f64> = Vec::new();
    let mut shift_off: Vec<f64> = Vec::new();
    for i in 0..k {
        let req = instance.request(RequestId(i as u32));
        let num_paths = relaxation.x[i].len();
        let cells = plan.expect(i);

        // Hard feasibility: option `j < num_paths` routes on path j only
        // when every cell on the path fits. When no path fits, declining
        // is the only option, and no score is needed to take it.
        fit.clear();
        fit.extend((0..num_paths).map(|j| fits(&cell_load, i, j, req.rate)));
        let chosen = if fit.contains(&true) {
            // Cells in the expectation set change factor: to a_i on the
            // chosen path's cells, to 1 elsewhere. Every path cell is in
            // the expectation set, which is the paths' union.
            shift_on.clear();
            shift_off.clear();
            for e in cells.clone() {
                let c = c_term[plan.expect_cells[e] as usize];
                shift_on.push(c * (a_exp[i] / f_cons[e] - 1.0));
                shift_off.push(c * (1.0 / f_cons[e] - 1.0));
            }

            // Evaluate u' = R·(g_rev/f_rev) + total_C + Σ_{k affected}
            // C_k·(g/f − 1) for each candidate branch: `None` for a path
            // that does not fit, and option `num_paths` declines (g_rev = 1,
            // every g = 1). Every evaluation reads only the estimator
            // state frozen at this level, so the branches can be scored on
            // worker threads with bit-identical results.
            let eval_option = |opt: usize| -> Option<f64> {
                let route = opt < num_paths;
                if route && !fit[opt] {
                    return None;
                }
                let g_rev = if route { rev_assign[i] } else { 1.0 };
                let mut u = r_term * (g_rev / f_rev[i]) + total_c;
                for (e, (&on, &off)) in cells.clone().zip(shift_on.iter().zip(&shift_off)) {
                    u += if route && plan.on_path(e, opt) {
                        on
                    } else {
                        off
                    };
                }
                Some(u)
            };
            if threads > 1 && cells.len() >= PARALLEL_EVAL_MIN_CELLS {
                scores = parallel::run_indexed(num_paths + 1, threads, eval_option);
            } else {
                scores.clear();
                scores.extend((0..=num_paths).map(eval_option));
            }

            // Strict minimum wins, paths scanned first, so ties favor
            // earlier (cheaper) paths and routing beats an equal-score
            // decline.
            let mut best_u = f64::INFINITY;
            let mut chosen: Option<usize> = None;
            for (j, score) in scores[..num_paths].iter().enumerate() {
                if let Some(u) = *score {
                    if u < best_u {
                        best_u = u;
                        chosen = Some(j);
                    }
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "the loop above unconditionally scores the decline option"
            )]
            let decline_u = scores[num_paths].expect("decline always evaluates");
            if decline_u < best_u {
                chosen = None;
            }
            chosen
        } else {
            None
        };

        // Apply the chosen branch.
        match chosen {
            Some(j) => {
                schedule.set(RequestId(i as u32), Some(j));
                let ratio = rev_assign[i] / f_rev[i];
                r_term *= ratio;
                f_rev[i] = rev_assign[i];
                for e in cells {
                    let g = if plan.on_path(e, j) { a_exp[i] } else { 1.0 };
                    let cell = plan.expect_cells[e] as usize;
                    let old = c_term[cell];
                    let new = old * g / f_cons[e];
                    c_term[cell] = new;
                    total_c += new - old;
                    f_cons[e] = g;
                }
                for &c in plan.path_cells(i, j) {
                    cell_load[c as usize] += req.rate;
                }
            }
            None => {
                let ratio = 1.0 / f_rev[i];
                r_term *= ratio;
                f_rev[i] = 1.0;
                for e in cells {
                    let cell = plan.expect_cells[e] as usize;
                    let old = c_term[cell];
                    let new = old / f_cons[e];
                    c_term[cell] = new;
                    total_c += new - old;
                    f_cons[e] = 1.0;
                }
            }
        }
    }

    // Residual fill: the estimator walk can strand capacity by declining
    // low-bid requests even when they still fit. Admitting any such
    // request on a fitting path is a strict revenue improvement that
    // keeps feasibility, so sweep once more in bid order (highest first).
    let mut by_value: Vec<usize> = (0..k)
        .filter(|&i| !schedule.is_accepted(RequestId(i as u32)))
        .collect();
    by_value.sort_by(|&a, &b| {
        instance.requests()[b]
            .value
            .total_cmp(&instance.requests()[a].value)
    });
    for i in by_value {
        let rate = instance.request(RequestId(i as u32)).rate;
        let fit = (0..relaxation.x[i].len()).find(|&j| fits(&cell_load, i, j, rate));
        if let Some(j) = fit {
            for &c in plan.path_cells(i, j) {
                cell_load[c as usize] += rate;
            }
            schedule.set(RequestId(i as u32), Some(j));
        }
    }

    debug_assert!(schedule.check_capacities(instance, capacities).is_ok());
    let evaluation = schedule.evaluate(instance);
    TaaResult {
        schedule,
        evaluation,
        relaxation,
        mu: Some(mu),
    }
}

/// The relaxed BL-SPM program of one instance, built once and re-solved
/// for every capacity vector.
///
/// The program's *structure* — variables, rows, objective, bounds —
/// depends only on the instance; the capacity vector appears purely as
/// the right-hand side of the load rows. This solver builds the program
/// once, records the [`RowId`] of every load row, and on each
/// [`BlspmSolver::solve`] call overwrites the right-hand sides with
/// [`Problem::set_rhs`] and restarts the simplex from the previous
/// optimum's [`Basis`], unless [`BlspmSolver::reset_basis`] dropped it
/// first. Between Metis rounds the capacities only tighten a little, so
/// the old basis is usually a few dual pivots from the new optimum. Warm
/// and cold solves reach the same optimum **value**, but may stop at
/// different tied vertices.
///
/// Next to the program the solver builds TAA's walk plan: the part of
/// the derandomized walk that depends only on the instance (the dense
/// `(edge, slot)` cell numbering, each request's cells and which of its
/// paths cross each one). Every TAA round run with this solver reads
/// it, so a round computes only what its capacities and relaxation
/// change.
///
/// # Examples
///
/// ```
/// use metis_core::{BlspmSolver, SpmInstance};
/// use metis_lp::SolveOptions;
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(10, 5));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
///
/// let mut solver = BlspmSolver::new(&instance);
/// let opts = SolveOptions::default();
/// let caps = vec![4.0; instance.topology().num_edges()];
/// let cold = solver.solve(&caps, &opts)?;
/// solver.solve(&vec![2.0; caps.len()], &opts)?;
/// let warm = solver.solve(&caps, &opts)?;
/// assert!(warm.stats.warm_started && !cold.stats.warm_started);
/// assert!((warm.revenue - cold.revenue).abs() < 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
#[derive(Clone)]
pub struct BlspmSolver {
    problem: Problem,
    xvars: Vec<Vec<VarId>>,
    /// `(edge index, load row)` for every (edge, slot) cell with a row.
    cell_rows: Vec<(usize, RowId)>,
    num_edges: usize,
    /// TAA's walk structure for this instance.
    walk: WalkPlan,
    /// The last solve's optimal basis; `None` before the first solve and
    /// after [`BlspmSolver::reset_basis`].
    basis: Option<Basis>,
}

impl BlspmSolver {
    /// Builds the fixed-structure program for `instance`, and TAA's walk
    /// plan next to it. Load rows start with zero capacity;
    /// [`BlspmSolver::solve`] sets the real ones.
    pub fn new(instance: &SpmInstance) -> Self {
        let mut p = Problem::new(Sense::Maximize);
        let mut xvars: Vec<Vec<VarId>> = Vec::with_capacity(instance.num_requests());
        for (r, paths) in instance.iter() {
            xvars.push(paths.iter().map(|_| p.add_var(r.value, 0.0, 1.0)).collect());
        }
        for vars in &xvars {
            p.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Le, 1.0);
        }
        let cell_rows = instance
            .load_rows(&xvars)
            .into_iter()
            .map(|(e, terms)| (e, p.add_constraint(terms, Relation::Le, 0.0)))
            .collect();

        BlspmSolver {
            problem: p,
            xvars,
            cell_rows,
            num_edges: instance.topology().num_edges(),
            walk: WalkPlan::new(instance),
            basis: None,
        }
    }

    /// Solves the relaxation for `capacities`, starting from the last
    /// solve's basis when one is kept. A failed warm start falls back to
    /// a cold solve inside [`Problem::solve_with_basis`].
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the cold path; the LP is always
    /// feasible (declining everything is a solution), so `Infeasible`
    /// indicates numerical trouble.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len()` differs from the edge count.
    pub fn solve(
        &mut self,
        capacities: &[f64],
        lp_options: &SolveOptions,
    ) -> Result<BlspmRelaxation, SolveError> {
        assert_eq!(capacities.len(), self.num_edges, "capacity vector length");
        for &(e, row) in &self.cell_rows {
            self.problem.set_rhs(row, capacities[e]);
        }
        let warm = self.basis.take();
        let (sol, basis) = self.problem.solve_with_basis(lp_options, warm.as_ref())?;
        self.basis = Some(basis);
        let x: Vec<Vec<f64>> = self
            .xvars
            .iter()
            .map(|vars| vars.iter().map(|&v| sol.value(v).clamp(0.0, 1.0)).collect())
            .collect();
        Ok(BlspmRelaxation {
            x,
            revenue: sol.objective(),
            stats: *sol.stats(),
        })
    }

    /// Drops the kept basis, so the next solve starts cold.
    pub fn reset_basis(&mut self) {
        self.basis = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64) -> SpmInstance {
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn relaxation_upper_bounds_any_schedule() {
        let inst = instance(25, 1);
        let caps = vec![10.0; inst.topology().num_edges()];
        let rel = BlspmSolver::new(&inst)
            .solve(&caps, &SolveOptions::default())
            .unwrap();
        assert!(rel.revenue > 0.0);
        assert!(rel.revenue <= inst.total_value() + 1e-6);
        for xs in &rel.x {
            let s: f64 = xs.iter().sum();
            assert!(s <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn generous_capacity_accepts_everything() {
        let inst = instance(20, 2);
        let caps = vec![1000.0; inst.topology().num_edges()];
        let res = taa(&inst, &caps).unwrap();
        assert_eq!(
            res.schedule.num_accepted(),
            20,
            "nothing should be declined"
        );
        assert!((res.evaluation.revenue - inst.total_value()).abs() < 1e-6);
    }

    #[test]
    fn schedule_always_feasible() {
        for seed in 0..4 {
            let inst = instance(60, seed);
            let caps = vec![2.0; inst.topology().num_edges()];
            let res = taa(&inst, &caps).unwrap();
            res.schedule
                .check_capacities(&inst, &caps)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn zero_capacity_declines_all() {
        let inst = instance(10, 3);
        let caps = vec![0.0; inst.topology().num_edges()];
        let res = taa(&inst, &caps).unwrap();
        assert_eq!(res.schedule.num_accepted(), 0);
        assert_eq!(res.mu, None);
        assert_eq!(res.evaluation.revenue, 0.0);
    }

    #[test]
    fn tiny_capacity_declines_all_without_mu() {
        // Capacity small enough that select_mu finds no valid scaling
        // factor (normalized c below ≈ 0.231 for T=12, N=38): TAA must
        // fall back to decline-all instead of rounding with the bogus
        // Some(1e-12) factor the old select_mu returned.
        let inst = instance(10, 3);
        let caps = vec![0.05; inst.topology().num_edges()];
        let res = taa(&inst, &caps).unwrap();
        assert_eq!(res.mu, None, "no μ satisfies inequality (6) at c ≈ 0.1");
        assert_eq!(res.schedule.num_accepted(), 0);
        assert_eq!(res.evaluation.revenue, 0.0);
        assert!(res.evaluation.profit >= 0.0);
    }

    #[test]
    fn revenue_bounded_by_relaxation() {
        let inst = instance(40, 4);
        let caps = vec![5.0; inst.topology().num_edges()];
        let res = taa(&inst, &caps).unwrap();
        assert!(res.evaluation.revenue <= res.relaxation.revenue + 1e-6);
        assert!(res.mu.unwrap() > 0.0 && res.mu.unwrap() < 1.0);
    }

    #[test]
    fn tight_capacity_declines_some() {
        let inst = instance(80, 5);
        let caps = vec![1.0; inst.topology().num_edges()];
        let res = taa(&inst, &caps).unwrap();
        assert!(res.schedule.num_accepted() < 80);
        assert!(res.schedule.num_accepted() > 0);
    }

    #[test]
    fn deterministic() {
        let inst = instance(30, 6);
        let caps = vec![3.0; inst.topology().num_edges()];
        let a = taa(&inst, &caps).unwrap();
        let b = taa(&inst, &caps).unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn parallel_walk_bit_identical_across_thread_counts() {
        let inst = instance(40, 8);
        let caps = vec![3.0; inst.topology().num_edges()];
        let serial = taa(&inst, &caps).unwrap();
        for threads in [2, 8] {
            let par = taa_instrumented(
                &inst,
                &caps,
                &SolveOptions::default(),
                threads,
                &mut BlspmSolver::new(&inst),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(par.schedule, serial.schedule, "threads = {threads}");
            assert_eq!(par.evaluation, serial.evaluation, "threads = {threads}");
        }
    }

    #[test]
    fn warm_solver_matches_cold_relaxation_revenue() {
        let inst = instance(30, 9);
        let opts = SolveOptions::default();
        let mut solver = BlspmSolver::new(&inst);
        // A tightening capacity sequence like the Metis limiter produces.
        for (k, cap) in [8.0, 5.0, 3.0, 2.0, 1.0].into_iter().enumerate() {
            let caps = vec![cap; inst.topology().num_edges()];
            let warm = solver.solve(&caps, &opts).unwrap();
            let cold = BlspmSolver::new(&inst).solve(&caps, &opts).unwrap();
            assert_eq!(
                warm.stats.warm_started,
                k > 0,
                "only the first solve is cold"
            );
            assert!(!cold.stats.warm_started);
            assert!(
                (warm.revenue - cold.revenue).abs() < 1e-6,
                "cap {cap}: warm {} vs cold {}",
                warm.revenue,
                cold.revenue
            );
            for xs in &warm.x {
                let s: f64 = xs.iter().sum();
                assert!(s <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn warm_solver_reset_forces_cold() {
        let inst = instance(30, 12);
        let opts = SolveOptions::default();
        let edges = inst.topology().num_edges();
        let mut solver = BlspmSolver::new(&inst);
        solver.solve(&vec![6.0; edges], &opts).unwrap();
        for cap in [4.0, 3.0, 2.0] {
            let warm = solver.solve(&vec![cap; edges], &opts).unwrap();
            assert!(warm.stats.warm_started);
        }
        let caps = vec![1.5; edges];
        solver.reset_basis();
        let reset = solver.solve(&caps, &opts).unwrap();
        let fresh = BlspmSolver::new(&inst).solve(&caps, &opts).unwrap();
        assert!(!reset.stats.warm_started);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x_bits = |x: &[Vec<f64>]| x.iter().map(|row| bits(row)).collect::<Vec<_>>();
        assert_eq!(x_bits(&reset.x), x_bits(&fresh.x));
        assert_eq!(reset.revenue.to_bits(), fresh.revenue.to_bits());
        // The reset solve replays the pivot path of the first (cold) one;
        // every other counter matches the fresh solver's.
        assert!(reset.stats.replayed > 0);
        assert_eq!(
            SolveStats {
                replayed: 0,
                ..reset.stats
            },
            fresh.stats
        );
    }

    #[test]
    fn cold_resolves_match_a_fresh_solver_bit_for_bit() {
        // Metis's cold alternation: one solver, its basis dropped before
        // every solve, over capacities the limiter keeps tightening. Each
        // cold solve replays what it shares with the previous one.
        let inst = instance(60, 13);
        let opts = SolveOptions::default();
        let edges = inst.topology().num_edges();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x_bits = |x: &[Vec<f64>]| x.iter().map(|row| bits(row)).collect::<Vec<_>>();
        let mut solver = BlspmSolver::new(&inst);
        let mut replayed = 0;
        for base in [6.0, 4.0, 3.0, 2.5, 2.0, 1.5] {
            let caps: Vec<f64> = (0..edges)
                .map(|e| base * (1.0 + (e % 4) as f64 * 0.25))
                .collect();
            solver.reset_basis();
            let got = solver.solve(&caps, &opts).unwrap();
            let want = BlspmSolver::new(&inst).solve(&caps, &opts).unwrap();
            assert_eq!(x_bits(&got.x), x_bits(&want.x), "base {base}");
            assert_eq!(got.revenue.to_bits(), want.revenue.to_bits(), "base {base}");
            assert_eq!(got.stats.iterations, want.stats.iterations, "base {base}");
            assert_eq!(want.stats.replayed, 0);
            replayed += got.stats.replayed;
        }
        assert!(replayed > 0, "no cold re-solve replayed a pivot");
    }

    #[test]
    fn warm_taa_stays_feasible_and_bounded() {
        let inst = instance(50, 10);
        let mut solver = BlspmSolver::new(&inst);
        for cap in [4.0, 2.0, 1.0] {
            let caps = vec![cap; inst.topology().num_edges()];
            let res = taa_instrumented(
                &inst,
                &caps,
                &SolveOptions::default(),
                1,
                &mut solver,
                &Telemetry::disabled(),
            )
            .unwrap();
            res.schedule
                .check_capacities(&inst, &caps)
                .unwrap_or_else(|v| panic!("cap {cap}: {v}"));
            assert!(res.evaluation.revenue <= res.relaxation.revenue + 1e-6);
        }
    }

    #[test]
    fn one_walk_plan_serves_every_round() {
        // The plan built with the solver must walk each capacity vector
        // exactly as a plan built for that vector alone would.
        let inst = instance(80, 11);
        let edges = inst.topology().num_edges();
        let opts = SolveOptions::default();
        let mut solver = BlspmSolver::new(&inst);
        let mut declined_some = false;
        for base in [4.0, 2.0, 1.5, 1.0, 0.75] {
            let caps: Vec<f64> = (0..edges)
                .map(|e| base * (1.0 + (e % 3) as f64 * 0.5))
                .collect();
            solver.reset_basis();
            let reused =
                taa_instrumented(&inst, &caps, &opts, 1, &mut solver, &Telemetry::disabled())
                    .unwrap();
            let fresh = taa(&inst, &caps).unwrap();
            assert_eq!(reused.schedule, fresh.schedule, "base {base}");
            assert_eq!(reused.mu.map(f64::to_bits), fresh.mu.map(f64::to_bits));
            let bits = |e: &Evaluation| [e.revenue, e.cost, e.profit].map(f64::to_bits);
            assert_eq!(bits(&reused.evaluation), bits(&fresh.evaluation));
            assert!(reused.mu.is_some(), "base {base}: the walk runs");
            declined_some |= reused.schedule.num_accepted() < 80;
        }
        assert!(declined_some, "some round must decline a request");
    }

    #[test]
    fn each_path_lists_the_cells_its_mask_marks() {
        let mut paths_seen = 0;
        for (k, seed) in [(80, 11), (150, 3), (1, 7)] {
            let inst = instance(k, seed);
            let plan = WalkPlan::new(&inst);
            for (i, (r, paths)) in inst.iter().enumerate() {
                for (j, path) in paths.iter().enumerate() {
                    let masked: Vec<u32> = plan
                        .expect(i)
                        .filter(|&e| plan.on_path(e, j))
                        .map(|e| plan.expect_cells[e])
                        .collect();
                    let listed = plan.path_cells(i, j);
                    assert_eq!(listed, masked, "request {i}, path {j}");
                    // One cell per (edge, active slot) of the path.
                    assert_eq!(listed.len(), path.edges().len() * r.duration());
                    for &c in listed {
                        let e = plan.cell_edge[c as usize] as usize;
                        assert!(path.edges().iter().any(|ed| ed.index() == e));
                    }
                    paths_seen += 1;
                }
            }
        }
        assert!(paths_seen > 600, "{paths_seen} paths");
    }

    #[test]
    fn more_capacity_never_hurts_much() {
        // Revenue should (weakly) increase as capacity grows. Greedy
        // derandomization is not strictly monotone, so allow 5% slack.
        let inst = instance(50, 7);
        let lo = taa(&inst, &vec![1.0; 38]).unwrap();
        let hi = taa(&inst, &vec![10.0; 38]).unwrap();
        assert!(hi.evaluation.revenue >= lo.evaluation.revenue * 0.95);
    }
}
