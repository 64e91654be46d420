//! Property tests for the simplex and branch-and-bound solvers.
//!
//! The generator builds LPs around a known feasible point `x0` (every
//! constraint's right-hand side is derived from `x0` plus slack), so
//! feasibility is guaranteed and `c·x0` is a certified bound on the
//! optimum. That turns "is the solver right?" into checkable inequalities
//! without needing an external reference solver.

use proptest::prelude::*;

use metis_lp::{certify, solve_ilp, IlpOptions, Problem, Relation, Sense, SolveError};

#[derive(Clone, Debug)]
struct LpCase {
    problem: Problem,
    /// A certified feasible point.
    x0: Vec<f64>,
}

fn arb_lp(integer: bool) -> impl Strategy<Value = LpCase> {
    let n_vars = 2usize..6;
    let n_rows = 1usize..6;
    (n_vars, n_rows, any::<u64>()).prop_map(move |(n, m, seed)| {
        // Simple deterministic pseudo-random stream from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // in [-1, 1)
        };
        let mut p = Problem::new(Sense::Minimize);
        let mut x0 = Vec::with_capacity(n);
        let mut vars = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = (next() * 3.0).round();
            let hi = lo + (next().abs() * 5.0).round() + 1.0;
            let obj = (next() * 4.0 * 2.0).round() / 2.0;
            let v = if integer {
                p.add_int_var(obj, lo, hi)
            } else {
                p.add_var(obj, lo, hi)
            };
            vars.push(v);
            // Feasible point at an integral spot inside the box.
            let mid = ((lo + hi) / 2.0).round().clamp(lo, hi);
            x0.push(mid);
        }
        for _ in 0..m {
            let coeffs: Vec<f64> = (0..n).map(|_| (next() * 3.0).round()).collect();
            let activity: f64 = coeffs.iter().zip(&x0).map(|(c, x)| c * x).sum();
            let slack = next().abs() * 4.0;
            // Alternate row senses; rhs always keeps x0 feasible.
            let which = (next() * 3.0).abs() as u32;
            match which {
                0 => p.add_constraint(
                    vars.iter().copied().zip(coeffs.iter().copied()),
                    Relation::Le,
                    activity + slack,
                ),
                1 => p.add_constraint(
                    vars.iter().copied().zip(coeffs.iter().copied()),
                    Relation::Ge,
                    activity - slack,
                ),
                _ => p.add_constraint(
                    vars.iter().copied().zip(coeffs.iter().copied()),
                    Relation::Eq,
                    activity,
                ),
            };
        }
        LpCase { problem: p, x0 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lp_solution_is_feasible_and_not_worse_than_x0(case in arb_lp(false)) {
        let sol = case.problem.solve().expect("x0 certifies feasibility");
        prop_assert!(
            case.problem.max_violation(sol.values()) < 1e-5,
            "solution violates constraints by {}",
            case.problem.max_violation(sol.values())
        );
        let obj_x0 = case.problem.eval_objective(&case.x0);
        prop_assert!(
            sol.objective() <= obj_x0 + 1e-6,
            "optimum {} beats certified point {}",
            sol.objective(),
            obj_x0
        );
    }

    #[test]
    fn lp_optimum_invariant_under_resolve(case in arb_lp(false)) {
        let a = case.problem.solve().unwrap();
        let b = case.problem.solve().unwrap();
        prop_assert!((a.objective() - b.objective()).abs() < 1e-9);
    }

    #[test]
    fn ilp_bracketed_by_lp_and_x0(case in arb_lp(true)) {
        let lp = case.problem.solve().expect("relaxation feasible");
        let ilp = solve_ilp(&case.problem, &IlpOptions::default())
            .expect("x0 is integral and feasible");
        // LP relaxation ≤ ILP ≤ certified integral point (minimization).
        prop_assert!(ilp.objective() >= lp.objective() - 1e-6);
        let obj_x0 = case.problem.eval_objective(&case.x0);
        prop_assert!(ilp.objective() <= obj_x0 + 1e-6);
        // The incumbent really is integral.
        for v in case.problem.integer_vars() {
            let x = ilp.value(v);
            prop_assert!((x - x.round()).abs() < 1e-6);
        }
        prop_assert!(case.problem.max_violation(ilp.solution().values()) < 1e-5);
    }

    #[test]
    fn tightening_bounds_never_improves(case in arb_lp(false)) {
        let base = case.problem.solve().unwrap();
        // Pin the first variable to the certified point: the problem
        // stays feasible (x0 satisfies it) and can only get worse.
        let mut tightened = case.problem.clone();
        tightened.add_constraint([(tightened.var(0), 1.0)], Relation::Eq, case.x0[0]);
        let t = tightened.solve().expect("x0 still feasible");
        prop_assert!(t.objective() >= base.objective() - 1e-6);
    }

    #[test]
    fn warm_start_equals_cold_after_tightening(case in arb_lp(false)) {
        let opts = metis_lp::SolveOptions::default();
        let Ok((_, basis)) = case.problem.solve_with_basis(&opts, None) else {
            return Ok(());
        };
        // Tighten the first variable toward the certified point.
        let mut tightened = case.problem.clone();
        let v = tightened.var(0);
        let (lo, up) = tightened.bounds(v);
        tightened.set_bounds(v, lo.max(case.x0[0] - 0.5), up.min(case.x0[0] + 0.5));
        let warm = tightened.solve_with_basis(&opts, Some(&basis));
        let cold = tightened.solve();
        match (warm, cold) {
            (Ok((w, _)), Ok(c)) => {
                prop_assert!((w.objective() - c.objective()).abs() < 1e-6,
                    "warm {} vs cold {}", w.objective(), c.objective());
                prop_assert!(tightened.max_violation(w.values()) < 1e-5);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (w, c) => prop_assert!(false, "warm {w:?} vs cold {c:?}"),
        }
    }

    #[test]
    fn shrinking_a_box_to_infeasibility_is_detected(case in arb_lp(false)) {
        // Force an empty region through contradictory rows on var 0.
        let mut p = case.problem.clone();
        let v = p.var(0);
        p.add_constraint([(v, 1.0)], Relation::Ge, case.x0[0] + 1.0);
        p.add_constraint([(v, 1.0)], Relation::Le, case.x0[0] - 1.0);
        prop_assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }
}

/// Deterministic seeded generator for *sparse* LPs, larger than the
/// proptest cases: most coefficients are structural zeros, mixed row
/// senses, rhs derived from a known feasible point so every instance is
/// feasible by construction.
fn seeded_sparse_lp(seed: u64) -> (Problem, Vec<f64>) {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // in [-1, 1)
    };
    let n = 8 + (seed % 23) as usize; // 8..=30 variables
    let m = 4 + (seed % 17) as usize; // 4..=20 rows
    let mut p = Problem::new(if seed.is_multiple_of(2) {
        Sense::Minimize
    } else {
        Sense::Maximize
    });
    let mut x0 = Vec::with_capacity(n);
    let mut vars = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = (next() * 4.0).round();
        let hi = lo + (next().abs() * 6.0).round() + 1.0;
        let obj = (next() * 5.0 * 2.0).round() / 2.0;
        vars.push(p.add_var(obj, lo, hi));
        x0.push(((lo + hi) / 2.0).round().clamp(lo, hi));
    }
    for _ in 0..m {
        // ~3 nonzeros per row regardless of n: genuinely sparse rows.
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for _ in 0..3 {
            let j = (next().abs() * n as f64) as usize % n;
            let c = (next() * 3.0).round();
            if c != 0.0 && !terms.iter().any(|&(tj, _)| tj == j) {
                terms.push((j, c));
            }
        }
        if terms.is_empty() {
            terms.push((0, 1.0));
        }
        let activity: f64 = terms.iter().map(|&(j, c)| c * x0[j]).sum();
        let slack = next().abs() * 4.0;
        let which = (next().abs() * 3.0) as u32;
        let rows = terms.iter().map(|&(j, c)| (vars[j], c));
        match which {
            0 => p.add_constraint(rows, Relation::Le, activity + slack),
            1 => p.add_constraint(rows, Relation::Ge, activity - slack),
            _ => p.add_constraint(rows, Relation::Eq, activity),
        };
    }
    (p, x0)
}

/// Seeded RL-SPM-shaped relaxation: requests with 1–3 candidate paths
/// over a few edges, each either routed (`Σ x = 1`) or, in the
/// warm-solver form, routed through a fixed acceptance column
/// (`Σ x − y = 0`, `y ∈ [1, 1]`), plus one load row `Σ r·x − c_e ≤ 0` per
/// touched (edge, slot) and a priced, unbounded charge column per edge.
fn seeded_rlspm_lp(seed: u64) -> Problem {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let edges = 3 + next(6);
    let slots = 1 + next(4);
    let requests = 2 + next(12);
    let with_y = seed % 2 == 1;
    let mut p = Problem::new(Sense::Minimize);
    let mut cells: Vec<Vec<(metis_lp::VarId, f64)>> = vec![Vec::new(); edges * slots];
    let mut assignment = Vec::with_capacity(requests);
    for _ in 0..requests {
        let rate = 0.5 + next(8) as f64 * 0.25;
        let start = next(slots);
        let end = start + next(slots - start);
        let mut row = Vec::new();
        for _ in 0..1 + next(3) {
            let x = p.add_var(0.0, 0.0, 1.0);
            row.push((x, 1.0));
            let hops = 1 + next(3);
            let first = next(edges);
            for h in 0..hops {
                let e = (first + 2 * h) % edges;
                for t in start..=end {
                    if cells[e * slots + t].iter().all(|&(v, _)| v != x) {
                        cells[e * slots + t].push((x, rate));
                    }
                }
            }
        }
        assignment.push(row);
    }
    let charges: Vec<_> = (0..edges)
        .map(|_| p.add_var(0.5 + next(10) as f64 * 0.5, 0.0, f64::INFINITY))
        .collect();
    for mut row in assignment {
        let rhs = if with_y {
            row.push((p.add_var(0.0, 1.0, 1.0), -1.0));
            0.0
        } else {
            1.0
        };
        p.add_constraint(row, Relation::Eq, rhs);
    }
    for (cell, terms) in cells.into_iter().enumerate() {
        if !terms.is_empty() {
            let c = charges[cell / slots];
            p.add_constraint(terms.into_iter().chain([(c, -1.0)]), Relation::Le, 0.0);
        }
    }
    p
}

/// Bound-aware dual objective of `sol`'s row duals: `b·y` plus, for
/// every column, its reduced cost `d_j = c_j − a_jᵀy` times the bound
/// the optimality conditions put it at. Returns `None` when the duals
/// are infeasible: a row dual of the wrong sign, or a reduced cost
/// pushing a column toward an infinite bound.
fn dual_objective(p: &Problem, sol: &metis_lp::Solution, tol: f64) -> Option<f64> {
    let y = sol.duals()?;
    // Signs below are for minimization; maximization mirrors them.
    let flip = if p.sense() == Sense::Maximize {
        -1.0
    } else {
        1.0
    };
    let mut obj = 0.0;
    for ((&yi, rel), rhs) in y.iter().zip(p.row_relations()).zip(p.row_rhs()) {
        let ok = match rel {
            Relation::Le => flip * yi <= tol,
            Relation::Ge => flip * yi >= -tol,
            Relation::Eq => true,
        };
        if !ok {
            return None;
        }
        obj += yi * rhs;
    }
    for (j, col) in p.entries_by_column().iter().enumerate() {
        let v = p.var(j);
        let d = p.objective_coeff(v) - col.iter().map(|&(i, a)| a * y[i]).sum::<f64>();
        if d.abs() <= tol {
            continue;
        }
        let (lo, up) = p.bounds(v);
        let bound = if flip * d > 0.0 { lo } else { up };
        if !bound.is_finite() {
            return None;
        }
        obj += d * bound;
    }
    Some(obj)
}

/// An optimality oracle that does not depend on the start basis: on 200
/// seeded RL-SPM-shaped LPs, every one of which starts from the
/// feasibility crash (no phase-1 pivots), the reported primal objective
/// equals the bound-aware dual objective of the reported duals.
#[test]
fn crash_solves_of_200_rlspm_lps_are_strongly_dual() {
    for seed in 0..200u64 {
        let p = seeded_rlspm_lp(seed);
        let sol = p
            .solve()
            .unwrap_or_else(|e| panic!("seed {seed}: solve failed: {e:?}"));
        assert_eq!(
            sol.stats().phase1_iterations,
            0,
            "seed {seed}: the crash fell back to phase 1"
        );
        assert!(
            certify(&p, &sol, 1e-6).accepted(),
            "seed {seed}: certificate"
        );
        let dual = dual_objective(&p, &sol, 1e-7)
            .unwrap_or_else(|| panic!("seed {seed}: reported duals are infeasible"));
        assert!(
            (sol.objective() - dual).abs() <= 1e-6 * (1.0 + sol.objective().abs()),
            "seed {seed}: primal {} vs dual {dual}",
            sol.objective()
        );
    }
}

/// The optimality oracle beyond the RL-SPM shapes: on the 200 seeded
/// sparse LPs (both senses, `≤`/`≥`/`=` rows, general bounds) every
/// solution passes certification, is no worse than the known feasible
/// point, and has sign-feasible duals whose bound-aware dual objective
/// equals the primal objective.
#[test]
fn sparse_lps_are_strongly_dual() {
    for seed in 0..200u64 {
        let (p, x0) = seeded_sparse_lp(seed);
        let sol = p
            .solve()
            .unwrap_or_else(|e| panic!("seed {seed}: solve failed: {e:?}"));
        assert!(
            certify(&p, &sol, 1e-6).accepted(),
            "seed {seed}: certificate"
        );
        let obj_x0 = p.eval_objective(&x0);
        let no_worse = match p.sense() {
            Sense::Minimize => sol.objective() <= obj_x0 + 1e-6,
            Sense::Maximize => sol.objective() >= obj_x0 - 1e-6,
        };
        assert!(
            no_worse,
            "seed {seed}: optimum {} worse than certified point {obj_x0}",
            sol.objective()
        );
        let dual = dual_objective(&p, &sol, 1e-7)
            .unwrap_or_else(|| panic!("seed {seed}: reported duals are infeasible"));
        assert!(
            (sol.objective() - dual).abs() <= 1e-6 * (1.0 + sol.objective().abs()),
            "seed {seed}: primal {} vs dual {dual}",
            sol.objective()
        );
    }
}
