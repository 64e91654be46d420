//! Sparse LU factorization of the simplex basis, with product-form
//! (eta) updates between refactorizations.
//!
//! The revised simplex only ever needs two linear maps: `B⁻¹ a`
//! (FTRAN — pivot directions, basic values) and `B⁻ᵀ c` (BTRAN — duals,
//! dual-simplex rows). Instead of materializing a dense `m×m` inverse,
//! this module factors the basis once,
//!
//! ```text
//! B[perm_row[k], perm_col[t]] = (L·U)[k, t]
//! ```
//!
//! with **Markowitz pivot ordering** — each elimination step picks the
//! candidate minimizing the fill-in bound `(col_count−1)·(row_count−1)`,
//! subject to a relative threshold (`|pivot| ≥ 0.1 · max|column|`) for
//! numerical stability — and then answers both maps with four sparse
//! triangular substitutions in `O(nnz(L) + nnz(U) + m)`.
//!
//! Pivot selection is **deterministic**: singleton columns are consumed
//! smallest-index-first, and the Markowitz scan breaks merit ties by
//! `(column, row)` index. Identical bases therefore always produce
//! identical factors, bit for bit, independent of thread count or
//! allocation history.
//!
//! Between refactorizations the basis changes one column per pivot, and
//! a **product-form** eta file ([`EtaFile`]) absorbs each change: with
//! entering direction `w = B⁻¹ a_q` replacing slot `r`, the new basis is
//! `B' = B·E` where `E` is the identity with column `r` replaced by `w`.
//! FTRAN applies `E⁻¹` oldest-to-newest after the LU solve; BTRAN
//! applies `E⁻ᵀ` newest-to-oldest before it. The `w` vectors are FTRAN
//! outputs and tend to fill in, so the file grows by up to `m` nonzeros
//! per pivot until the simplex's fixed refactorization cadence (every
//! 300 pivots) refactorizes and clears it.

use std::collections::BTreeSet;

use crate::error::SolveError;
use crate::matrix::{CscMatrix, SparseTriangular};

/// Relative threshold for Markowitz pivot admissibility: a candidate
/// must reach this fraction of its column's largest magnitude. Balances
/// fill-in freedom (small) against growth control (large); 0.1 is the
/// classical compromise.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// A sparse LU factorization of one basis matrix.
///
/// Row indices live in the problem's constraint-row space; column
/// indices are basis *slots* (positions in the simplex's `basis`
/// array). [`LuFactors::ftran`] maps row space → slot space,
/// [`LuFactors::btran`] slot space → row space.
#[derive(Clone, Debug)]
pub(crate) struct LuFactors {
    m: usize,
    /// `perm_row[k]` = constraint row eliminated at step `k`.
    perm_row: Vec<u32>,
    /// `perm_col[k]` = basis slot eliminated at step `k`.
    perm_col: Vec<u32>,
    /// Unit lower factor; group `k` is column `k` (positions `> k`).
    l: SparseTriangular,
    /// Strict upper factor; group `k` is row `k` (positions `> k`).
    u: SparseTriangular,
    /// Diagonal of `U` (the pivots), by elimination step.
    u_diag: Vec<f64>,
}

impl LuFactors {
    /// Factors the basis `B` whose slot `i` is column `basis[i]` of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when no admissible pivot exists
    /// for some elimination step (structurally or numerically singular
    /// basis).
    pub(crate) fn factor(a: &CscMatrix, basis: &[u32], abs_tol: f64) -> Result<Self, SolveError> {
        let m = basis.len();
        // Active submatrix: sorted sparse columns, one per basis slot.
        let mut cols: Vec<Vec<(u32, f64)>> = basis
            .iter()
            .map(|&bj| {
                a.col(bj as usize)
                    .iter()
                    .map(|(r, v)| (r as u32, v))
                    .collect()
            })
            .collect();
        // Row → candidate columns (lazy: may hold stale references that
        // are filtered by a membership check before use).
        let mut row_cols: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut row_count: Vec<usize> = vec![0; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                row_cols[r as usize].push(j as u32);
                row_count[r as usize] += 1;
            }
        }
        let mut col_alive = vec![true; m];
        let mut row_alive = vec![true; m];
        // Singleton columns are fill-free pivots; consume them
        // smallest-index-first for determinism.
        let mut singles: BTreeSet<u32> = cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.len() == 1)
            .map(|(j, _)| j as u32)
            .collect();

        let mut perm_row: Vec<u32> = Vec::with_capacity(m);
        let mut perm_col: Vec<u32> = Vec::with_capacity(m);
        let mut row_pos: Vec<u32> = vec![0; m];
        let mut col_pos: Vec<u32> = vec![0; m];
        let mut l_groups: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_groups: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_diag: Vec<f64> = Vec::with_capacity(m);
        let mut merged: Vec<(u32, f64)> = Vec::new();

        for k in 0..m {
            // --- Pivot selection ---------------------------------------
            let mut pick: Option<(usize, usize)> = None; // (col, entry index)
            while let Some(j) = singles.pop_first() {
                let j = j as usize;
                if col_alive[j] && cols[j].len() == 1 && cols[j][0].1.abs() >= abs_tol {
                    pick = Some((j, 0));
                    break;
                }
                // Stale or numerically unusable: leave it to the scan.
            }
            if pick.is_none() {
                // Full Markowitz scan, ascending column then row index so
                // merit ties resolve deterministically.
                let mut best_merit = usize::MAX;
                'cols: for (j, col) in cols.iter().enumerate() {
                    if !col_alive[j] {
                        continue;
                    }
                    if col.is_empty() {
                        return Err(SolveError::Singular);
                    }
                    let colmax = col.iter().fold(0.0f64, |mx, &(_, v)| mx.max(v.abs()));
                    if colmax < abs_tol {
                        continue;
                    }
                    let admissible = (MARKOWITZ_THRESHOLD * colmax).max(abs_tol);
                    let cc = col.len();
                    for (e, &(r, v)) in col.iter().enumerate() {
                        if v.abs() < admissible {
                            continue;
                        }
                        let merit = (cc - 1) * (row_count[r as usize] - 1);
                        if merit < best_merit {
                            best_merit = merit;
                            pick = Some((j, e));
                            if merit == 0 {
                                // Global minimum; earlier (col, row) pairs
                                // were already scanned, so ties are settled.
                                break 'cols;
                            }
                        }
                    }
                }
            }
            let Some((pj, pe)) = pick else {
                return Err(SolveError::Singular);
            };

            // --- Elimination -------------------------------------------
            let pivot_col = std::mem::take(&mut cols[pj]);
            let (pr, pv) = pivot_col[pe];
            let pr = pr as usize;
            perm_col.push(pj as u32);
            perm_row.push(pr as u32);
            col_pos[pj] = k as u32;
            row_pos[pr] = k as u32;
            col_alive[pj] = false;
            row_alive[pr] = false;
            u_diag.push(pv);
            for &(r, _) in &pivot_col {
                row_count[r as usize] = row_count[r as usize].saturating_sub(1);
            }
            // Multiplier column: every remaining entry of the pivot column.
            let lower: Vec<(u32, f64)> = pivot_col
                .iter()
                .filter(|&&(r, _)| r as usize != pr)
                .copied()
                .collect();
            l_groups.push(lower.iter().map(|&(r, v)| (r, v / pv)).collect());

            // Columns holding row `pr` receive the rank-1 update; collect
            // candidates in ascending order (determinism) and drop stale
            // references.
            let mut cands = std::mem::take(&mut row_cols[pr]);
            cands.sort_unstable();
            cands.dedup();
            let mut u_row: Vec<(u32, f64)> = Vec::new();
            for &j2 in &cands {
                let j2 = j2 as usize;
                if !col_alive[j2] {
                    continue;
                }
                let Ok(pos) = cols[j2].binary_search_by_key(&(pr as u32), |&(r, _)| r) else {
                    continue; // stale candidate
                };
                let uval = cols[j2][pos].1;
                cols[j2].remove(pos);
                u_row.push((j2 as u32, uval));
                let mult = uval / pv;
                if mult != 0.0 && !lower.is_empty() {
                    // cols[j2] -= mult · lower, by sorted merge.
                    merged.clear();
                    let c = &cols[j2];
                    let (mut x, mut y) = (0usize, 0usize);
                    while x < c.len() && y < lower.len() {
                        let (cr, cv) = c[x];
                        let (lr, lv) = lower[y];
                        if cr == lr {
                            let nv = cv - mult * lv;
                            if nv != 0.0 {
                                merged.push((cr, nv));
                            } else {
                                // Exact cancellation: the entry is gone.
                                row_count[cr as usize] = row_count[cr as usize].saturating_sub(1);
                            }
                            x += 1;
                            y += 1;
                        } else if cr < lr {
                            merged.push((cr, cv));
                            x += 1;
                        } else {
                            let nv = -mult * lv;
                            if nv != 0.0 {
                                merged.push((lr, nv));
                                row_count[lr as usize] += 1;
                                row_cols[lr as usize].push(j2 as u32);
                            }
                            y += 1;
                        }
                    }
                    while x < c.len() {
                        merged.push(c[x]);
                        x += 1;
                    }
                    while y < lower.len() {
                        let (lr, lv) = lower[y];
                        let nv = -mult * lv;
                        if nv != 0.0 {
                            merged.push((lr, nv));
                            row_count[lr as usize] += 1;
                            row_cols[lr as usize].push(j2 as u32);
                        }
                        y += 1;
                    }
                    cols[j2].clear();
                    cols[j2].extend_from_slice(&merged);
                }
                if cols[j2].is_empty() {
                    // An alive column with no alive rows can never pivot.
                    return Err(SolveError::Singular);
                }
                if cols[j2].len() == 1 {
                    singles.insert(j2 as u32);
                }
            }
            u_groups.push(u_row);
        }

        // Remap the factors from original indices into elimination
        // positions, sorted so substitution order (and therefore float
        // summation order) is reproducible.
        for group in &mut l_groups {
            for e in group.iter_mut() {
                e.0 = row_pos[e.0 as usize];
            }
            group.sort_unstable_by_key(|&(p, _)| p);
        }
        for group in &mut u_groups {
            for e in group.iter_mut() {
                e.0 = col_pos[e.0 as usize];
            }
            group.sort_unstable_by_key(|&(p, _)| p);
        }
        let _ = row_alive;
        Ok(LuFactors {
            m,
            perm_row,
            perm_col,
            l: SparseTriangular::from_groups(l_groups),
            u: SparseTriangular::from_groups(u_groups),
            u_diag,
        })
    }

    /// Factors of the `m×m` identity: a placeholder for a solver whose
    /// basis has not been factorized yet.
    pub(crate) fn identity(m: usize) -> Self {
        LuFactors {
            m,
            perm_row: (0..m as u32).collect(),
            perm_col: (0..m as u32).collect(),
            l: SparseTriangular::from_groups(vec![Vec::new(); m]),
            u: SparseTriangular::from_groups(vec![Vec::new(); m]),
            u_diag: vec![1.0; m],
        }
    }

    /// Nonzeros stored in the `L` factor (off-diagonal).
    pub(crate) fn l_nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Nonzeros stored in the `U` factor (including the diagonal).
    pub(crate) fn u_nnz(&self) -> usize {
        self.u.nnz() + self.u_diag.len()
    }

    /// FTRAN: solves `B x = b`, reading `b` in constraint-row space and
    /// writing `x` in basis-slot space. `work` is caller-owned scratch
    /// of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is shorter than the basis dimension.
    pub(crate) fn ftran(&self, b: &[f64], x: &mut [f64], work: &mut [f64]) {
        for k in 0..self.m {
            work[k] = b[self.perm_row[k] as usize];
        }
        self.l.solve_forward(None, work);
        self.u.solve_backward(Some(&self.u_diag), work);
        for k in 0..self.m {
            x[self.perm_col[k] as usize] = work[k];
        }
    }

    /// BTRAN: solves `Bᵀ y = c`, reading `c` in basis-slot space and
    /// writing `y` in constraint-row space. `work` is caller-owned
    /// scratch of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is shorter than the basis dimension.
    pub(crate) fn btran(&self, c: &[f64], y: &mut [f64], work: &mut [f64]) {
        for k in 0..self.m {
            work[k] = c[self.perm_col[k] as usize];
        }
        self.u.solve_forward(Some(&self.u_diag), work);
        self.l.solve_backward(None, work);
        for k in 0..self.m {
            y[self.perm_row[k] as usize] = work[k];
        }
    }
}

/// One product-form update: the identity with slot column `slot`
/// replaced by the entering direction `w = B⁻¹ a_q`.
#[derive(Clone, Debug)]
struct Eta {
    slot: u32,
    pivot: f64,
    /// Nonzeros of `w` excluding the pivot slot.
    entries: Vec<(u32, f64)>,
}

/// The eta file: product-form updates appended since the last
/// refactorization, applied around the LU solves.
#[derive(Clone, Debug, Default)]
pub(crate) struct EtaFile {
    etas: Vec<Eta>,
}

impl EtaFile {
    /// Drops all updates (after a refactorization).
    pub(crate) fn clear(&mut self) {
        self.etas.clear();
    }

    /// Records the pivot that replaced basis slot `slot` with the column
    /// whose direction is `w` (dense, slot space, `w[slot]` = pivot).
    pub(crate) fn push(&mut self, slot: usize, w: &[f64]) {
        let entries: Vec<(u32, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != slot && v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        self.etas.push(Eta {
            slot: slot as u32,
            pivot: w[slot],
            entries,
        });
    }

    /// Applies `Eₖ⁻¹ ⋯ E₁⁻¹` in place (FTRAN tail), oldest update first.
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let slot = eta.slot as usize;
            let t = x[slot] / eta.pivot;
            x[slot] = t;
            if t != 0.0 {
                for &(i, v) in &eta.entries {
                    x[i as usize] -= v * t;
                }
            }
        }
    }

    /// Applies `E₁⁻ᵀ ⋯ Eₖ⁻ᵀ` in place (BTRAN head), newest update first.
    pub(crate) fn btran(&self, x: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let slot = eta.slot as usize;
            let mut acc = 0.0;
            for &(i, v) in &eta.entries {
                acc += v * x[i as usize];
            }
            x[slot] = (x[slot] - acc) / eta.pivot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CscBuilder;

    /// Dense reference multiply `B x` for checking the factors.
    fn mul(a: &CscMatrix, basis: &[u32], x: &[f64]) -> Vec<f64> {
        let m = basis.len();
        let mut out = vec![0.0; m];
        for (slot, &bj) in basis.iter().enumerate() {
            for (r, v) in a.col(bj as usize).iter() {
                out[r] += v * x[slot];
            }
        }
        out
    }

    fn mul_t(a: &CscMatrix, basis: &[u32], y: &[f64]) -> Vec<f64> {
        basis
            .iter()
            .map(|&bj| a.col(bj as usize).iter().map(|(r, v)| v * y[r]).sum())
            .collect()
    }

    fn check_roundtrip(a: &CscMatrix, basis: &[u32]) {
        let m = basis.len();
        let lu = LuFactors::factor(a, basis, 1e-12).expect("nonsingular");
        let mut work = vec![0.0; m];
        // FTRAN: B x = b  →  mul(basis, x) == b.
        let b: Vec<f64> = (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect();
        let mut x = vec![0.0; m];
        lu.ftran(&b, &mut x, &mut work);
        let back = mul(a, basis, &x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8, "FTRAN residual {got} vs {want}");
        }
        // BTRAN: Bᵀ y = c  →  mul_t(basis, y) == c.
        let c: Vec<f64> = (0..m).map(|i| 0.4 * (i as f64) + 0.9).collect();
        let mut y = vec![0.0; m];
        lu.btran(&c, &mut y, &mut work);
        let back = mul_t(a, basis, &y);
        for (got, want) in back.iter().zip(&c) {
            assert!((got - want).abs() < 1e-8, "BTRAN residual {got} vs {want}");
        }
    }

    #[test]
    fn identity_basis() {
        let mut b = CscBuilder::new(3);
        for i in 0..3 {
            b.add_col([(i, 1.0)]);
        }
        let a = b.build();
        check_roundtrip(&a, &[0, 1, 2]);
    }

    #[test]
    fn permuted_scaled_diagonal() {
        let mut b = CscBuilder::new(3);
        b.add_col([(2, -4.0)]);
        b.add_col([(0, 0.5)]);
        b.add_col([(1, 3.0)]);
        let a = b.build();
        check_roundtrip(&a, &[0, 1, 2]);
    }

    #[test]
    fn dense_small_block() {
        // A 3×3 with every entry nonzero; forces genuine elimination.
        let mut b = CscBuilder::new(3);
        b.add_col([(0, 2.0), (1, 1.0), (2, 1.0)]);
        b.add_col([(0, 1.0), (1, 3.0), (2, 2.0)]);
        b.add_col([(0, 1.0), (1, 1.0), (2, 4.0)]);
        let a = b.build();
        check_roundtrip(&a, &[0, 1, 2]);
    }

    #[test]
    fn mixed_slack_and_structural() {
        // Typical simplex basis: a few structural columns, rest slacks.
        let m = 6;
        let mut b = CscBuilder::new(m);
        b.add_col([(0, 1.0), (3, 2.0), (5, -1.0)]);
        b.add_col([(1, 4.0), (2, 1.0)]);
        for i in 0..m {
            b.add_col([(i, 1.0)]);
        }
        let a = b.build();
        // Columns 2..8 are the slacks e₀..e₅; pick bases covering all rows.
        check_roundtrip(&a, &[0, 1, 6, 7, 4, 5]);
        check_roundtrip(&a, &[0, 6, 1, 4, 5, 7]);
    }

    #[test]
    fn singular_detected() {
        let mut b = CscBuilder::new(2);
        b.add_col([(0, 1.0), (1, 1.0)]);
        b.add_col([(0, 2.0), (1, 2.0)]);
        let a = b.build();
        assert_eq!(
            LuFactors::factor(&a, &[0, 1], 1e-12).unwrap_err(),
            SolveError::Singular
        );
    }

    #[test]
    fn structurally_singular_detected() {
        let mut b = CscBuilder::new(2);
        b.add_col([(0, 1.0)]);
        b.add_col([(0, 2.0)]);
        let a = b.build();
        assert_eq!(
            LuFactors::factor(&a, &[0, 1], 1e-12).unwrap_err(),
            SolveError::Singular
        );
    }

    #[test]
    fn empty_basis() {
        let a = CscBuilder::new(0).build();
        let lu = LuFactors::factor(&a, &[], 1e-12).expect("empty is trivially factored");
        let mut x: Vec<f64> = Vec::new();
        let mut work: Vec<f64> = Vec::new();
        lu.ftran(&[], &mut x, &mut work);
        assert_eq!(lu.l_nnz(), 0);
    }

    #[test]
    fn eta_file_matches_refactorization() {
        // Replace one basis column via an eta and compare FTRAN/BTRAN
        // against factoring the updated basis directly.
        let m = 4;
        let mut b = CscBuilder::new(m);
        b.add_col([(0, 2.0), (1, 1.0)]);
        b.add_col([(1, 3.0), (2, -1.0)]);
        b.add_col([(2, 1.5), (3, 0.5)]);
        b.add_col([(0, 1.0), (3, 2.0)]);
        b.add_col([(0, 1.0), (2, 2.0), (3, -1.0)]); // entering column (index 4)
        let a = b.build();
        let basis: Vec<u32> = vec![0, 1, 2, 3];
        let lu = LuFactors::factor(&a, &basis, 1e-12).expect("nonsingular");
        let mut work = vec![0.0; m];

        // Direction w = B⁻¹ a₄, then replace slot 1.
        let mut dense = vec![0.0; m];
        for (r, v) in a.col(4).iter() {
            dense[r] = v;
        }
        let mut w = vec![0.0; m];
        lu.ftran(&dense, &mut w, &mut work);
        let mut etas = EtaFile::default();
        etas.push(1, &w);
        assert_eq!(etas.etas.len(), 1);

        let new_basis: Vec<u32> = vec![0, 4, 2, 3];
        let fresh = LuFactors::factor(&a, &new_basis, 1e-12).expect("nonsingular");

        let rhs: Vec<f64> = vec![1.0, -2.0, 0.5, 3.0];
        let mut via_eta = vec![0.0; m];
        lu.ftran(&rhs, &mut via_eta, &mut work);
        etas.ftran(&mut via_eta);
        let mut direct = vec![0.0; m];
        fresh.ftran(&rhs, &mut direct, &mut work);
        for (e, d) in via_eta.iter().zip(&direct) {
            assert!((e - d).abs() < 1e-9, "eta FTRAN {e} vs fresh {d}");
        }

        let cost: Vec<f64> = vec![0.3, -1.0, 2.0, 0.0];
        let mut c_eta = cost.clone();
        etas.btran(&mut c_eta);
        let mut via_eta_y = vec![0.0; m];
        lu.btran(&c_eta, &mut via_eta_y, &mut work);
        let mut direct_y = vec![0.0; m];
        fresh.btran(&cost, &mut direct_y, &mut work);
        for (e, d) in via_eta_y.iter().zip(&direct_y) {
            assert!((e - d).abs() < 1e-9, "eta BTRAN {e} vs fresh {d}");
        }
    }
}
