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
//! A refactorization allocates nothing per column, row or elimination
//! step. [`LuFactors`] owns a workspace that every refactorization of a
//! solve reuses: the active submatrix and the row → column lists live in
//! two flat arenas (a list that outgrows its room moves to the arena's
//! end), singleton columns wait in a binary heap, and `L` and `U` are
//! written straight into their flat arrays and each group is sorted in
//! place at the end. Buffers grow only when a basis needs more room than
//! any before it; a workspace that has seen other bases, or a singular
//! one, gives the same factors as a fresh one.
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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::SolveError;
use crate::matrix::{CscMatrix, SparseTriangular};

/// Relative threshold for Markowitz pivot admissibility: a candidate
/// must reach this fraction of its column's largest magnitude. Balances
/// fill-in freedom (small) against growth control (large); 0.1 is the
/// classical compromise.
const MARKOWITZ_THRESHOLD: f64 = 0.1;

/// A sparse LU factorization of one basis matrix, with the scratch space
/// its refactorizations reuse.
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
    work: Workspace,
}

/// The elimination's working state, kept between refactorizations so
/// that a refactorization allocates only when some buffer has to grow.
#[derive(Clone, Debug, Default)]
struct Workspace {
    /// Active submatrix: list `j` is slot `j`'s column, rows ascending.
    cols: Lists<(u32, f64)>,
    /// Row → candidate columns (lazy: may hold stale references that are
    /// filtered by a membership check before use).
    rows: Lists<u32>,
    /// Active nonzeros per row.
    row_count: Vec<usize>,
    col_alive: Vec<bool>,
    /// Singleton columns, popped smallest index first; an index may be
    /// queued twice, and stale entries are skipped when popped.
    singles: BinaryHeap<Reverse<u32>>,
    /// Elimination step of each row and each slot.
    row_pos: Vec<u32>,
    col_pos: Vec<u32>,
    /// The pivot column without its pivot entry.
    lower: Vec<(u32, f64)>,
    /// One updated column, built by merge.
    merged: Vec<(u32, f64)>,
    /// The columns holding the pivot row.
    cands: Vec<u32>,
    /// Scratch for sorting one factor group.
    group: Vec<(u32, f64)>,
}

/// Variable-length lists packed into one arena: list `i` is
/// `ent[start[i]..start[i] + len[i]]`, with room for `room[i]` entries.
/// A list that outgrows its room moves to the end of the arena with at
/// least twice the room; its old slots lie unused until
/// [`Lists::clear`], which keeps the arena's allocation.
#[derive(Clone, Debug, Default)]
struct Lists<T> {
    start: Vec<usize>,
    len: Vec<usize>,
    room: Vec<usize>,
    ent: Vec<T>,
}

impl<T: Copy + Default> Lists<T> {
    /// Drops every list.
    fn clear(&mut self) {
        self.start.clear();
        self.len.clear();
        self.room.clear();
        self.ent.clear();
    }

    /// Appends an empty list with room for `room` entries.
    fn add(&mut self, room: usize) {
        self.start.push(self.ent.len());
        self.len.push(0);
        self.room.push(room);
        self.ent.resize(self.ent.len() + room, T::default());
    }

    fn get(&self, i: usize) -> &[T] {
        let s = self.start[i];
        &self.ent[s..s + self.len[i]]
    }

    /// Makes room for `need` entries in list `i`, moving it if needed.
    fn reserve(&mut self, i: usize, need: usize) {
        if need > self.room[i] {
            let room = need.max(2 * self.room[i]);
            let (s, n) = (self.start[i], self.len[i]);
            let new = self.ent.len();
            self.ent.extend_from_within(s..s + n);
            self.ent.resize(new + room, T::default());
            self.start[i] = new;
            self.room[i] = room;
        }
    }

    fn push(&mut self, i: usize, v: T) {
        self.reserve(i, self.len[i] + 1);
        // INDEX: reserve leaves room for len + 1 entries from start.
        self.ent[self.start[i] + self.len[i]] = v;
        self.len[i] += 1;
    }

    /// Removes entry `pos` of list `i`, keeping the order of the rest.
    fn remove(&mut self, i: usize, pos: usize) {
        let (s, n) = (self.start[i], self.len[i]);
        self.ent.copy_within(s + pos + 1..s + n, s + pos);
        self.len[i] -= 1;
    }

    /// Replaces the contents of list `i` with `src`.
    fn set(&mut self, i: usize, src: &[T]) {
        self.len[i] = 0;
        self.reserve(i, src.len());
        let s = self.start[i];
        self.ent[s..s + src.len()].copy_from_slice(src);
        self.len[i] = src.len();
    }
}

impl LuFactors {
    /// Factors the basis `B` whose slot `i` is column `basis[i]` of `a`,
    /// replacing the current factors and reusing their buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when no admissible pivot exists
    /// for some elimination step (structurally or numerically singular
    /// basis). The factors are then unusable until the next successful
    /// call; the buffers stay reusable.
    pub(crate) fn factor(
        &mut self,
        a: &CscMatrix,
        basis: &[u32],
        abs_tol: f64,
    ) -> Result<(), SolveError> {
        let m = basis.len();
        let LuFactors {
            m: dim,
            perm_row,
            perm_col,
            l,
            u,
            u_diag,
            work,
        } = self;
        let Workspace {
            cols,
            rows,
            row_count,
            col_alive,
            singles,
            row_pos,
            col_pos,
            lower,
            merged,
            cands,
            group,
        } = work;
        *dim = m;
        perm_row.clear();
        perm_col.clear();
        u_diag.clear();
        l.clear();
        u.clear();

        cols.clear();
        row_count.clear();
        row_count.resize(m, 0);
        for (j, &bj) in basis.iter().enumerate() {
            let c = a.col(bj as usize);
            cols.add(c.rows.len());
            for (&r, &v) in c.rows.iter().zip(c.values) {
                cols.push(j, (r, v));
                row_count[r as usize] += 1;
            }
        }
        rows.clear();
        for &count in row_count.iter() {
            rows.add(count);
        }
        for j in 0..m {
            for &(r, _) in cols.get(j) {
                rows.push(r as usize, j as u32);
            }
        }
        col_alive.clear();
        col_alive.resize(m, true);
        // Singleton columns are fill-free pivots; consume them
        // smallest-index-first for determinism.
        singles.clear();
        singles.extend(
            (0..m)
                .filter(|&j| cols.get(j).len() == 1)
                .map(|j| Reverse(j as u32)),
        );
        row_pos.clear();
        row_pos.resize(m, 0);
        col_pos.clear();
        col_pos.resize(m, 0);

        for k in 0..m {
            // --- Pivot selection ---------------------------------------
            let mut pick: Option<(usize, usize)> = None; // (col, entry index)
            while let Some(Reverse(j)) = singles.pop() {
                let j = j as usize;
                if col_alive[j] {
                    if let [(_, v)] = cols.get(j) {
                        if v.abs() >= abs_tol {
                            pick = Some((j, 0));
                            break;
                        }
                    }
                }
                // Stale or numerically unusable: leave it to the scan.
            }
            if pick.is_none() {
                // Full Markowitz scan, ascending column then row index so
                // merit ties resolve deterministically.
                let mut best_merit = usize::MAX;
                'cols: for (j, &alive) in col_alive.iter().enumerate() {
                    if !alive {
                        continue;
                    }
                    let col = cols.get(j);
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
            let pivot_col = cols.get(pj);
            let (pr, pv) = pivot_col[pe];
            perm_col.push(pj as u32);
            perm_row.push(pr);
            col_pos[pj] = k as u32;
            row_pos[pr as usize] = k as u32;
            col_alive[pj] = false;
            u_diag.push(pv);
            for &(r, _) in pivot_col {
                row_count[r as usize] = row_count[r as usize].saturating_sub(1);
            }
            // Multiplier column: every remaining entry of the pivot column.
            lower.clear();
            lower.extend(pivot_col.iter().filter(|&&(r, _)| r != pr));
            for &(r, v) in lower.iter() {
                l.push(r, v / pv);
            }
            l.close_group();

            // Columns holding row `pr` receive the rank-1 update; visit
            // candidates in ascending order (determinism) and drop stale
            // references.
            cands.clear();
            cands.extend_from_slice(rows.get(pr as usize));
            cands.sort_unstable();
            cands.dedup();
            for &j2 in cands.iter() {
                let j2 = j2 as usize;
                if !col_alive[j2] {
                    continue;
                }
                let Ok(pos) = cols.get(j2).binary_search_by_key(&pr, |&(r, _)| r) else {
                    continue; // stale candidate
                };
                let uval = cols.get(j2)[pos].1;
                cols.remove(j2, pos);
                u.push(j2 as u32, uval);
                let mult = uval / pv;
                if mult != 0.0 && !lower.is_empty() {
                    // cols[j2] -= mult · lower, by sorted merge.
                    merged.clear();
                    let c = cols.get(j2);
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
                                rows.push(lr as usize, j2 as u32);
                            }
                            y += 1;
                        }
                    }
                    merged.extend_from_slice(&c[x..]);
                    for &(lr, lv) in &lower[y..] {
                        let nv = -mult * lv;
                        if nv != 0.0 {
                            merged.push((lr, nv));
                            row_count[lr as usize] += 1;
                            rows.push(lr as usize, j2 as u32);
                        }
                    }
                    cols.set(j2, merged);
                }
                match cols.get(j2).len() {
                    // An alive column with no alive rows can never pivot.
                    0 => return Err(SolveError::Singular),
                    1 => singles.push(Reverse(j2 as u32)),
                    _ => {}
                }
            }
            u.close_group();
        }

        // Remap the factors from original indices into elimination
        // positions, sorted so substitution order (and therefore float
        // summation order) is reproducible.
        l.remap_sorted(row_pos, group);
        u.remap_sorted(col_pos, group);
        Ok(())
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
            work: Workspace::default(),
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
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    /// Factors of `basis` from a fresh workspace.
    fn factor(a: &CscMatrix, basis: &[u32]) -> Result<LuFactors, SolveError> {
        let mut lu = LuFactors::identity(0);
        lu.factor(a, basis, 1e-12)?;
        Ok(lu)
    }

    fn check_roundtrip(a: &CscMatrix, basis: &[u32]) {
        let m = basis.len();
        let lu = factor(a, basis).expect("nonsingular");
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
        assert_eq!(factor(&a, &[0, 1]).unwrap_err(), SolveError::Singular);
    }

    #[test]
    fn structurally_singular_detected() {
        let mut b = CscBuilder::new(2);
        b.add_col([(0, 1.0)]);
        b.add_col([(0, 2.0)]);
        let a = b.build();
        assert_eq!(factor(&a, &[0, 1]).unwrap_err(), SolveError::Singular);
    }

    #[test]
    fn empty_basis() {
        let a = CscBuilder::new(0).build();
        let lu = factor(&a, &[]).expect("empty is trivially factored");
        let mut x: Vec<f64> = Vec::new();
        let mut work: Vec<f64> = Vec::new();
        lu.ftran(&[], &mut x, &mut work);
        assert_eq!(lu.l_nnz(), 0);
    }

    /// `k` structural columns over `m` rows, each with a nonzero on its
    /// own row `t` and elsewhere with probability `density`, followed by
    /// the `m` slack columns; and a basis of the structural columns plus
    /// the slacks of rows `k..m`, in shuffled slot order.
    fn random_basis(
        rng: &mut ChaCha8Rng,
        m: usize,
        k: usize,
        density: f64,
    ) -> (CscMatrix, Vec<u32>) {
        let mut b = CscBuilder::new(m);
        for t in 0..k {
            let mut col = Vec::new();
            for r in 0..m {
                if r == t || rng.gen_bool(density) {
                    col.push((r, rng.gen_range(-4.0..4.0) + 5.0 * f64::from(r == t)));
                }
            }
            b.add_col(col);
        }
        for i in 0..m {
            b.add_col([(i, 1.0)]);
        }
        let mut basis: Vec<u32> = (0..k)
            .chain((k..m).map(|i| k + i))
            .map(|i| i as u32)
            .collect();
        for i in (1..m).rev() {
            basis.swap(i, rng.gen_range(0..=i));
        }
        (b.build(), basis)
    }

    /// Everything a factorization determines, as comparable bits: the
    /// permutations, the pivots, both factors, their nonzero counts, and
    /// one FTRAN and one BTRAN.
    fn fingerprint(lu: &LuFactors) -> (String, Vec<u64>, Vec<u64>, usize, usize) {
        let m = lu.m;
        let mut work = vec![0.0; m];
        let b: Vec<f64> = (0..m).map(|i| (i as f64) * 0.7 - 1.3).collect();
        let mut x = vec![0.0; m];
        lu.ftran(&b, &mut x, &mut work);
        let c: Vec<f64> = (0..m).map(|i| 0.4 * (i as f64) + 0.9).collect();
        let mut y = vec![0.0; m];
        lu.btran(&c, &mut y, &mut work);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        // `{:?}` prints every f64 in its shortest round-trip form.
        let factors = format!(
            "{:?} {:?} {:?} {:?} {:?}",
            lu.perm_row, lu.perm_col, lu.u_diag, lu.l, lu.u
        );
        (factors, bits(x), bits(y), lu.l_nnz(), lu.u_nnz())
    }

    #[test]
    fn reused_workspace_matches_a_fresh_factorization() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut reused = LuFactors::identity(0);
        // (m, structural columns, density): sizes grow, shrink and grow
        // again; slack-heavy bases alternate with dense blocks.
        let shapes = [
            (4, 1, 0.5),
            (12, 3, 0.3),
            (30, 30, 1.0),
            (60, 10, 0.1),
            (25, 25, 0.6),
            (8, 2, 1.0),
            (70, 70, 0.05),
            (3, 3, 1.0),
            (40, 20, 0.2),
        ];
        for (step, &(m, k, density)) in shapes.iter().enumerate() {
            let (a, basis) = random_basis(&mut rng, m, k, density);
            if step == 4 {
                // A repeated column makes the basis singular.
                let mut singular = basis.clone();
                singular[1] = singular[0];
                assert_eq!(
                    reused.factor(&a, &singular, 1e-12),
                    Err(SolveError::Singular)
                );
            }
            reused.factor(&a, &basis, 1e-12).expect("nonsingular");
            let fresh = factor(&a, &basis).expect("nonsingular");
            assert_eq!(fingerprint(&reused), fingerprint(&fresh), "basis {step}");
            check_roundtrip(&a, &basis);
        }
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
        let lu = factor(&a, &basis).expect("nonsingular");
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
        let fresh = factor(&a, &new_basis).expect("nonsingular");

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
