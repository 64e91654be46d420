//! Compressed sparse column (CSC) matrices.
//!
//! The simplex solver stores its standard-form constraint matrix twice.
//! Column-major, because computing a pivot direction `B⁻¹ aⱼ`, factoring
//! the basis and updating residuals each walk one column's nonzeros. And
//! as its transpose (the same matrix row-major), because pricing needs
//! the whole vector `Aᵀy`: `CscMatrix::mul_vec_into` on the transpose
//! visits only the rows where `yᵢ ≠ 0`, and adds each column's terms in
//! the order `CscMatrix::dot_col` would, so the result is bit-identical
//! to one dot product per column. The dual simplex's pivot row `ρᵀA`,
//! whose `ρ` has a dozen or so nonzeros, goes through
//! `CscMatrix::mul_sparse_into` instead, which adds the same terms in the
//! same order but touches only the columns those rows reach.

use std::fmt;

use crate::factor::SparseVec;

/// An immutable sparse matrix in compressed-sparse-column form.
///
/// Built by [`CscMatrix::from_triplets`]; rows within a column are
/// sorted and duplicate entries are coalesced by summation.
#[derive(Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    #[cfg(any(test, debug_assertions))]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[cfg(test)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The nonzeros of column `j` as parallel `(row, value)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.ncols()`.
    pub fn col(&self, j: usize) -> ColView<'_> {
        let lo = self.col_ptr[j];
        // INDEX: col_ptr has ncols()+1 entries (CSR invariant), so j+1 is in range for j < ncols().
        let hi = self.col_ptr[j + 1];
        ColView {
            rows: &self.row_idx[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Computes `y += alpha * A[:, j]` into a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `y.len() != self.nrows()`.
    pub fn axpy_col(&self, j: usize, alpha: f64, y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows, "dense vector length mismatch");
        let c = self.col(j);
        for (&r, &v) in c.rows.iter().zip(c.values) {
            y[r as usize] += alpha * v;
        }
    }

    /// Sparse dot product of column `j` with a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or `y.len() != self.nrows()`.
    pub fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        assert_eq!(y.len(), self.nrows, "dense vector length mismatch");
        let c = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in c.rows.iter().zip(c.values) {
            acc += v * y[r as usize];
        }
        acc
    }

    /// Builds an `nrows × ncols` matrix from `(row, col, value)`
    /// triplets in one counting pass. Each column sees its triplets in
    /// slice order and then gets exactly `CscBuilder`'s treatment:
    /// zero values dropped, rows sorted, duplicates summed, zero sums
    /// dropped.
    pub(crate) fn from_triplets(nrows: usize, ncols: usize, entries: &[(u32, u32, f64)]) -> Self {
        // start[j]..start[j + 1] will hold column j's triplets.
        let mut start = vec![0usize; ncols + 1];
        for &(r, c, v) in entries {
            debug_assert!((r as usize) < nrows, "row {r} out of range");
            if v != 0.0 {
                // INDEX: start has ncols+1 entries and c < ncols.
                start[c as usize + 1] += 1;
            }
        }
        for j in 0..ncols {
            // INDEX: j+1 <= ncols, within start's ncols+1 entries.
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut scratch = vec![(0u32, 0.0); start[ncols]];
        for &(r, c, v) in entries {
            if v != 0.0 {
                let k = &mut next[c as usize];
                scratch[*k] = (r, v);
                *k += 1;
            }
        }
        let mut m = CscMatrix {
            nrows,
            ncols,
            col_ptr: Vec::with_capacity(ncols + 1),
            row_idx: Vec::with_capacity(scratch.len()),
            values: Vec::with_capacity(scratch.len()),
        };
        m.col_ptr.push(0);
        for w in start.windows(2) {
            coalesce_into(&mut scratch[w[0]..w[1]], &mut m.row_idx, &mut m.values);
            m.col_ptr.push(m.row_idx.len());
        }
        m
    }

    /// Appends one single-entry column per `(row, value)` pair, in
    /// order: unit columns for slacks and artificials.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or a value is zero.
    pub(crate) fn append_unit_cols(&mut self, cols: impl IntoIterator<Item = (usize, f64)>) {
        for (r, v) in cols {
            assert!(r < self.nrows && v != 0.0, "bad unit column ({r}, {v})");
            self.row_idx.push(r as u32);
            self.values.push(v);
            self.col_ptr.push(self.row_idx.len());
            self.ncols += 1;
        }
    }

    /// The transpose, `ncols × nrows`: its column `i` lists row `i` of
    /// `self` with column indices ascending.
    pub(crate) fn transpose(&self) -> CscMatrix {
        let mut col_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.row_idx {
            // INDEX: col_ptr has nrows+1 entries and r < nrows.
            col_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            // INDEX: i+1 <= nrows, within col_ptr's nrows+1 entries.
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for j in 0..self.ncols {
            for (r, v) in self.col(j).iter() {
                let k = &mut next[r];
                row_idx[*k] = j as u32;
                values[*k] = v;
                *k += 1;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Computes `out = self · v`, skipping the columns where `vⱼ = 0`.
    ///
    /// Called on the transpose of `A`, this is `out = Aᵀv` by rows of
    /// `A`: `out[j]` starts at `+0.0` and adds `A[i, j]·vᵢ` for each
    /// nonzero `vᵢ` in ascending `i`, which is the order and the start
    /// value of `A.dot_col(j, v)`. With finite entries the skipped terms
    /// are `±0.0`, and such a sum is never `−0.0` (it starts at `+0.0`,
    /// and exact cancellation rounds to `+0.0`), so adding them never
    /// changes its bits: every `out[j]` equals `A.dot_col(j, v)` bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()` or `out.len() != self.nrows()`.
    pub(crate) fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) {
        assert_eq!(v.len(), self.ncols, "dense vector length mismatch");
        assert_eq!(out.len(), self.nrows, "output length mismatch");
        out.fill(0.0);
        for (j, &vj) in v.iter().enumerate() {
            if vj != 0.0 {
                let c = self.col(j);
                for (&r, &a) in c.rows.iter().zip(c.values) {
                    out[r as usize] += a * vj;
                }
            }
        }
    }

    /// [`Self::mul_vec_into`] for a `v` that is zero outside `v.nz`:
    /// the same terms added in the same order, but only the entries of
    /// `out` they reach are zeroed, written and listed in `out.nz`
    /// (ascending), so the cost is that of the columns `v.nz` names.
    /// Every listed `out[j]` has the bits `mul_vec_into` gives it; the
    /// others are zero.
    ///
    /// # Panics
    ///
    /// Panics if a listed position is out of range or `out` was made for
    /// fewer than `self.nrows()` positions.
    pub(crate) fn mul_sparse_into(&self, v: &SparseVec, out: &mut SparseVec) {
        out.clear();
        for &j in &v.nz {
            let vj = v.val[j as usize];
            if vj != 0.0 {
                for (r, a) in self.col(j as usize).iter() {
                    out.add(r, a * vj);
                }
            }
        }
        out.list_added();
    }
}

/// Sorts one column's `(row, value)` entries by row and appends them to
/// `row_idx`/`values`, summing duplicates and dropping zero sums.
fn coalesce_into(col: &mut [(u32, f64)], row_idx: &mut Vec<u32>, values: &mut Vec<f64>) {
    col.sort_unstable_by_key(|&(r, _)| r);
    let mut i = 0;
    while i < col.len() {
        let (r, mut v) = col[i];
        let mut k = i + 1;
        while k < col.len() && col[k].0 == r {
            v += col[k].1;
            k += 1;
        }
        if v != 0.0 {
            row_idx.push(r);
            values.push(v);
        }
        i = k;
    }
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CscMatrix")
            .field("nrows", &self.nrows)
            .field("ncols", &self.ncols)
            .field("nnz", &self.nnz())
            .finish()
    }
}

/// A borrowed view of one column's nonzeros.
#[derive(Clone, Copy, Debug)]
pub struct ColView<'a> {
    /// Row indices, ascending.
    pub rows: &'a [u32],
    /// Values parallel to `rows`.
    pub values: &'a [f64],
}

impl<'a> ColView<'a> {
    /// Iterates `(row, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.rows
            .iter()
            .zip(self.values)
            .map(|(&r, &v)| (r as usize, v))
    }
}

/// One triangular factor of a sparse LU decomposition, in
/// elimination-position space.
///
/// Only the strict off-diagonal part is stored, grouped by elimination
/// step `k`: group `k` holds `(pos, val)` entries with `pos > k`. For
/// the unit lower factor `L` the groups are its *columns*; for the
/// upper factor `U` (whose diagonal lives in a separate vector) the
/// groups are its *rows*. Both orientations support the two
/// substitutions the simplex FTRAN/BTRAN pair needs:
///
/// * [`SparseTriangular::solve_forward`] — the factor (or its
///   transpose) is lower triangular and the groups are its columns:
///   scatter each resolved component into the positions after it.
/// * [`SparseTriangular::solve_backward`] — the factor (or its
///   transpose) is upper triangular and the groups are its rows:
///   gather each row's sparse dot product, last position first.
///
/// A full substitution is proportional to the stored nonzeros plus one
/// pass over the dense right-hand side — never `O(m²)`. The `_over`
/// variants run the same steps on a caller-given list of positions only
/// (the positions a sparse right-hand side can reach), so their work is
/// proportional to that list and the groups it visits.
#[derive(Debug, Default)]
pub struct SparseTriangular {
    /// Group boundaries, length `m + 1`.
    ptr: Vec<usize>,
    /// Elimination positions, parallel to `val`.
    idx: Vec<u32>,
    /// Values, parallel to `idx`.
    val: Vec<f64>,
}

/// `clone_from` copies into the existing buffers.
impl Clone for SparseTriangular {
    fn clone(&self) -> Self {
        SparseTriangular {
            ptr: self.ptr.clone(),
            idx: self.idx.clone(),
            val: self.val.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.ptr.clone_from(&src.ptr);
        self.idx.clone_from(&src.idx);
        self.val.clone_from(&src.val);
    }
}

impl SparseTriangular {
    /// Builds a factor from per-step groups of `(position, value)`
    /// entries. Every entry of group `k` must satisfy `position > k`;
    /// groups are stored in the order given (callers sort by position
    /// for reproducible floating-point summation order).
    #[cfg(test)]
    pub fn from_groups(groups: Vec<Vec<(u32, f64)>>) -> Self {
        let mut ptr = Vec::with_capacity(groups.len() + 1);
        ptr.push(0usize);
        let total: usize = groups.iter().map(Vec::len).sum();
        let mut idx = Vec::with_capacity(total);
        let mut val = Vec::with_capacity(total);
        for group in &groups {
            for &(p, v) in group {
                idx.push(p);
                val.push(v);
            }
            ptr.push(idx.len());
        }
        SparseTriangular { ptr, idx, val }
    }

    /// Empties the factor for a rebuild, keeping its allocations.
    pub(crate) fn clear(&mut self) {
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
        self.val.clear();
    }

    /// Appends `(position, value)` to the group being built.
    pub(crate) fn push(&mut self, pos: u32, val: f64) {
        self.idx.push(pos);
        self.val.push(val);
    }

    /// Closes the group being built; the next [`Self::push`] starts the
    /// next group.
    pub(crate) fn close_group(&mut self) {
        self.ptr.push(self.idx.len());
    }

    /// Replaces every stored position `p` by `map[p]`, sorts each group
    /// by the new positions (which must be distinct within a group), and
    /// rebuilds `cols` as the transpose of the result: group `p` of
    /// `cols` lists, ascending, the groups holding new position `p`, and
    /// where each such entry now sits. Two counting sorts do both in
    /// `O(nnz + dim)`: the entries into buckets by new position, groups
    /// ascending within each, and back into their groups in bucket
    /// order. `buf` is scratch for the values between the two.
    pub(crate) fn remap_sorted(&mut self, map: &[u32], cols: &mut Pattern, buf: &mut Vec<f64>) {
        let (m, nnz) = (self.dim(), self.nnz());
        // Each bucket's start, then its cursor while filling, so that it
        // ends at the next one's start and shifts back one bucket.
        cols.ptr.clear();
        cols.ptr.resize(m + 1, 0);
        for &p in &self.idx {
            // INDEX: every mapped position is < dim, within ptr's dim + 1 entries.
            cols.ptr[map[p as usize] as usize + 1] += 1;
        }
        for p in 0..m {
            // INDEX: p + 1 <= dim, within ptr's dim + 1 entries.
            cols.ptr[p + 1] += cols.ptr[p];
        }
        cols.idx.clear();
        cols.idx.resize(nnz, 0);
        buf.clear();
        buf.resize(nnz, 0.0);
        for k in 0..m {
            // INDEX: ptr has dim + 1 entries (CSR invariant), so k + 1 is in range for k < dim.
            for e in self.ptr[k]..self.ptr[k + 1] {
                let next = &mut cols.ptr[map[self.idx[e] as usize] as usize];
                cols.idx[*next] = k as u32;
                buf[*next] = self.val[e];
                *next += 1;
            }
        }
        cols.ptr.copy_within(0..m, 1);
        cols.ptr[0] = 0;
        // The same for the groups, whose sizes stay as they are.
        cols.at.clear();
        cols.at.resize(nnz, 0);
        for p in 0..m {
            // INDEX: ptr has dim + 1 entries, so p + 1 is in range for p < dim.
            let (lo, hi) = (cols.ptr[p], cols.ptr[p + 1]);
            let bucket = cols.idx[lo..hi].iter().zip(&buf[lo..hi]);
            for ((&k, &v), at) in bucket.zip(&mut cols.at[lo..hi]) {
                let next = &mut self.ptr[k as usize];
                self.idx[*next] = p as u32;
                self.val[*next] = v;
                *at = *next as u32;
                *next += 1;
            }
        }
        self.ptr.copy_within(0..m, 1);
        self.ptr[0] = 0;
    }

    /// Whether this factor and `other` store the same entries, bit for
    /// bit.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn same_bits(&self, other: &Self) -> bool {
        self.ptr == other.ptr
            && self.idx == other.idx
            && self.val.len() == other.val.len()
            && self
                .val
                .iter()
                .zip(&other.val)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Number of stored off-diagonal nonzeros.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Number of elimination steps (the factor is `m × m`).
    pub fn dim(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Group `k`'s positions.
    pub(crate) fn positions(&self, k: usize) -> &[u32] {
        // INDEX: ptr has dim()+1 entries (CSR invariant), so k+1 is in range for k < dim().
        &self.idx[self.ptr[k]..self.ptr[k + 1]]
    }

    /// In-place forward substitution: solves `T x = b` where `T` is
    /// lower triangular, `b` arrives in `x`, the groups are `T`'s
    /// columns, and the diagonal is `diag` (unit when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `x` (or a supplied `diag`) is shorter than
    /// [`SparseTriangular::dim`].
    pub fn solve_forward(&self, diag: Option<&[f64]>, x: &mut [f64]) {
        self.forward(0..self.dim(), diag, x);
    }

    /// [`Self::solve_forward`]'s steps at `steps` only, in the order
    /// given. With `steps` ascending and holding every position that
    /// can become nonzero, every such position gets the bits the full
    /// substitution gives it; the others are left untouched.
    pub(crate) fn solve_forward_over(&self, steps: &[u32], diag: Option<&[f64]>, x: &mut [f64]) {
        self.forward(steps.iter().map(|&k| k as usize), diag, x);
    }

    /// Forward substitution steps, in the order given: resolve position
    /// `k`, then scatter it into the positions after it.
    fn forward(&self, steps: impl Iterator<Item = usize>, diag: Option<&[f64]>, x: &mut [f64]) {
        for k in steps {
            if let Some(d) = diag {
                x[k] /= d[k];
            }
            let xk = x[k];
            if xk != 0.0 {
                // INDEX: ptr has dim()+1 entries (CSR invariant), so k+1 is in range for k < dim().
                let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
                for (&p, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
                    x[p as usize] -= v * xk;
                }
            }
        }
    }

    /// In-place backward substitution: solves `T x = b` where `T` is
    /// upper triangular, `b` arrives in `x`, the groups are `T`'s rows,
    /// and the diagonal is `diag` (unit when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `x` (or a supplied `diag`) is shorter than
    /// [`SparseTriangular::dim`].
    pub fn solve_backward(&self, diag: Option<&[f64]>, x: &mut [f64]) {
        self.backward((0..self.dim()).rev(), diag, x);
    }

    /// [`Self::solve_backward`]'s steps at `steps` only, last listed
    /// first. With `steps` ascending and holding every position that can
    /// become nonzero, every such position gets the bits the full
    /// substitution gives it; the others are left untouched.
    pub(crate) fn solve_backward_over(&self, steps: &[u32], diag: Option<&[f64]>, x: &mut [f64]) {
        self.backward(steps.iter().rev().map(|&k| k as usize), diag, x);
    }

    /// Backward substitution steps, in the order given: gather row `k`'s
    /// sparse dot product into position `k`.
    fn backward(&self, steps: impl Iterator<Item = usize>, diag: Option<&[f64]>, x: &mut [f64]) {
        for k in steps {
            let acc = self.gather_group(k, x[k], x);
            x[k] = match diag {
                Some(d) => acc / d[k],
                None => acc,
            };
        }
    }

    /// `acc` less `v·x[p]` for each entry `(p, v)` of group `k`, in
    /// stored order: one step of [`Self::solve_backward`] before its
    /// division by the diagonal.
    pub(crate) fn gather_group(&self, k: usize, mut acc: f64, x: &[f64]) -> f64 {
        // INDEX: ptr has dim()+1 entries (CSR invariant), so k+1 is in range for k < dim().
        let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
        for (&p, &v) in self.idx[lo..hi].iter().zip(&self.val[lo..hi]) {
            acc -= v * x[p as usize];
        }
        acc
    }

    /// Step `p` of [`Self::solve_forward`] as a gather over `cols`, the
    /// transpose [`Self::remap_sorted`] built: `acc` less `v·x[k]` for each
    /// stored entry `v` at `(k, p)` whose `x[k] != 0.0`, in ascending
    /// `k`. These are the subtractions the forward scatter makes at
    /// position `p`, zeros skipped alike and in the same order, so with
    /// `acc` the right-hand side at `p` the result has the bits `x[p]`
    /// holds there just before the division by the diagonal.
    pub(crate) fn gather_transposed(
        &self,
        cols: &Pattern,
        p: usize,
        mut acc: f64,
        x: &[f64],
    ) -> f64 {
        // INDEX: ptr has dim+1 entries, so p+1 is in range for p < dim.
        let (lo, hi) = (cols.ptr[p], cols.ptr[p + 1]);
        for (&k, &at) in cols.idx[lo..hi].iter().zip(&cols.at[lo..hi]) {
            let xk = x[k as usize];
            if xk != 0.0 {
                acc -= self.val[at as usize] * xk;
            }
        }
        acc
    }
}

/// The positions of a [`SparseTriangular`] regrouped the other way:
/// group `p` lists, ascending, every group `k` of the source that holds
/// position `p`, and where that entry sits in the source's arrays. For
/// the upper factor `U`, stored by rows, these are its columns, whose
/// values [`SparseTriangular::gather_transposed`] reads through those
/// places; for the unit lower factor `L`, stored by columns, they are
/// its rows' patterns.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Pattern {
    /// Group boundaries, length `dim + 1`.
    ptr: Vec<usize>,
    /// Source group indices, ascending within each group.
    idx: Vec<u32>,
    /// Each entry's index into the source's `idx`/`val`, parallel to
    /// `idx`.
    at: Vec<u32>,
}

/// `clone_from` copies into the existing buffers.
impl Clone for Pattern {
    fn clone(&self) -> Self {
        Pattern {
            ptr: self.ptr.clone(),
            idx: self.idx.clone(),
            at: self.at.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.ptr.clone_from(&src.ptr);
        self.idx.clone_from(&src.idx);
        self.at.clone_from(&src.at);
    }
}

impl Pattern {
    /// Group `p`.
    pub(crate) fn group(&self, p: usize) -> &[u32] {
        // INDEX: ptr has dim+1 entries, so p+1 is in range for p < dim.
        &self.idx[self.ptr[p]..self.ptr[p + 1]]
    }
}

/// Incremental builder for a [`CscMatrix`], filled column by column: the
/// reference [`CscMatrix::from_triplets`] is tested against.
#[cfg(test)]
#[derive(Clone, Debug, Default)]
pub struct CscBuilder {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
    /// Scratch for sorting/coalescing the column being built.
    current: Vec<(u32, f64)>,
    open: bool,
}

#[cfg(test)]
impl CscBuilder {
    /// Creates a builder for a matrix with `nrows` rows and no columns yet.
    pub fn new(nrows: usize) -> Self {
        CscBuilder {
            nrows,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            values: Vec::new(),
            current: Vec::new(),
            open: false,
        }
    }

    /// Begins a new column. Must be matched by [`CscBuilder::finish_col`].
    ///
    /// # Panics
    ///
    /// Panics if a column is already open.
    pub fn start_col(&mut self) {
        assert!(!self.open, "previous column not finished");
        self.open = true;
        self.current.clear();
    }

    /// Adds an entry to the open column. Zero values are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no column is open or `row` is out of range.
    pub fn push(&mut self, row: usize, value: f64) {
        assert!(self.open, "no open column");
        assert!(row < self.nrows, "row {row} out of range");
        if value != 0.0 {
            self.current.push((row as u32, value));
        }
    }

    /// Finishes the open column, sorting and coalescing duplicates.
    pub fn finish_col(&mut self) {
        assert!(self.open, "no open column");
        self.open = false;
        coalesce_into(&mut self.current, &mut self.row_idx, &mut self.values);
        self.col_ptr.push(self.row_idx.len());
    }

    /// Convenience: appends a whole column from `(row, value)` pairs.
    pub fn add_col<I: IntoIterator<Item = (usize, f64)>>(&mut self, entries: I) {
        self.start_col();
        for (r, v) in entries {
            self.push(r, v);
        }
        self.finish_col();
    }

    /// Finalizes the matrix.
    ///
    /// # Panics
    ///
    /// Panics if a column is still open.
    pub fn build(self) -> CscMatrix {
        assert!(!self.open, "column still open");
        CscMatrix {
            nrows: self.nrows,
            ncols: self.col_ptr.len() - 1,
            col_ptr: self.col_ptr,
            row_idx: self.row_idx,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        let mut b = CscBuilder::new(2);
        b.add_col([(0, 1.0)]);
        b.add_col([(1, 3.0)]);
        b.add_col([(0, 2.0)]);
        b.build()
    }

    #[test]
    fn dims_and_nnz() {
        let m = sample();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn col_view() {
        let m = sample();
        let c = m.col(2);
        assert_eq!(c.rows, &[0]);
        assert_eq!(c.values, &[2.0]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![(0, 2.0)]);
    }

    #[test]
    fn duplicates_coalesce() {
        let mut b = CscBuilder::new(3);
        b.add_col([(2, 1.0), (0, 4.0), (2, 2.5)]);
        let m = b.build();
        let c = m.col(0);
        assert_eq!(c.rows, &[0, 2]);
        assert_eq!(c.values, &[4.0, 3.5]);
    }

    #[test]
    fn zeros_dropped() {
        let mut b = CscBuilder::new(2);
        b.add_col([(0, 0.0), (1, 1.0)]);
        b.add_col([(0, 2.0), (0, -2.0)]);
        let m = b.build();
        assert_eq!(m.col(0).rows, &[1]);
        assert_eq!(m.nnz(), 1, "exact cancellation is removed");
    }

    #[test]
    fn axpy_and_dot() {
        let m = sample();
        let mut y = vec![1.0, 1.0];
        m.axpy_col(1, 2.0, &mut y);
        assert_eq!(y, vec![1.0, 7.0]);
        assert_eq!(m.dot_col(0, &y), 1.0);
        assert_eq!(m.dot_col(1, &y), 21.0);
    }

    #[test]
    fn from_triplets_matches_the_builder() {
        // Duplicates, zeros, an exact cancellation and an empty column.
        let entries = [
            (2, 0, 1.5),
            (0, 2, 4.0),
            (1, 0, 0.0),
            (0, 0, -1.0),
            (2, 0, 2.5),
            (1, 2, 3.0),
            (1, 2, -3.0),
            (0, 3, 7.0),
        ];
        let mut b = CscBuilder::new(3);
        for j in 0..4u32 {
            b.add_col(
                entries
                    .iter()
                    .filter(|e| e.1 == j)
                    .map(|&(r, _, v)| (r as usize, v)),
            );
        }
        let m = CscMatrix::from_triplets(3, 4, &entries);
        assert_eq!(m, b.build());
        assert_eq!(m.col(0).values, &[-1.0, 4.0]);
        assert_eq!(m.col(1).rows.len(), 0);
        assert_eq!(m.col(2).rows, &[0]);
    }

    #[test]
    fn unit_columns_and_transpose() {
        let mut m = sample();
        m.append_unit_cols([(1, 1.0), (0, -1.0)]);
        assert_eq!(m.ncols(), 5);
        assert_eq!(m.col(4).iter().collect::<Vec<_>>(), vec![(0, -1.0)]);
        let t = m.transpose();
        assert_eq!((t.nrows(), t.ncols()), (5, 2));
        assert_eq!(t.col(0).rows, &[0, 2, 4]);
        assert_eq!(t.col(1).values, &[3.0, 1.0]);
        assert_eq!(t.transpose(), m);
        let mut out = vec![0.0; 5];
        t.mul_vec_into(&[2.0, -0.0], &mut out);
        assert_eq!(out, vec![2.0, 0.0, 4.0, 0.0, -2.0]);
        for (j, o) in out.iter().enumerate() {
            assert_eq!(o.to_bits(), m.dot_col(j, &[2.0, -0.0]).to_bits());
        }
    }

    #[test]
    fn remap_sorted_orders_each_group_and_builds_the_transpose() {
        // Groups by slot; `map` sends slot s to position map[s], and each
        // group arrives out of position order.
        let map = [2, 0, 3, 1];
        let mut t = SparseTriangular::from_groups(vec![
            vec![(2, 0.5), (0, 1.5), (3, 2.5)],
            vec![(2, -2.0), (0, -1.0)],
            vec![(2, 4.0)],
            vec![],
        ]);
        let (mut cols, mut buf) = (Pattern::default(), Vec::new());
        t.remap_sorted(&map, &mut cols, &mut buf);
        assert_eq!(t.ptr, [0, 3, 5, 6, 6]);
        assert_eq!(t.idx, [1, 2, 3, 2, 3, 3]);
        assert_eq!(t.val, [2.5, 1.5, 0.5, -1.0, -2.0, 4.0]);
        assert_eq!(cols.ptr, [0, 0, 1, 3, 6]);
        assert_eq!(cols.idx, [0, 0, 1, 0, 1, 2]);
        assert_eq!(cols.at, [0, 1, 3, 2, 4, 5]);
    }

    #[test]
    fn empty_columns() {
        let mut b = CscBuilder::new(2);
        b.add_col([]);
        b.add_col([(1, 5.0)]);
        let m = b.build();
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.col(0).rows.len(), 0);
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn out_of_range_row_panics() {
        let mut b = CscBuilder::new(2);
        b.start_col();
        b.push(5, 1.0);
    }
}
