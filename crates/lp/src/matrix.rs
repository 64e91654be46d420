//! Compressed sparse column (CSC) matrices.
//!
//! The simplex solver stores the constraint matrix column-major because
//! every hot operation (pricing a column, computing the pivot direction
//! `B⁻¹ aⱼ`) walks one column's nonzeros.

use std::fmt;

/// An immutable sparse matrix in compressed-sparse-column form.
///
/// Built through [`CscBuilder`]; rows within a column are sorted and
/// duplicate entries are coalesced by summation.
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
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
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
/// Work is proportional to the stored nonzeros plus one pass over the
/// dense right-hand side — never `O(m²)`.
#[derive(Clone, Debug, Default)]
pub struct SparseTriangular {
    /// Group boundaries, length `m + 1`.
    ptr: Vec<usize>,
    /// Elimination positions, parallel to `val`.
    idx: Vec<u32>,
    /// Values, parallel to `idx`.
    val: Vec<f64>,
}

impl SparseTriangular {
    /// Builds a factor from per-step groups of `(position, value)`
    /// entries. Every entry of group `k` must satisfy `position > k`;
    /// groups are stored in the order given (callers sort by position
    /// for reproducible floating-point summation order).
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

    /// Number of stored off-diagonal nonzeros.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Number of elimination steps (the factor is `m × m`).
    pub fn dim(&self) -> usize {
        self.ptr.len() - 1
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
        let m = self.dim();
        for k in 0..m {
            if let Some(d) = diag {
                x[k] /= d[k];
            }
            let xk = x[k];
            if xk != 0.0 {
                // INDEX: ptr has dim()+1 entries (CSR invariant), so k+1 is in range for k < dim().
                for (&p, &v) in self.idx[self.ptr[k]..self.ptr[k + 1]]
                    .iter()
                    .zip(&self.val[self.ptr[k]..self.ptr[k + 1]])
                {
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
        let m = self.dim();
        for k in (0..m).rev() {
            let mut acc = x[k];
            // INDEX: ptr has dim()+1 entries (CSR invariant), so k+1 is in range for k < dim().
            for (&p, &v) in self.idx[self.ptr[k]..self.ptr[k + 1]]
                .iter()
                .zip(&self.val[self.ptr[k]..self.ptr[k + 1]])
            {
                acc -= v * x[p as usize];
            }
            x[k] = match diag {
                Some(d) => acc / d[k],
                None => acc,
            };
        }
    }
}

/// Incremental builder for a [`CscMatrix`], filled column by column.
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
        self.current.sort_unstable_by_key(|&(r, _)| r);
        let mut i = 0;
        while i < self.current.len() {
            let (r, mut v) = self.current[i];
            let mut k = i + 1;
            while k < self.current.len() && self.current[k].0 == r {
                v += self.current[k].1;
                k += 1;
            }
            if v != 0.0 {
                self.row_idx.push(r);
                self.values.push(v);
            }
            i = k;
        }
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

    /// Number of completed columns so far.
    pub fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
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
