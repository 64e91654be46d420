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
//! numerical stability — and then answers both maps with sparse
//! triangular substitutions. A dense right-hand side costs
//! `O(nnz(L) + nnz(U) + m)`: the basic values are such solves, and so is
//! the first duals solve after each refactorization.
//!
//! The pivot direction `w = B⁻¹ a_q` is **hypersparse**: its right-hand
//! side is one matrix column with a handful of nonzeros, and on the
//! RL-SPM/BL-SPM bases `w` itself has a few dozen nonzeros out of
//! hundreds of rows. [`LuFactors::ftran_col`] therefore solves only
//! where a nonzero can arise (Gilbert–Peierls): it scatters the column
//! into elimination-step space, closes that set of steps under `L`'s
//! column pattern, runs the forward substitution over the closure in
//! ascending order, closes the result under `U`'s column pattern (kept
//! per factorization in [`Pattern`]), and runs `U`'s unchanged row
//! gathers over it in descending order. Each reached position sees the
//! same floating-point operations in the same order as in the dense
//! solve, so its value is bit-identical; see [`SparseVec`] for why the
//! zeros left unwritten change nothing.
//!
//! The duals `y = B⁻ᵀc_B` are solved **incrementally**. A pivot changes
//! `c_B` in one slot, and after the eta file's BTRAN the LU solve's
//! right-hand side differs from the previous one in a few entries (1.7%
//! on the SUB-B4 K=400 anchor). [`LuFactors::btran_duals`] keeps the
//! last solve by elimination step (its right-hand side, its values after
//! the `U` stage and its final values) and redoes only the steps whose
//! inputs changed bits. The `U` stage runs over a bit set in ascending
//! order; step `p` gathers `U`'s column `p` through [`Pattern`], and a
//! new value marks the steps of `U`'s row `p`. The `L` stage then runs
//! descending; step `k` gathers `L`'s column `k`, and a new value marks
//! the steps of `L`'s row `k`. Each gather applies its terms in the
//! order the dense scatter does and skips the same zeros, and a step
//! whose inputs kept their bits keeps its own, so `y` is bit-identical
//! to the dense [`LuFactors::btran`], which stays as the oracle the debug
//! builds check every duals solve against.
//!
//! The dual simplex's row `ρ = B⁻ᵀe_r` is hypersparse too: on the
//! `online_b4_warm` workload's warm bases it has about 13 nonzeros out
//! of about 340 rows. [`LuFactors::btran_sparse`] mirrors the sparse FTRAN
//! with the factors' roles swapped: it closes the steps of its
//! right-hand side's nonzeros under `U`'s row pattern and runs the
//! forward substitution of `Uᵀ` (a scatter) over them in ascending
//! order, then closes the result under `L`'s row pattern and runs `Lᵀ`'s
//! gathers over it in descending order. Each reached step sees the dense
//! BTRAN's operations in its order, so every nonzero of `ρ` is
//! bit-identical to [`LuFactors::btran`]'s.
//!
//! Pivot selection is **deterministic**: singleton columns are consumed
//! smallest-index-first, and the Markowitz scan breaks merit ties by
//! `(column, row)` index. Identical bases therefore always produce
//! identical factors, bit for bit, independent of thread count or
//! allocation history.
//!
//! A refactorization starts with a **singleton peel**. The simplex's
//! bases are nearly triangular: most basic columns are slacks, and most
//! structural ones become singletons once the slacks' rows are gone. On
//! the `online_b4_warm` workload's bases (m ≈ 440, nnz(B) ≈ 1,580) the
//! peel takes 99% of the elimination steps, and one refactorization in
//! six reaches a step it cannot take. While some column has one entry
//! left in the rows not yet eliminated, pivoting on it changes no value:
//! the other columns only give up their entries in its row to `U`. So
//! the peel works on the basis columns as they stand, with a by-row
//! index of them (one counting sort), each column's count of live
//! entries, and the waiting singletons in a bit set, taken smallest slot
//! first; a singleton joining below the set's cursor moves the cursor
//! back. At the first step with no admissible singleton it **hands
//! over**: the general elimination builds its active submatrix from the
//! columns still alive, less the rows already eliminated, and runs the
//! Markowitz loop from that step on, singletons still first. The peel
//! takes the pivots the general elimination would take from the first
//! step, in the same order and from the same values, so the factors are
//! bit-identical; debug builds check every refactorization against the
//! general elimination run from the first step. On those bases a
//! refactorization took about 155 µs with the general elimination alone
//! and takes about 65 µs with the peel: about 45 µs in the peel, a
//! third of it building the by-row index, and 20 µs ordering `U`.
//!
//! A refactorization allocates nothing per column, row or elimination
//! step. [`LuFactors`] owns a workspace that every refactorization
//! reuses, across the solves of one problem too, since a solve leaves
//! its factors' buffers behind for the next one (see
//! `crate::simplex::SolveWorkspace`): the by-row index, the active
//! submatrix and the row → column lists live in flat arenas (a list that
//! outgrows its room moves to the arena's end), and `L` and `U` are
//! written straight into their flat arrays. At the end two counting
//! sorts order each factor, one into buckets by the elimination step of
//! each entry's position and one back into its groups, and so build
//! `U`'s column patterns and `L`'s row patterns in the same passes.
//! Buffers grow only when a basis needs more room than any before it; a
//! workspace that has seen other bases, or a singular one, gives the
//! same factors as a fresh one.
//!
//! Between refactorizations the basis changes one column per pivot, and
//! a **product-form** eta file ([`EtaFile`]) absorbs each change: with
//! entering direction `w = B⁻¹ a_q` replacing slot `r`, the new basis is
//! `B' = B·E` where `E` is the identity with column `r` replaced by `w`.
//! FTRAN applies `E⁻¹` oldest-to-newest after the LU solve; BTRAN
//! applies `E⁻ᵀ` newest-to-oldest before it. The file is one arena: a
//! slot, a pivot and an entry span per update, and the off-pivot
//! nonzeros of all `w`s in fixed blocks that a refactorization empties
//! without freeing. It grows by `nnz(w)` per pivot until the simplex's
//! fixed refactorization cadence (every 300 pivots) refactorizes and
//! clears it. Its sparse FTRAN ([`EtaFile::ftran_sparse`]) visits an
//! update's entries only when the update's pivot slot is nonzero, and
//! tracks the nonzeros it creates.

use crate::error::SolveError;
use crate::matrix::{ColView, CscMatrix, Pattern, SparseTriangular};

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
///
/// A clone copies the factors only: it starts with an empty workspace
/// and a cold duals cache. `clone_from` copies them into this value's
/// buffers and keeps its workspace, which changes no result.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// `perm_row[k]` = constraint row eliminated at step `k`.
    perm_row: Vec<u32>,
    /// `row_step[r]` = step at which constraint row `r` is eliminated
    /// (the inverse of `perm_row`).
    row_step: Vec<u32>,
    /// `perm_col[k]` = basis slot eliminated at step `k`.
    perm_col: Vec<u32>,
    /// `slot_step[s]` = step at which basis slot `s` is eliminated (the
    /// inverse of `perm_col`).
    slot_step: Vec<u32>,
    /// Unit lower factor; group `k` is column `k` (positions `> k`).
    l: SparseTriangular,
    /// Strict upper factor; group `k` is row `k` (positions `> k`).
    u: SparseTriangular,
    /// `U`'s column patterns: group `p` lists the rows `k < p` with a
    /// stored `U[k, p]`, and where each sits in `u`.
    u_cols: Pattern,
    /// `L`'s row patterns: group `p` lists the columns `k < p` with a
    /// stored `L[p, k]`.
    l_rows: Pattern,
    /// Diagonal of `U` (the pivots), by elimination step.
    u_diag: Vec<f64>,
    /// The last [`Self::btran_duals`] solve of these factors.
    duals: DualsCache,
    work: Workspace,
}

/// The last duals solve `Bᵀy = c` of [`LuFactors::btran_duals`], by
/// elimination step, and the steps its next solve must redo.
///
/// A clone starts cold: it answers to a different caller, whose `y`
/// buffer does not hold this solve's output.
#[derive(Debug, Default)]
struct DualsCache {
    /// Whether the vectors below hold a solve of the current factors.
    warm: bool,
    /// The permuted right-hand side, `c[perm_col[k]]` at step `k`.
    rhs: Vec<f64>,
    /// The values after the `U` stage (the solve of `Uᵀ`).
    mid: Vec<f64>,
    /// The final values, written to `y[perm_row[k]]`.
    out: Vec<f64>,
    /// `U`-stage and `L`-stage steps to redo; empty between solves.
    u_todo: BitSet,
    l_todo: BitSet,
}

impl Clone for DualsCache {
    fn clone(&self) -> Self {
        DualsCache::default()
    }
}

impl Clone for LuFactors {
    fn clone(&self) -> Self {
        let mut copy = LuFactors::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, src: &Self) {
        self.m = src.m;
        self.perm_row.clone_from(&src.perm_row);
        self.row_step.clone_from(&src.row_step);
        self.perm_col.clone_from(&src.perm_col);
        self.slot_step.clone_from(&src.slot_step);
        self.l.clone_from(&src.l);
        self.u.clone_from(&src.u);
        self.u_cols.clone_from(&src.u_cols);
        self.l_rows.clone_from(&src.l_rows);
        self.u_diag.clone_from(&src.u_diag);
        self.duals.warm = false;
    }
}

/// The elimination's working state, kept between refactorizations so
/// that a refactorization allocates only when some buffer has to grow.
#[derive(Clone, Debug, Default)]
struct Workspace {
    /// The basis by rows, for the peel: row `r`'s `(slot, value)`
    /// entries, slots ascending, are `by_row[row_start[r]..row_start[r + 1]]`.
    row_start: Vec<usize>,
    by_row: Vec<(u32, f64)>,
    /// Entries of each slot's column in rows not yet eliminated, during
    /// the peel.
    col_live: Vec<u32>,
    /// Active submatrix of the general elimination: list `j` is slot
    /// `j`'s column, rows ascending.
    cols: Lists<(u32, f64)>,
    /// Row → candidate columns (lazy: may hold stale references that are
    /// filtered by a membership check before use).
    rows: Lists<u32>,
    /// Active nonzeros per row.
    row_count: Vec<usize>,
    col_alive: Vec<bool>,
    /// Singleton columns waiting to pivot, taken smallest slot first.
    pending: BitSet,
    /// The pivot column without its pivot entry.
    lower: Vec<(u32, f64)>,
    /// One updated column, built by merge.
    merged: Vec<(u32, f64)>,
    /// The columns holding the pivot row.
    cands: Vec<u32>,
    /// Scratch for the counting sorts that order the factors.
    sorted: Vec<f64>,
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

/// `row_step` of a row not yet eliminated.
const LIVE: u32 = u32::MAX;

impl LuFactors {
    /// Factors the basis `B` whose slot `i` is column `basis[i]` of `a`,
    /// replacing the current factors and reusing their buffers: the
    /// singleton peel, then the general elimination from the first step
    /// the peel could not take (see the module docs).
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
        self.reset(basis.len());
        let result = self
            .peel(a, basis, abs_tol)
            .and_then(|()| self.eliminate(a, basis, abs_tol));
        #[cfg(debug_assertions)]
        {
            let mut general = LuFactors::default();
            let want = general.factor_general(a, basis, abs_tol);
            assert_eq!(
                result, want,
                "the singleton peel and the general elimination end differently"
            );
            assert!(
                result.is_err() || self.same_factors(&general),
                "the singleton peel's factors differ from the general elimination's"
            );
        }
        result
    }

    /// [`Self::factor`] without the peel: the general elimination from
    /// the first step, the oracle the peel is checked against.
    #[cfg(any(test, debug_assertions))]
    fn factor_general(
        &mut self,
        a: &CscMatrix,
        basis: &[u32],
        abs_tol: f64,
    ) -> Result<(), SolveError> {
        self.reset(basis.len());
        self.eliminate(a, basis, abs_tol)
    }

    /// Whether these factors and `other` are the same, bit for bit.
    #[cfg(any(test, debug_assertions))]
    fn same_factors(&self, other: &Self) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.perm_row == other.perm_row
            && self.perm_col == other.perm_col
            && bits(&self.u_diag) == bits(&other.u_diag)
            && self.l.same_bits(&other.l)
            && self.u.same_bits(&other.u)
            && self.u_cols == other.u_cols
            && self.l_rows == other.l_rows
    }

    /// Empties the factors for a basis of dimension `m`, with every row
    /// and column still to eliminate.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.duals.warm = false;
        self.perm_row.clear();
        self.perm_col.clear();
        self.u_diag.clear();
        self.l.clear();
        self.u.clear();
        self.row_step.clear();
        self.row_step.resize(m, LIVE);
        self.slot_step.clear();
        self.slot_step.resize(m, 0);
        self.work.col_alive.clear();
        self.work.col_alive.resize(m, true);
    }

    /// The elimination's leading singleton steps, taken on the basis
    /// columns as they stand (see the module docs). A singleton below
    /// `abs_tol` is left alive for the general elimination's scan.
    /// Returns when no admissible singleton is left.
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] when a column loses its last entry.
    fn peel(&mut self, a: &CscMatrix, basis: &[u32], abs_tol: f64) -> Result<(), SolveError> {
        let m = basis.len();
        let LuFactors {
            perm_row,
            row_step,
            perm_col,
            slot_step,
            l,
            u,
            u_diag,
            work,
            ..
        } = self;
        let Workspace {
            row_start,
            by_row,
            col_live,
            col_alive,
            pending,
            ..
        } = work;
        // The basis by rows, by counting sort: count, then fill each
        // row from its start, then shift the ends back to starts.
        row_start.clear();
        row_start.resize(m + 1, 0);
        col_live.clear();
        pending.reset(m);
        for (j, &bj) in basis.iter().enumerate() {
            let rows = a.col(bj as usize).rows;
            for &r in rows {
                // INDEX: r < m, and row_start has m + 1 entries.
                row_start[r as usize + 1] += 1;
            }
            col_live.push(rows.len() as u32);
            if rows.len() == 1 {
                pending.insert(j);
            }
        }
        for r in 0..m {
            // INDEX: r + 1 <= m, within row_start's m + 1 entries.
            row_start[r + 1] += row_start[r];
        }
        by_row.clear();
        by_row.resize(row_start[m], (0, 0.0));
        for (j, &bj) in basis.iter().enumerate() {
            for (r, v) in a.col(bj as usize).iter() {
                let next = &mut row_start[r];
                by_row[*next] = (j as u32, v);
                *next += 1;
            }
        }
        row_start.copy_within(0..m, 1);
        row_start[0] = 0;

        let mut cursor = 0;
        while let Some(j) = pending.pop_min(&mut cursor) {
            let live = a
                .col(basis[j] as usize)
                .iter()
                .find(|&(r, _)| row_step[r] == LIVE);
            let Some((pr, pv)) = live.filter(|&(_, v)| v.abs() >= abs_tol) else {
                continue; // numerically unusable: left to the scan
            };
            let k = perm_col.len() as u32;
            perm_col.push(j as u32);
            perm_row.push(pr as u32);
            slot_step[j] = k;
            row_step[pr] = k;
            col_alive[j] = false;
            u_diag.push(pv);
            l.close_group();
            // INDEX: pr < m, and row_start has m + 1 entries.
            for &(j2, v) in &by_row[row_start[pr]..row_start[pr + 1]] {
                let j2 = j2 as usize;
                if !col_alive[j2] {
                    continue;
                }
                u.push(j2 as u32, v);
                col_live[j2] -= 1;
                match col_live[j2] {
                    0 => return Err(SolveError::Singular),
                    1 => pending.insert_lowering(j2, &mut cursor),
                    _ => {}
                }
            }
            u.close_group();
        }
        Ok(())
    }

    /// The general elimination, from the first step not yet taken to the
    /// last: builds the active submatrix (the columns still alive, less
    /// the rows already eliminated) and its row lists, queues its
    /// singleton columns, and runs the Markowitz loop. Then orders both
    /// factors by elimination position.
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] when some step has no admissible pivot.
    fn eliminate(&mut self, a: &CscMatrix, basis: &[u32], abs_tol: f64) -> Result<(), SolveError> {
        let m = basis.len();
        let LuFactors {
            perm_row,
            row_step,
            perm_col,
            slot_step,
            l,
            u,
            u_cols,
            l_rows,
            u_diag,
            work,
            ..
        } = self;
        let Workspace {
            cols,
            rows,
            row_count,
            col_alive,
            pending,
            lower,
            merged,
            cands,
            sorted,
            ..
        } = work;
        let first = perm_col.len();
        if first < m {
            cols.clear();
            row_count.clear();
            row_count.resize(m, 0);
            pending.reset(m);
            for (j, &bj) in basis.iter().enumerate() {
                let c = a.col(bj as usize);
                if !col_alive[j] {
                    cols.add(0);
                    continue;
                }
                cols.add(c.rows.len());
                for (r, v) in c.iter().filter(|&(r, _)| row_step[r] == LIVE) {
                    cols.push(j, (r as u32, v));
                    row_count[r] += 1;
                }
                if cols.get(j).len() == 1 {
                    pending.insert(j);
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
        }

        let mut cursor = 0;
        for k in first..m {
            // --- Pivot selection ---------------------------------------
            let mut pick: Option<(usize, usize)> = None; // (col, entry index)
            while let Some(j) = pending.pop_min(&mut cursor) {
                if col_alive[j] {
                    if let [(_, v)] = cols.get(j) {
                        if v.abs() >= abs_tol {
                            pick = Some((j, 0));
                            break;
                        }
                    }
                }
                // Numerically unusable: leave it to the scan.
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
            slot_step[pj] = k as u32;
            row_step[pr as usize] = k as u32;
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
                    1 => pending.insert_lowering(j2, &mut cursor),
                    _ => {}
                }
            }
            u.close_group();
        }

        l.remap_sorted(row_step, l_rows, sorted);
        u.remap_sorted(slot_step, u_cols, sorted);
        Ok(())
    }

    /// Moves these factors out, leaving an empty factorization that
    /// keeps the elimination workspace and the duals cache for the next
    /// [`Self::factor`]. The factors taken carry neither: they are the
    /// part worth keeping once the solve that built them is over.
    pub(crate) fn take_factors(&mut self) -> Self {
        self.duals.warm = false;
        let rest = LuFactors {
            duals: std::mem::take(&mut self.duals),
            work: std::mem::take(&mut self.work),
            ..LuFactors::default()
        };
        std::mem::replace(self, rest)
    }

    /// Nonzeros stored in the `L` factor (off-diagonal).
    pub(crate) fn l_nnz(&self) -> usize {
        self.l.nnz()
    }

    /// Nonzeros stored in the `U` factor (including the diagonal).
    pub(crate) fn u_nnz(&self) -> usize {
        self.u.nnz() + self.u_diag.len()
    }

    /// FTRAN: solves `B x = b` for a dense `b`, reading `b` in
    /// constraint-row space and writing `x` in basis-slot space. `work`
    /// is caller-owned scratch of length `m`. A sparse `b` goes through
    /// [`Self::ftran_col`].
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

    /// Sparse FTRAN of one matrix column: solves `B w = a` for the
    /// column `a` (row space) into `w` (slot space), touching only the
    /// elimination steps a nonzero can reach (see the module docs).
    /// Every value this writes is bit-identical to [`Self::ftran`]'s on
    /// the dense copy of `a`; the slots it does not write hold zero.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a row outside the basis dimension or `w` was
    /// made for a smaller one.
    pub(crate) fn ftran_col(&self, a: ColView<'_>, w: &mut SparseVec) {
        w.clear_for_solve(self.m);
        let SparseVec {
            val,
            nz,
            x,
            seen,
            reach,
        } = w;
        // Scatter `a` into step space; its steps seed the closure.
        for (r, v) in a.iter() {
            let k = self.row_step[r] as usize;
            x[k] = v;
            seen.insert(k);
            reach.push(k as u32);
        }
        close(reach, seen, |k| self.l.positions(k));
        seen.list(reach);
        self.l.solve_forward_over(reach, None, x);
        close(reach, seen, |p| self.u_cols.group(p));
        seen.drain(reach, |_| true);
        self.u.solve_backward_over(reach, Some(&self.u_diag), x);
        for &k in reach.iter() {
            let k = k as usize;
            let slot = self.perm_col[k] as usize;
            val[slot] = x[k];
            if x[k] != 0.0 {
                seen.insert(slot);
            }
            x[k] = 0.0;
        }
        reach.clear();
        seen.drain(nz, |_| true);
    }

    /// BTRAN: solves `Bᵀ y = c`, reading `c` in basis-slot space and
    /// writing `y` in constraint-row space. `work` is caller-owned
    /// scratch of length `m`. The dense reference that debug builds check
    /// [`Self::btran_duals`] and [`Self::btran_sparse`] against.
    ///
    /// # Panics
    ///
    /// Panics if any argument is shorter than the basis dimension.
    #[cfg(any(test, debug_assertions))]
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

    /// Sparse BTRAN: solves `Bᵀ y = c` for a `c` (slot space) whose
    /// nonzeros all lie at `slots`, into `y` (row space), touching only
    /// the elimination steps a nonzero can reach. The mirror of
    /// [`Self::ftran_col`]: it closes the steps of `c`'s nonzeros under
    /// `U`'s row pattern and runs the forward substitution of `Uᵀ` over
    /// them in ascending order, then closes the result under `L`'s row
    /// pattern ([`Pattern`]) and runs `Lᵀ`'s gathers over it in descending
    /// order. Every nonzero this writes is bit-identical to
    /// [`Self::btran`]'s; the rows it does not write hold zero.
    ///
    /// # Panics
    ///
    /// Panics if a slot is outside the basis dimension or `y` was made
    /// for a smaller one.
    pub(crate) fn btran_sparse(
        &self,
        c: &[f64],
        slots: impl IntoIterator<Item = usize>,
        y: &mut SparseVec,
    ) {
        y.clear_for_solve(self.m);
        let SparseVec {
            val,
            nz,
            x,
            seen,
            reach,
        } = y;
        for slot in slots {
            let k = self.slot_step[slot] as usize;
            if c[slot] != 0.0 && !seen.contains(k) {
                x[k] = c[slot];
                seen.insert(k);
                reach.push(k as u32);
            }
        }
        close(reach, seen, |k| self.u.positions(k));
        seen.list(reach);
        self.u.solve_forward_over(reach, Some(&self.u_diag), x);
        close(reach, seen, |p| self.l_rows.group(p));
        seen.drain(reach, |_| true);
        self.l.solve_backward_over(reach, None, x);
        for &k in reach.iter() {
            let k = k as usize;
            let row = self.perm_row[k] as usize;
            val[row] = x[k];
            if x[k] != 0.0 {
                seen.insert(row);
            }
            x[k] = 0.0;
        }
        reach.clear();
        seen.drain(nz, |_| true);
    }

    /// [`Self::btran`] for the simplex duals, redoing only the
    /// elimination steps whose inputs changed bits since the last call
    /// (see the module docs). `y` is bit-identical to [`Self::btran`]'s.
    ///
    /// Each call must pass the same `y` buffer, untouched in between:
    /// a warm call writes only the entries that change. A refactorization
    /// ([`Self::factor`]), [`Self::take_factors`], a clone and
    /// `clone_from` start cold, with one dense solve.
    ///
    /// # Panics
    ///
    /// Panics if any argument is shorter than the basis dimension.
    pub(crate) fn btran_duals(&mut self, c: &[f64], y: &mut [f64]) {
        let DualsCache {
            warm,
            rhs,
            mid,
            out,
            u_todo,
            l_todo,
        } = &mut self.duals;
        if !*warm {
            rhs.clear();
            rhs.extend(self.perm_col.iter().map(|&slot| c[slot as usize]));
            mid.clone_from(rhs);
            self.u.solve_forward(Some(&self.u_diag), mid);
            out.clone_from(mid);
            self.l.solve_backward(None, out);
            for (&r, &v) in self.perm_row.iter().zip(out.iter()) {
                y[r as usize] = v;
            }
            u_todo.reset(self.m);
            l_todo.reset(self.m);
            *warm = true;
            return;
        }
        for (k, (z, &slot)) in rhs.iter_mut().zip(&self.perm_col).enumerate() {
            let v = c[slot as usize];
            if v.to_bits() != z.to_bits() {
                *z = v;
                u_todo.insert(k);
            }
        }
        // `U` stage, ascending: a step's inputs are its right-hand side
        // and the earlier steps in its column of `U`.
        let mut cursor = 0;
        while let Some(p) = u_todo.pop_min(&mut cursor) {
            let v = self.u.gather_transposed(&self.u_cols, p, rhs[p], mid) / self.u_diag[p];
            if v.to_bits() != mid[p].to_bits() {
                mid[p] = v;
                l_todo.insert(p);
                for &q in self.u.positions(p) {
                    u_todo.insert(q as usize);
                }
            }
        }
        // `L` stage, descending: a step's inputs are its `U`-stage value
        // and the later steps in its column of `L`.
        let mut cursor = l_todo.words.len();
        while let Some(k) = l_todo.pop_max(&mut cursor) {
            let v = self.l.gather_group(k, mid[k], out);
            if v.to_bits() != out[k].to_bits() {
                out[k] = v;
                y[self.perm_row[k] as usize] = v;
                for &q in self.l_rows.group(k) {
                    l_todo.insert(q as usize);
                }
            }
        }
    }
}

/// Appends to `list` every position reachable from it through `edges`
/// (position `k` → each of `edges(k)`), adding each to `seen`. Every
/// position already listed must be in `seen`.
fn close<'a>(list: &mut Vec<u32>, seen: &mut BitSet, edges: impl Fn(usize) -> &'a [u32]) {
    let mut next = 0;
    while let Some(&k) = list.get(next) {
        next += 1;
        for &p in edges(k as usize) {
            if !seen.contains(p as usize) {
                seen.insert(p as usize);
                list.push(p);
            }
        }
    }
}

/// A set of positions below `m`, one bit each. Listing it gives its
/// members in ascending order in `O(m/64 + members)`, which is how the
/// sparse solves order the steps and slots they reach.
#[derive(Clone, Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

/// Appends to `out`, ascending, the positions of word `w` whose bits are
/// set in `word` and that `keep` accepts.
fn push_bits(w: usize, mut word: u64, out: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    while word != 0 {
        let i = 64 * w + word.trailing_zeros() as usize;
        if keep(i) {
            out.push(i as u32);
        }
        word &= word - 1;
    }
}

impl BitSet {
    /// Empties the set and sizes it for positions `0..m`.
    fn reset(&mut self, m: usize) {
        self.words.clear();
        self.words.resize(m.div_ceil(64), 0);
    }

    /// Removes and returns the smallest member. `cursor` starts at 0 and
    /// marks the words already emptied; a caller that inserts a position
    /// below the last one returned does so by [`Self::insert_lowering`].
    fn pop_min(&mut self, cursor: &mut usize) -> Option<usize> {
        while let Some(word) = self.words.get_mut(*cursor) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(64 * *cursor + bit);
            }
            *cursor += 1;
        }
        None
    }

    /// Removes and returns the largest member, for a caller that inserts
    /// only positions below the last one returned. `cursor` starts at
    /// the number of words and marks the words already emptied.
    fn pop_max(&mut self, cursor: &mut usize) -> Option<usize> {
        while let Some(w) = cursor.checked_sub(1) {
            let word = &mut self.words[w];
            if *word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                *word &= !(1 << bit);
                return Some(64 * w + bit);
            }
            *cursor = w;
        }
        None
    }

    fn contains(&self, i: usize) -> bool {
        // INDEX: i < m, and there are ⌈m/64⌉ words.
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn insert(&mut self, i: usize) {
        // INDEX: i < m, and there are ⌈m/64⌉ words.
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Inserts `i` and moves a [`Self::pop_min`] cursor back to its word
    /// when that word was already passed.
    fn insert_lowering(&mut self, i: usize, cursor: &mut usize) {
        self.insert(i);
        *cursor = (*cursor).min(i / 64);
    }

    /// Replaces `out` with the members, ascending.
    fn list(&self, out: &mut Vec<u32>) {
        out.clear();
        for (w, &word) in self.words.iter().enumerate() {
            push_bits(w, word, out, |_| true);
        }
    }

    /// Replaces `out` with the members that `keep` accepts, ascending,
    /// and empties the set.
    fn drain(&mut self, out: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
        out.clear();
        for (w, word) in self.words.iter_mut().enumerate() {
            push_bits(w, std::mem::take(word), out, &keep);
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// A vector stored densely but zero outside a short list of positions:
/// the pivot direction `w` (slot space), as [`LuFactors::ftran_col`] and
/// [`EtaFile::ftran_sparse`] compute it, the dual simplex's BTRAN row
/// `ρ` (row space), as [`LuFactors::btran_sparse`] computes it, and its
/// pivot row `α` (column space), as [`CscMatrix::mul_sparse_into`]
/// scatters it; with the scratch the solves reuse.
///
/// The dense solves write a zero of either sign, `±0.0`, into the
/// entries no nonzero reaches; the sparse solves leave those entries as
/// they were, a zero of possibly the other sign. No consumer of `w` can
/// tell: the ratio test and the eta file keep only entries `!= 0.0`, the
/// dual simplex rejects a pivot `w[r]` that small, and the basic values
/// only ever have `w`'s entries subtracted from them, which a zero
/// changes by at most the sign of a zero basic value. Comparisons and
/// sums with a nonzero do not see that sign.
#[derive(Clone, Debug, Default)]
pub(crate) struct SparseVec {
    /// Values by position: zero at every position not in `nz`.
    pub(crate) val: Vec<f64>,
    /// The positions that may be nonzero, ascending: exactly the
    /// nonzeros after a solve, every position a term reached after a
    /// product.
    pub(crate) nz: Vec<u32>,
    /// Step-space values of the LU solves, sized by the first of them
    /// (a product leaves it empty); `+0.0` between solves.
    x: Vec<f64>,
    /// The steps (in the LU solve) or positions (in the eta solve and
    /// the product) reached so far; empty between solves.
    seen: BitSet,
    /// The steps the LU solve reaches.
    reach: Vec<u32>,
}

impl SparseVec {
    /// The zero vector over `m` positions.
    #[cfg(test)]
    pub(crate) fn new(m: usize) -> Self {
        let mut v = SparseVec::default();
        v.reset(m);
        v
    }

    /// Makes this the zero vector over `m` positions, keeping its
    /// buffers.
    pub(crate) fn reset(&mut self, m: usize) {
        self.val.clear();
        self.val.resize(m, 0.0);
        self.nz.clear();
        self.x.clear();
        self.seen.reset(m);
        self.reach.clear();
    }

    /// Zeroes the listed positions, empties the list, and sizes the
    /// step-space scratch for an LU solve of dimension `m`.
    fn clear_for_solve(&mut self, m: usize) {
        self.clear();
        if self.x.len() != m {
            self.x.clear();
            self.x.resize(m, 0.0);
        }
    }

    /// Zeroes the listed positions and empties the list.
    pub(crate) fn clear(&mut self) {
        for &i in &self.nz {
            self.val[i as usize] = 0.0;
        }
        self.nz.clear();
    }

    /// Adds `v` to position `i`, which [`Self::list_added`] then lists.
    pub(crate) fn add(&mut self, i: usize, v: f64) {
        self.seen.insert(i);
        self.val[i] += v;
    }

    /// Lists, ascending, every position [`Self::add`] reached since the
    /// last [`Self::clear`].
    pub(crate) fn list_added(&mut self) {
        self.seen.drain(&mut self.nz, |_| true);
    }
}

/// Fewest entries an eta-file block holds.
const ETA_BLOCK: usize = 4096;

/// The eta file: product-form updates appended since the last
/// refactorization, applied around the LU solves. Update `e` is the
/// identity with slot column `slot[e]` replaced by that pivot's entering
/// direction `w`: `w[slot[e]] = pivot[e]`, and its other nonzeros, as
/// `(slot, value)` with slots ascending, are `blocks[b][lo..hi]` for
/// `(b, lo, hi) = span[e]`.
///
/// The entries live in an arena of blocks, each allocated once with
/// room for `max(ETA_BLOCK, m)` entries and never grown, so one update
/// always fits in one block and no entry is ever copied. [`Self::clear`]
/// empties the blocks for reuse. One entry array grown by doubling
/// instead raised the anchor benchmark's peak resident memory by about
/// 0.45 MiB under glibc, whose allocator served each doubled copy from
/// the heap and kept the old one's pages.
#[derive(Clone, Debug, Default)]
pub(crate) struct EtaFile {
    slot: Vec<u32>,
    pivot: Vec<f64>,
    span: Vec<(u32, u32, u32)>,
    blocks: Vec<Vec<(u32, f64)>>,
    /// Blocks holding entries; the last of them takes the next update
    /// when it has room.
    used: usize,
    /// Room per block.
    room: usize,
}

impl EtaFile {
    /// An empty file for a basis of dimension `m`.
    pub(crate) fn new(m: usize) -> Self {
        EtaFile {
            slot: Vec::new(),
            pivot: Vec::new(),
            span: Vec::new(),
            blocks: Vec::new(),
            used: 0,
            room: ETA_BLOCK.max(m),
        }
    }

    /// Empties the file for a basis of dimension `m`, keeping the blocks
    /// when their room fits that dimension.
    pub(crate) fn reset(&mut self, m: usize) {
        if self.room == ETA_BLOCK.max(m) {
            self.clear();
        } else {
            *self = EtaFile::new(m);
        }
    }

    /// Drops all updates and frees every block but the first: what a
    /// finished solve keeps for the next one. A warm re-solve's few
    /// pivots fit one block, and the blocks a long cold solve filled
    /// would otherwise stay allocated for as long as their problem.
    pub(crate) fn trim(&mut self) {
        self.clear();
        self.blocks.truncate(1);
    }

    /// Drops all updates (after a refactorization), keeping the blocks.
    pub(crate) fn clear(&mut self) {
        self.slot.clear();
        self.pivot.clear();
        self.span.clear();
        for b in &mut self.blocks[..self.used] {
            b.clear();
        }
        self.used = 0;
    }

    /// Whether no update was appended since the last refactorization.
    pub(crate) fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// The slot each update replaced, oldest first: the only slots
    /// [`Self::btran`] writes.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slot.iter().map(|&s| s as usize)
    }

    /// The off-pivot entries of the update with span `(b, lo, hi)`.
    fn entries(&self, (b, lo, hi): (u32, u32, u32)) -> &[(u32, f64)] {
        &self.blocks[b as usize][lo as usize..hi as usize]
    }

    /// Records the pivot that replaced basis slot `slot` with the column
    /// whose direction is `w` (`w[slot]` = pivot).
    pub(crate) fn push(&mut self, slot: usize, w: &SparseVec) {
        let fits = self.used > 0 && {
            // INDEX: used > 0 was just checked and used <= blocks.len().
            self.blocks[self.used - 1].len() + w.nz.len() <= self.room
        };
        if !fits {
            if self.used == self.blocks.len() {
                self.blocks.push(Vec::with_capacity(self.room));
            }
            self.used += 1;
        }
        let b = self.used - 1;
        let block = &mut self.blocks[b];
        let lo = block.len();
        for &i in &w.nz {
            if i as usize != slot {
                block.push((i, w.val[i as usize]));
            }
        }
        self.span.push((b as u32, lo as u32, block.len() as u32));
        self.slot.push(slot as u32);
        self.pivot.push(w.val[slot]);
    }

    /// Applies `Eₖ⁻¹ ⋯ E₁⁻¹` in place (FTRAN tail), oldest update first:
    /// the dense reference [`Self::ftran_sparse`] is tested against.
    #[cfg(test)]
    pub(crate) fn ftran(&self, x: &mut [f64]) {
        for ((&slot, &pivot), &span) in self.slot.iter().zip(&self.pivot).zip(&self.span) {
            let slot = slot as usize;
            let t = x[slot] / pivot;
            x[slot] = t;
            if t != 0.0 {
                for &(i, v) in self.entries(span) {
                    x[i as usize] -= v * t;
                }
            }
        }
    }

    /// Applies `Eₖ⁻¹ ⋯ E₁⁻¹` to `w` in place, oldest update first, with
    /// the dense FTRAN tail's operations on every nonzero: an update
    /// whose pivot slot holds zero is skipped (the dense tail would only
    /// rewrite that zero), and each slot an update makes nonzero joins
    /// `w`'s list.
    pub(crate) fn ftran_sparse(&self, w: &mut SparseVec) {
        if self.is_empty() {
            return;
        }
        let SparseVec { val, nz, seen, .. } = w;
        for &i in nz.iter() {
            seen.insert(i as usize);
        }
        for ((&slot, &pivot), &span) in self.slot.iter().zip(&self.pivot).zip(&self.span) {
            let slot = slot as usize;
            if val[slot] == 0.0 {
                continue;
            }
            let t = val[slot] / pivot;
            val[slot] = t;
            if t != 0.0 {
                for &(i, v) in self.entries(span) {
                    let i = i as usize;
                    // A slot that is zero here is either unlisted or was
                    // listed and cancelled; one that is not is in `seen`.
                    if val[i] == 0.0 {
                        seen.insert(i);
                    }
                    val[i] -= v * t;
                }
            }
        }
        seen.drain(nz, |i| val[i] != 0.0);
    }

    /// Applies `E₁⁻ᵀ ⋯ Eₖ⁻ᵀ` in place (BTRAN head), newest update first.
    pub(crate) fn btran(&self, x: &mut [f64]) {
        let updates = self.slot.iter().zip(&self.pivot).zip(&self.span);
        for ((&slot, &pivot), &span) in updates.rev() {
            let mut acc = 0.0;
            for &(i, v) in self.entries(span) {
                acc += v * x[i as usize];
            }
            let slot = slot as usize;
            x[slot] = (x[slot] - acc) / pivot;
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
        let mut lu = LuFactors::default();
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
        let mut reused = LuFactors::default();
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

    /// A slack-heavy basis that is triangular up to permutations, as the
    /// RL-SPM and BL-SPM bases nearly are: over `m` rows in random order,
    /// each position is a structural column with probability `share`,
    /// with a nonzero on its own row and on up to `fan` rows earlier in
    /// the order (a path column on its slot rows, a peak column on its
    /// edge's), and otherwise its row's slack. With `bump > 1`, the
    /// `bump` positions from the middle on are structural columns dense
    /// on each other's rows, so the peel stops there and the general
    /// elimination takes over; the columns after the block become
    /// singletons again once it is gone. Slots are shuffled.
    fn nearly_triangular(
        rng: &mut ChaCha8Rng,
        m: usize,
        share: f64,
        fan: usize,
        bump: usize,
    ) -> (CscMatrix, Vec<u32>) {
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let block = m / 2..(m / 2 + bump).min(m);
        let mut b = CscBuilder::new(m);
        for t in 0..m {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let mut col = vec![(order[t], sign * rng.gen_range(1.0..5.0))];
            if bump > 1 && block.contains(&t) {
                for s in block.clone().filter(|&s| s != t) {
                    col.push((order[s], rng.gen_range(-5.0..5.0)));
                }
            } else if t > 0 && rng.gen_bool(share) {
                for _ in 0..rng.gen_range(1..=fan) {
                    col.push((order[rng.gen_range(0..t)], rng.gen_range(-5.0..5.0)));
                }
            }
            b.add_col(col);
        }
        let mut basis: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            basis.swap(i, rng.gen_range(0..=i));
        }
        (b.build(), basis)
    }

    /// The steps the peel alone takes on `basis`.
    fn peeled_steps(a: &CscMatrix, basis: &[u32]) -> Result<usize, SolveError> {
        let mut lu = LuFactors::default();
        lu.reset(basis.len());
        lu.peel(a, basis, 1e-12)?;
        Ok(lu.perm_col.len())
    }

    #[test]
    fn singleton_peel_is_bit_identical_to_the_general_elimination() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let mut bases = Vec::new();
        // (m, structural columns, density)
        for (m, k, density) in [
            (5, 2, 0.4),
            (30, 10, 0.1),
            (70, 20, 0.03),
            (130, 40, 0.01),
            (40, 40, 0.3),
            (200, 30, 0.005),
        ] {
            bases.push(random_basis(&mut rng, m, k, density));
        }
        // (m, structural share, fan, bump), up to the size of an online
        // B4 K = 400 basis.
        for (m, share, fan, bump) in [
            (20, 0.3, 2, 0),
            (66, 0.2, 3, 0),
            (130, 0.3, 4, 0),
            (366, 0.15, 6, 0),
            (66, 0.2, 3, 3),
            (200, 0.25, 4, 5),
            (366, 0.15, 6, 3),
            (366, 0.3, 8, 12),
        ] {
            bases.push(nearly_triangular(&mut rng, m, share, fan, bump));
        }
        let mut broken = Vec::new();
        for (a, basis) in &bases {
            let m = basis.len();
            // A singleton below `abs_tol`: the last basic slack scaled
            // down.
            let slack = (0..m)
                .rev()
                .find(|&j| a.col(basis[j] as usize).rows.len() == 1);
            if let Some(slot) = slack {
                let mut b = CscBuilder::new(m);
                for j in 0..a.ncols() {
                    b.add_col(a.col(j).iter());
                }
                let row = a.col(basis[slot] as usize).rows[0] as usize;
                b.add_col([(row, 1e-14)]);
                let mut with_tiny = basis.clone();
                with_tiny[slot] = a.ncols() as u32;
                broken.push((b.build(), with_tiny));
            }
            // Structurally singular: one column twice.
            let mut twice = basis.clone();
            twice[m / 2] = twice[m / 3];
            broken.push((a.clone(), twice));
        }
        // Numerically singular: a column of the middle block replaced by
        // twice another one of it, so their elimination cancels exactly.
        let (a, basis) = nearly_triangular(&mut rng, 66, 0.2, 3, 4);
        let mut b = CscBuilder::new(66);
        for j in 0..a.ncols() {
            b.add_col(a.col(j).iter());
        }
        b.add_col(a.col(34).iter().map(|(r, v)| (r, 2.0 * v)));
        let slot = basis
            .iter()
            .position(|&j| j == 35)
            .expect("column 35 is basic");
        let mut doubled = basis.clone();
        doubled[slot] = 66;
        broken.push((b.build(), doubled));

        let mut reused = LuFactors::default();
        let (mut handed_over, mut all_peeled, mut singular) = (0, 0, 0);
        for (step, (a, basis)) in bases.iter().chain(&broken).enumerate() {
            let mut general = LuFactors::default();
            let want = general.factor_general(a, basis, 1e-12);
            for lu in [&mut reused, &mut LuFactors::default()] {
                let got = lu.factor(a, basis, 1e-12);
                assert_eq!(got, want, "basis {step}");
                if got.is_ok() {
                    assert!(lu.same_factors(&general), "basis {step}");
                    assert_eq!(fingerprint(lu), fingerprint(&general), "basis {step}");
                }
            }
            match (peeled_steps(a, basis), want) {
                (Ok(peeled), Ok(())) if peeled < basis.len() => handed_over += 1,
                (Ok(_), Ok(())) => all_peeled += 1,
                (_, Err(_)) => singular += 1,
                (Err(_), Ok(())) => panic!("basis {step}: the peel failed a nonsingular basis"),
            }
        }
        assert!(handed_over >= 6, "{handed_over} bases handed over");
        assert!(all_peeled >= 4, "{all_peeled} bases fully peeled");
        assert_eq!(singular, broken.len());
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
        let mut w = SparseVec::new(m);
        lu.ftran_col(a.col(4), &mut w);
        let mut etas = EtaFile::new(m);
        etas.push(1, &w);
        assert_eq!(etas.slot.len(), 1);

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

    /// `x` densified: the right-hand side [`LuFactors::ftran`] takes.
    fn dense_col(a: &CscMatrix, j: usize) -> Vec<f64> {
        let mut b = vec![0.0; a.nrows()];
        for (r, v) in a.col(j).iter() {
            b[r] = v;
        }
        b
    }

    /// The sparse direction equals the dense one: the same bits at every
    /// nonzero, a zero elsewhere, `nz` exactly the slots where the dense
    /// one is `!= 0.0`, and the scratch left clean for the next solve.
    fn assert_same_direction(sparse: &SparseVec, dense: &[f64], what: &str) {
        for (i, (&got, &want)) in sparse.val.iter().zip(dense).enumerate() {
            if want != 0.0 {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: slot {i}");
            } else {
                assert_eq!(got, 0.0, "{what}: slot {i}");
            }
        }
        let nonzero: Vec<u32> = (0..dense.len() as u32)
            .filter(|&i| dense[i as usize] != 0.0)
            .collect();
        assert_eq!(sparse.nz, nonzero, "{what}");
        assert!(
            sparse.x.iter().all(|v| v.to_bits() == 0),
            "{what}: step scratch"
        );
        assert!(sparse.seen.is_empty(), "{what}: seen");
        assert!(sparse.reach.is_empty(), "{what}: reach");
    }

    #[test]
    fn sparse_ftran_is_bit_identical_to_the_dense_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        // (m, structural columns, density): slack-heavy to dense.
        let shapes = [
            (1, 1, 1.0),
            (6, 2, 0.3),
            (25, 10, 0.1),
            (40, 40, 0.05),
            (60, 20, 0.08),
            (30, 30, 0.5),
            (80, 50, 0.03),
        ];
        for (step, &(m, k, density)) in shapes.iter().enumerate() {
            let (a, basis) = random_basis(&mut rng, m, k, density);
            let lu = factor(&a, &basis).expect("nonsingular");
            // Entering candidates: every column of `a` (a basic one gives
            // a unit direction) and sparse random columns.
            let mut b = CscBuilder::new(m);
            for _ in 0..2 * m {
                let rows: Vec<usize> = (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..m))
                    .collect();
                b.add_col(rows.into_iter().map(|r| (r, rng.gen_range(-3.0..3.0))));
            }
            let cand = b.build();
            let mut work = vec![0.0; m];
            let mut w = SparseVec::new(m);
            let mut etas = EtaFile::new(m);
            // Up to m pivots, each checked against the dense solves with
            // the eta file as it then stands.
            for pivot in 0..=m {
                let mut dense = vec![0.0; m];
                for (mat, j) in (0..a.ncols())
                    .map(|j| (&a, j))
                    .chain((0..cand.ncols()).map(|j| (&cand, j)))
                {
                    lu.ftran(&dense_col(mat, j), &mut dense, &mut work);
                    etas.ftran(&mut dense);
                    lu.ftran_col(mat.col(j), &mut w);
                    etas.ftran_sparse(&mut w);
                    assert_same_direction(&w, &dense, &format!("basis {step}, pivot {pivot}"));
                }
                // Pivot a random candidate into a slot where its
                // direction is large, as the ratio test would.
                let j = rng.gen_range(0..cand.ncols());
                lu.ftran_col(cand.col(j), &mut w);
                etas.ftran_sparse(&mut w);
                let big = w.val.iter().fold(0.0f64, |mx, v| mx.max(v.abs()));
                let slots: Vec<u32> =
                    w.nz.iter()
                        .copied()
                        .filter(|&i| w.val[i as usize].abs() >= 0.5 * big)
                        .collect();
                if slots.is_empty() {
                    break;
                }
                let r = slots[rng.gen_range(0..slots.len())] as usize;
                etas.push(r, &w);
            }
            assert!(etas.slot.len() > m / 2, "basis {step}: too few pivots");
        }
    }

    /// The dense [`LuFactors::btran`] of `c`.
    fn dense_btran(lu: &LuFactors, c: &[f64]) -> Vec<f64> {
        let m = c.len();
        let (mut y, mut work) = (vec![0.0; m], vec![0.0; m]);
        lu.btran(c, &mut y, &mut work);
        y
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {i} ({g} vs {w})");
        }
    }

    /// `c` with one kind of edit, drawn at random: one slot to a new
    /// value, a nonzero to zero, a zero to a nonzero, `+0.0` and `−0.0`
    /// swapped, many slots at once, or nothing.
    fn edit(rng: &mut ChaCha8Rng, c: &mut [f64]) {
        let m = c.len();
        let any = rng.gen_range(0..m);
        match rng.gen_range(0..6) {
            0 => c[any] = rng.gen_range(-3.0..3.0),
            1 => c[any] = 0.0,
            2 => {
                if let Some(z) = c.iter_mut().find(|v| **v == 0.0) {
                    *z = rng.gen_range(-3.0..3.0);
                }
            }
            3 => {
                for v in c.iter_mut().filter(|v| **v == 0.0) {
                    *v = -*v;
                }
            }
            4 => {
                for _ in 0..rng.gen_range(2..=m.max(2)) {
                    let i = rng.gen_range(0..m);
                    c[i] = match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-3.0..3.0),
                    };
                }
            }
            _ => {}
        }
    }

    #[test]
    fn incremental_duals_are_bit_identical_to_the_dense_btran() {
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        // (m, structural columns, density): slack-heavy to dense.
        let shapes = [
            (1, 1, 1.0),
            (5, 2, 0.4),
            (30, 10, 0.1),
            (64, 40, 0.05),
            (65, 30, 0.08),
            (40, 40, 0.3),
            (130, 70, 0.02),
        ];
        for (step, &(m, k, density)) in shapes.iter().enumerate() {
            let (a, basis) = random_basis(&mut rng, m, k, density);
            let mut lu = factor(&a, &basis).expect("nonsingular");
            // Mostly zeros, as the costs of slack-heavy bases are.
            let mut c: Vec<f64> = (0..m)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(-3.0..3.0),
                    1 => -0.0,
                    _ => 0.0,
                })
                .collect();
            let mut y = vec![f64::NAN; m];
            for round in 0..300 {
                lu.btran_duals(&c, &mut y);
                assert_same_bits(
                    &y,
                    &dense_btran(&lu, &c),
                    &format!("basis {step}, round {round}"),
                );
                edit(&mut rng, &mut c);
            }
            // Warm: an unchanged input writes nothing.
            lu.btran_duals(&c, &mut y);
            let want = y.clone();
            y.fill(f64::NAN);
            lu.btran_duals(&c, &mut y);
            assert!(
                y.iter().all(|v| v.is_nan()),
                "basis {step}: a warm repeat wrote"
            );
            y = want;
            // Every single-slot change, and back.
            for i in 0..m {
                let old = c[i];
                for v in [1.5, 0.0, -0.0, old] {
                    c[i] = v;
                    lu.btran_duals(&c, &mut y);
                    assert_same_bits(
                        &y,
                        &dense_btran(&lu, &c),
                        &format!("basis {step}, slot {i}"),
                    );
                }
            }
        }
    }

    #[test]
    fn refactoring_and_copying_factors_start_the_duals_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let m = 40;
        let (a, basis) = random_basis(&mut rng, m, 20, 0.1);
        let (b, other) = random_basis(&mut rng, m, 25, 0.1);
        let c: Vec<f64> = (0..m).map(|i| (i % 3) as f64 - 0.5).collect();
        let mut lu = factor(&a, &basis).expect("nonsingular");
        let mut y = vec![0.0; m];
        lu.btran_duals(&c, &mut y);
        // A clone answers a caller with its own `y`.
        let mut twin = lu.clone();
        let mut fresh = vec![0.0; m];
        twin.btran_duals(&c, &mut fresh);
        assert_same_bits(&fresh, &dense_btran(&lu, &c), "clone");
        // Kept factors, as a basis snapshot holds them.
        let mut kept = lu.clone();
        kept.btran_duals(&c, &mut y);
        let mut kept = kept.take_factors();
        let mut fresh = vec![0.0; m];
        kept.btran_duals(&c, &mut fresh);
        assert_same_bits(&fresh, &dense_btran(&kept, &c), "take_factors");
        // Factors copied into the warm buffers of another solve.
        let mut reused = factor(&b, &other).expect("nonsingular");
        reused.btran_duals(&c, &mut y);
        reused.clone_from(&lu);
        let mut fresh = vec![0.0; m];
        reused.btran_duals(&c, &mut fresh);
        assert_same_bits(&fresh, &dense_btran(&lu, &c), "clone_from");
        // Another basis with the same input: every dual moves.
        lu.factor(&b, &other, 1e-12).expect("nonsingular");
        lu.btran_duals(&c, &mut y);
        assert_same_bits(&y, &dense_btran(&lu, &c), "refactorization");
        // A failed refactorization leaves the cache cold too.
        let mut singular = basis.clone();
        singular[1] = singular[0];
        assert_eq!(lu.factor(&a, &singular, 1e-12), Err(SolveError::Singular));
        lu.factor(&a, &basis, 1e-12).expect("nonsingular");
        lu.btran_duals(&c, &mut y);
        assert_same_bits(&y, &dense_btran(&lu, &c), "after a singular basis");
    }

    #[test]
    fn eta_tail_keeps_the_list_sorted_when_a_listed_slot_cancels() {
        // The update replacing slot 1 creates a nonzero at slot 0 and
        // cancels slot 3 exactly: the list gains a lower slot but no
        // length.
        let sparse = |val: Vec<f64>| {
            let mut w = SparseVec::new(val.len());
            w.nz = (0..val.len() as u32)
                .filter(|&i| val[i as usize] != 0.0)
                .collect();
            w.val = val;
            w
        };
        let mut etas = EtaFile::new(4);
        etas.push(1, &sparse(vec![5.0, 1.0, 0.0, 2.0]));
        let mut w = sparse(vec![0.0, 1.0, 0.0, 2.0]);
        let mut dense = w.val.clone();
        etas.ftran(&mut dense);
        etas.ftran_sparse(&mut w);
        assert_eq!(dense, [-5.0, 1.0, 0.0, 0.0]);
        assert_same_direction(&w, &dense, "cancelling update");
    }

    #[test]
    fn eta_blocks_roll_over_and_are_reused_after_clear() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let m = 12;
        let (a, basis) = random_basis(&mut rng, m, 4, 0.3);
        let lu = factor(&a, &basis).expect("nonsingular");
        let mut w = SparseVec::new(m);
        // `small` holds one direction per block at most; `one` puts all
        // of them in one block. Both must compute the same bits.
        let mut small = EtaFile::new(m);
        small.room = m;
        let mut one = EtaFile::new(m);
        for round in 0..2 {
            for j in 0..a.ncols() {
                lu.ftran_col(a.col(j), &mut w);
                let r =
                    w.nz.iter().copied().max_by(|&p, &q| {
                        w.val[p as usize].abs().total_cmp(&w.val[q as usize].abs())
                    });
                let r = r.expect("a nonzero column has a nonzero direction") as usize;
                small.push(r, &w);
                one.push(r, &w);
            }
            assert!(small.used > 1 && one.used == 1, "round {round}");
            let v: Vec<f64> = (0..m).map(|i| i as f64 - 4.5).collect();
            for apply in [EtaFile::ftran, EtaFile::btran] {
                let (mut x, mut y) = (v.clone(), v.clone());
                apply(&small, &mut x);
                apply(&one, &mut y);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&y), "round {round}");
            }
            let blocks = small.blocks.len();
            small.clear();
            one.clear();
            assert!(small.is_empty() && small.used == 0 && small.span.is_empty());
            assert_eq!(small.blocks.len(), blocks, "clear keeps the blocks");
            // With no updates the sparse tail changes nothing.
            let before = (w.val.clone(), w.nz.clone());
            small.ftran_sparse(&mut w);
            assert_eq!((w.val.clone(), w.nz.clone()), before);
        }
    }
}
