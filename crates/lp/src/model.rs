//! Problem builder: variables, bounds, linear constraints, objective.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::matrix::CscMatrix;

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Minimize the objective (the solver's native direction).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint relation against its right-hand side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Identifier of a decision variable within one [`Problem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Column index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a constraint row within one [`Problem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) u32);

impl RowId {
    /// Row index of this constraint.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
pub(crate) struct VarDef {
    pub lower: f64,
    pub upper: f64,
    pub obj: f64,
    pub integer: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct RowDef {
    pub relation: Relation,
    pub rhs: f64,
}

/// The simplex's standard-form constraint matrix `[A | I]` (structural
/// columns, then one slack column per row) and its transpose.
#[derive(Debug)]
pub(crate) struct StandardForm {
    pub a: CscMatrix,
    pub at: CscMatrix,
}

/// A linear (or mixed-integer linear) program under construction.
///
/// Variables carry bounds and an objective coefficient; constraints are
/// linear expressions compared against a right-hand side. Entries are stored
/// row-wise during construction. The first solve builds the column-major
/// standard-form matrix and its transpose and keeps them: later solves,
/// and clones, reuse them until a variable or constraint is added.
/// Editing bounds, right-hand sides or objective coefficients keeps them.
///
/// # Examples
///
/// ```
/// use metis_lp::{Problem, Relation, Sense};
///
/// // max x + 2y  s.t.  x + y <= 4, x <= 3, 0 <= x, 0 <= y <= 2
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.add_var(1.0, 0.0, f64::INFINITY);
/// let y = p.add_var(2.0, 0.0, 2.0);
/// p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
/// p.add_constraint([(x, 1.0)], Relation::Le, 3.0);
/// let sol = p.solve()?;
/// assert!((sol.objective() - 6.0).abs() < 1e-6);
/// # Ok::<(), metis_lp::SolveError>(())
/// ```
#[derive(Clone, Default)]
pub struct Problem {
    sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) rows: Vec<RowDef>,
    /// Triplets (row, col, value), grouped by insertion order.
    pub(crate) entries: Vec<(u32, u32, f64)>,
    /// `[A | I]` and its transpose, built by the first solve after the
    /// last change to `A` and shared by clones.
    standard: OnceLock<Arc<StandardForm>>,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            ..Problem::default()
        }
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// The id of the `index`-th variable (ids are dense, in insertion
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_vars()`.
    pub fn var(&self, index: usize) -> VarId {
        assert!(index < self.vars.len(), "variable {index} out of range");
        VarId(index as u32)
    }

    /// Adds a continuous variable with objective coefficient `obj` and
    /// bounds `lower ≤ x ≤ upper`. Either bound may be infinite.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, obj: f64, lower: f64, upper: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower <= upper, "inverted bounds: [{lower}, {upper}]");
        let id = VarId(self.vars.len() as u32);
        self.standard.take();
        self.vars.push(VarDef {
            lower,
            upper,
            obj,
            integer: false,
        });
        id
    }

    /// Adds an integer-constrained variable (for use with
    /// [`crate::solve_ilp`]; the plain LP solver relaxes integrality).
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_int_var(&mut self, obj: f64, lower: f64, upper: f64) -> VarId {
        let id = self.add_var(obj, lower, upper);
        self.vars[id.index()].integer = true;
        id
    }

    /// Returns whether `var` is integer-constrained.
    pub fn is_integer(&self, var: VarId) -> bool {
        self.vars[var.index()].integer
    }

    /// Overwrites the bounds of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower <= upper, "inverted bounds: [{lower}, {upper}]");
        let v = &mut self.vars[var.index()];
        v.lower = lower;
        v.upper = upper;
    }

    /// Returns the `(lower, upper)` bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.index()];
        (v.lower, v.upper)
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_objective(&mut self, var: VarId, obj: f64) {
        self.vars[var.index()].obj = obj;
    }

    /// Returns the objective coefficient of `var`.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.vars[var.index()].obj
    }

    /// Adds the linear constraint `Σ coeff · var  (relation)  rhs`.
    ///
    /// Duplicate variables in `terms` are summed.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is NaN or infinite, or any referenced variable
    /// does not exist.
    pub fn add_constraint<I>(&mut self, terms: I, relation: Relation, rhs: f64) -> RowId
    where
        I: IntoIterator<Item = (VarId, f64)>,
    {
        assert!(rhs.is_finite(), "non-finite right-hand side {rhs}");
        let row = self.rows.len() as u32;
        self.standard.take();
        for (v, c) in terms {
            assert!(
                v.index() < self.vars.len(),
                "constraint references unknown variable"
            );
            if c != 0.0 {
                self.entries.push((row, v.0, c));
            }
        }
        self.rows.push(RowDef { relation, rhs });
        RowId(row)
    }

    /// Overwrites the right-hand side of an existing constraint.
    ///
    /// Together with [`Problem::solve_with_basis`], this supports
    /// warm-started re-solves of a fixed-structure program whose
    /// right-hand sides drift between rounds (e.g. per-round capacity
    /// vectors).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is NaN or infinite, or `row` does not exist.
    pub fn set_rhs(&mut self, row: RowId, rhs: f64) {
        assert!(rhs.is_finite(), "non-finite right-hand side {rhs}");
        assert!(row.index() < self.rows.len(), "unknown row");
        self.rows[row.index()].rhs = rhs;
    }

    /// Indices of all integer-constrained variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.integer)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// The relation of every constraint, in row order.
    pub fn row_relations(&self) -> Vec<Relation> {
        self.rows.iter().map(|r| r.relation).collect()
    }

    /// The right-hand side of every constraint, in row order.
    pub fn row_rhs(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.rhs).collect()
    }

    /// Constraint entries grouped per column: `result[j]` lists the
    /// `(row index, coefficient)` pairs of variable `j`, coalescing
    /// duplicates, rows ascending.
    pub fn entries_by_column(&self) -> Vec<Vec<(usize, f64)>> {
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.vars.len()];
        for &(r, c, v) in &self.entries {
            per_col[c as usize].push((r as usize, v));
        }
        for col in &mut per_col {
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(col.len());
            for &(r, v) in col.iter() {
                match merged.last_mut() {
                    Some((lr, lv)) if *lr == r => *lv += v,
                    _ => merged.push((r, v)),
                }
            }
            *col = merged;
        }
        per_col
    }

    /// Objective value of a given assignment (in the problem's own sense).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Maximum constraint violation of an assignment (0 when feasible),
    /// ignoring integrality.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_vars()`.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.vars.len());
        let mut act = vec![0.0; self.rows.len()];
        for &(r, c, v) in &self.entries {
            act[r as usize] += v * x[c as usize];
        }
        let mut worst: f64 = 0.0;
        for (row, a) in self.rows.iter().zip(&act) {
            let viol = match row.relation {
                Relation::Le => a - row.rhs,
                Relation::Ge => row.rhs - a,
                Relation::Eq => (a - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            worst = worst.max(v.lower - xi).max(xi - v.upper);
        }
        worst
    }

    /// The standard-form matrix `[A | I]` and its transpose, built in
    /// one counting pass over the entries on first use.
    pub(crate) fn standard_form(&self) -> &Arc<StandardForm> {
        self.standard.get_or_init(|| {
            let m = self.rows.len();
            let mut a = CscMatrix::from_triplets(m, self.vars.len(), &self.entries);
            a.append_unit_cols((0..m).map(|i| (i, 1.0)));
            Arc::new(StandardForm {
                at: a.transpose(),
                a,
            })
        })
    }
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("sense", &self.sense)
            .field("vars", &self.vars.len())
            .field("rows", &self.rows.len())
            .field("nnz", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(1.0, 0.0, 1.0);
        let y = p.add_int_var(2.0, 0.0, 5.0);
        assert_eq!(p.num_vars(), 2);
        assert!(!p.is_integer(x));
        assert!(p.is_integer(y));
        assert_eq!(p.integer_vars(), vec![y]);
        p.add_constraint([(x, 1.0), (y, 2.0)], Relation::Le, 4.0);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.bounds(y), (0.0, 5.0));
    }

    #[test]
    fn eval_and_violation() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(3.0, 0.0, 10.0);
        let y = p.add_var(-1.0, 0.0, 10.0);
        p.add_constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        p.add_constraint([(x, 1.0)], Relation::Eq, 1.0);
        let x_feas = [1.0, 1.0];
        assert_eq!(p.eval_objective(&x_feas), 2.0);
        assert_eq!(p.max_violation(&x_feas), 0.0);
        let x_bad = [0.0, 0.5];
        assert!((p.max_violation(&x_bad) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn bound_violation_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_var(0.0, 0.0, 1.0);
        assert!((p.max_violation(&[2.0]) - 1.0).abs() < 1e-12);
        assert!((p.max_violation(&[-0.25]) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_panic() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var(0.0, 1.0, 0.0);
    }

    #[test]
    fn non_finite_right_hand_sides_are_rejected() {
        for rhs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let add = std::panic::catch_unwind(|| {
                let mut p = Problem::new(Sense::Minimize);
                let x = p.add_var(1.0, 0.0, 1.0);
                p.add_constraint([(x, 1.0)], Relation::Le, rhs);
            });
            assert!(add.is_err(), "add_constraint accepted {rhs}");
            let set = std::panic::catch_unwind(|| {
                let mut p = Problem::new(Sense::Minimize);
                let x = p.add_var(1.0, 0.0, 1.0);
                let row = p.add_constraint([(x, 1.0)], Relation::Le, 1.0);
                p.set_rhs(row, rhs);
            });
            assert!(set.is_err(), "set_rhs accepted {rhs}");
        }
    }

    #[test]
    fn duplicate_terms_are_summed_in_matrix() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, 0.0, 1.0);
        p.add_constraint([(x, 1.0), (x, 2.0)], Relation::Le, 3.0);
        let m = &p.standard_form().a;
        assert_eq!(m.nnz(), 2, "one structural entry and one slack");
        assert_eq!(m.col(0).values, &[3.0]);
    }
}
