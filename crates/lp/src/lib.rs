//! Linear and mixed-integer linear programming, self-contained.
//!
//! This crate is the optimization substrate for the Metis reproduction:
//! the paper ("Towards Maximal Service Profit in Geo-Distributed Clouds",
//! ICDCS 2019) calls Gurobi for every LP/ILP; this crate replaces it with
//!
//! * a **bounded-variable revised simplex** over sparse columns
//!   ([`Problem::solve`]), and
//! * a **branch-and-bound MILP solver** on top of it ([`solve_ilp`]).
//!
//! Callers build every [`Problem`] in code: the crate reads and writes
//! no model files, and it solves the problem as given, with no presolve.
//!
//! # Quick start
//!
//! ```
//! use metis_lp::{Problem, Relation, Sense};
//!
//! // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var(3.0, 0.0, f64::INFINITY);
//! let y = p.add_var(5.0, 0.0, f64::INFINITY);
//! p.add_constraint([(x, 1.0)], Relation::Le, 4.0);
//! p.add_constraint([(y, 2.0)], Relation::Le, 12.0);
//! p.add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
//!
//! let sol = p.solve()?;
//! assert!((sol.objective() - 36.0).abs() < 1e-6);
//! # Ok::<(), metis_lp::SolveError>(())
//! ```
//!
//! Integer programs mark variables with [`Problem::add_int_var`] and go
//! through [`solve_ilp`], which supports node/time limits and reports the
//! proven bound so callers can use time-limited runs as baselines.

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "FP-01 polices library code; tests assert exact expected values"
    )
)]

mod error;
mod factor;
pub mod ilp;
mod matrix;
mod model;
mod simplex;
mod solution;
pub mod verify;

pub use error::SolveError;
pub use ilp::{solve_ilp, solve_ilp_with_start, IlpOptions, IlpSolution, IlpStatus};
pub use model::{Problem, Relation, RowId, Sense, VarId};
pub use simplex::{Basis, SolveOptions};
pub use solution::{Solution, SolveStats};
pub use verify::{certify, Certificate};
