//! Deterministic fault injection for the Metis pipeline.
//!
//! A [`FaultPlan`] forces [`SolveError`]s at chosen points of a run:
//!
//! * **solver points** — the `n`-th attempted MAA or TAA solve of a
//!   [`crate::metis_instrumented`] run fails before the LP is even
//!   built, exactly as if the simplex had broken at that point;
//! * **epoch points** — a whole epoch of
//!   [`crate::online_metis_instrumented`] fails wholesale, as if the
//!   per-epoch run had crashed or timed out.
//!
//! Pass [`metis_telemetry::Telemetry::disabled`] to those entry points
//! to inject faults without recording telemetry.
//!
//! Plans are plain data (no interior mutability, no clocks, no global
//! RNG), so a run under a given plan is exactly as deterministic as a
//! failure-free run: the `tests/faults.rs` suite sweeps every single
//! injection point of a θ=4 run and asserts the framework degrades
//! instead of dying.
//!
//! Solver attempts are counted per phase, 0-based, *including* the cold
//! retries the framework issues after a failed warm-started solve — so a
//! plan that fails attempt `i` but not `i + 1` exercises the
//! warm-retry-then-recover path, and a plan failing both exercises the
//! skip-the-round path.

use std::collections::BTreeMap;

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use metis_lp::SolveError;

use crate::framework::Phase;

/// A deterministic set of forced solver failures.
///
/// # Examples
///
/// ```
/// use metis_core::{FaultPlan, Phase};
/// use metis_lp::SolveError;
///
/// let plan = FaultPlan::none()
///     .fail_at(Phase::Taa, 1)
///     .fail_at_with(Phase::Maa, 0, SolveError::IterationLimit);
/// assert_eq!(plan.solver_fault(Phase::Taa, 1), Some(SolveError::Singular));
/// assert_eq!(
///     plan.solver_fault(Phase::Maa, 0),
///     Some(SolveError::IterationLimit),
/// );
/// assert_eq!(plan.solver_fault(Phase::Maa, 1), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    solver: BTreeMap<(Phase, usize), SolveError>,
    epochs: BTreeMap<usize, SolveError>,
}

impl FaultPlan {
    /// The empty plan: nothing fails. Running under it is bit-identical
    /// to not injecting at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.solver.is_empty() && self.epochs.is_empty()
    }

    /// Number of injection points (solver + epoch).
    pub fn len(&self) -> usize {
        self.solver.len() + self.epochs.len()
    }

    /// Fails the `invocation`-th attempted solve of `phase` with the
    /// default error ([`SolveError::Singular`]).
    #[must_use]
    pub fn fail_at(self, phase: Phase, invocation: usize) -> Self {
        self.fail_at_with(phase, invocation, SolveError::Singular)
    }

    /// Fails the `invocation`-th attempted solve of `phase` with `error`.
    #[must_use]
    pub fn fail_at_with(mut self, phase: Phase, invocation: usize, error: SolveError) -> Self {
        self.solver.insert((phase, invocation), error);
        self
    }

    /// Fails epoch `epoch` of an online run wholesale (default error).
    #[must_use]
    pub fn fail_epoch(self, epoch: usize) -> Self {
        self.fail_epoch_with(epoch, SolveError::Singular)
    }

    /// Fails epoch `epoch` of an online run wholesale with `error`.
    #[must_use]
    pub fn fail_epoch_with(mut self, epoch: usize, error: SolveError) -> Self {
        self.epochs.insert(epoch, error);
        self
    }

    /// A seeded random plan: each (phase, attempt) point up to `horizon`
    /// attempts per phase fails independently with probability `p`. The
    /// same seed always produces the same plan.
    pub fn random(seed: u64, p: f64, horizon: usize) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut plan = FaultPlan::none();
        for phase in [Phase::Maa, Phase::Taa] {
            for invocation in 0..horizon {
                if rng.gen::<f64>() < p {
                    plan = plan.fail_at(phase, invocation);
                }
            }
        }
        plan
    }

    /// The forced failure for the `invocation`-th attempted solve of
    /// `phase`, if any.
    pub fn solver_fault(&self, phase: Phase, invocation: usize) -> Option<SolveError> {
        self.solver.get(&(phase, invocation)).cloned()
    }

    /// The forced failure for online epoch `epoch`, if any.
    pub fn epoch_fault(&self, epoch: usize) -> Option<SolveError> {
        self.epochs.get(&epoch).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        for inv in 0..10 {
            assert_eq!(plan.solver_fault(Phase::Maa, inv), None);
            assert_eq!(plan.solver_fault(Phase::Taa, inv), None);
            assert_eq!(plan.epoch_fault(inv), None);
        }
    }

    #[test]
    fn points_are_phase_and_index_scoped() {
        let plan = FaultPlan::none().fail_at(Phase::Maa, 2).fail_epoch(1);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.solver_fault(Phase::Maa, 2), Some(SolveError::Singular));
        assert_eq!(plan.solver_fault(Phase::Taa, 2), None);
        assert_eq!(plan.solver_fault(Phase::Maa, 1), None);
        assert_eq!(plan.epoch_fault(1), Some(SolveError::Singular));
        assert_eq!(plan.epoch_fault(0), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = FaultPlan::random(9, 0.3, 16);
        let b = FaultPlan::random(9, 0.3, 16);
        let c = FaultPlan::random(10, 0.3, 16);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ at p = 0.3");
        assert!(FaultPlan::random(1, 0.0, 16).is_empty());
        assert_eq!(FaultPlan::random(1, 1.0, 16).len(), 32);
    }

    #[test]
    fn custom_errors_round_trip() {
        let plan = FaultPlan::none()
            .fail_at_with(Phase::Taa, 0, SolveError::Infeasible)
            .fail_epoch_with(3, SolveError::IterationLimit);
        assert_eq!(
            plan.solver_fault(Phase::Taa, 0),
            Some(SolveError::Infeasible)
        );
        assert_eq!(plan.epoch_fault(3), Some(SolveError::IterationLimit));
    }
}
