//! Correctness checks applied to every call, and the determinism guard
//! applied across repeats of one instance.

use metis_core::{audit_schedule, Evaluation, Schedule, SpmInstance};

use crate::workloads::Outcome;

/// Re-checks one call's outcome from outside the program:
///
/// * `Schedule::evaluate` on the returned schedule must reproduce the
///   reported evaluation bit for bit;
/// * `audit_schedule` on the returned pair must be clean, and so must the
///   call's own audit when it ran one;
/// * no incident may have been contained.
///
/// Returns the problems found (empty when the call is correct) and the
/// re-evaluation's CPU time in microseconds.
pub fn verify(instance: &SpmInstance, out: &Outcome) -> (Vec<String>, f64) {
    let mut problems: Vec<String> = out
        .incidents
        .iter()
        .map(|i| format!("incident: {i}"))
        .collect();
    let (again, time) = crate::clock::timed(|| out.schedule.evaluate(instance));
    let evaluate_us = time.cpu * 1e6;
    if let Err(field) = same_bits(instance, &again, &out.evaluation) {
        problems.push(format!("re-evaluation differs in {field}"));
    }
    let audit = audit_schedule(instance, &out.schedule, &out.evaluation);
    for report in std::iter::once(&audit).chain(out.audit.as_ref()) {
        problems.extend(report.violations.iter().map(|v| format!("audit: {v}")));
    }
    (problems, evaluate_us)
}

/// Compares two evaluations of one instance bit for bit, naming the first
/// field that differs.
pub fn same_bits(instance: &SpmInstance, a: &Evaluation, b: &Evaluation) -> Result<(), String> {
    let bits = |x: f64, y: f64, field: &str| {
        if x.to_bits() == y.to_bits() {
            Ok(())
        } else {
            Err(format!("{field} ({x} vs {y})"))
        }
    };
    bits(a.revenue, b.revenue, "revenue")?;
    bits(a.cost, b.cost, "cost")?;
    bits(a.profit, b.profit, "profit")?;
    if a.accepted != b.accepted {
        return Err("accepted".into());
    }
    if a.charged.len() != b.charged.len() {
        return Err("charged length".into());
    }
    for (x, y) in a.charged.iter().zip(&b.charged) {
        bits(*x, *y, "charged")?;
    }
    let (u, v) = (&a.utilization, &b.utilization);
    bits(u.min, v.min, "utilization.min")?;
    bits(u.mean, v.mean, "utilization.mean")?;
    bits(u.max, v.max, "utilization.max")?;
    if u.links != v.links {
        return Err("utilization.links".into());
    }
    for e in instance.topology().edge_ids() {
        bits(a.load.peak(e), b.load.peak(e), "load peak")?;
        for t in 0..instance.num_slots() {
            bits(a.load.get(e, t), b.load.get(e, t), "load cell")?;
        }
    }
    Ok(())
}

/// What must repeat exactly every time one instance is solved.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// The returned schedule.
    pub schedule: Schedule,
    /// `evaluation.profit`, compared as bits.
    pub profit_bits: u64,
    /// Alternation rounds, once some call has reported them.
    pub rounds: Option<u64>,
    /// LP pivots, once some call has reported them.
    pub pivots: Option<u64>,
}

impl Fingerprint {
    /// The profit the fingerprint pins.
    pub fn profit(&self) -> f64 {
        f64::from_bits(self.profit_bits)
    }

    /// Folds a repeat in: fails on any disagreement, and adopts counts the
    /// stored fingerprint did not have yet.
    pub fn merge(&mut self, other: Fingerprint) -> Result<(), String> {
        if other.schedule != self.schedule {
            return Err("schedule differs between repeats".into());
        }
        if other.profit_bits != self.profit_bits {
            return Err(format!(
                "profit differs between repeats: {} vs {}",
                self.profit(),
                other.profit()
            ));
        }
        for (mine, theirs, what) in [
            (&mut self.rounds, other.rounds, "framework.rounds"),
            (&mut self.pivots, other.pivots, "lp.pivots"),
        ] {
            match (*mine, theirs) {
                (Some(a), Some(b)) if a != b => {
                    return Err(format!("{what} differs between repeats: {a} vs {b}"))
                }
                (None, Some(b)) => *mine = Some(b),
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(profit: f64, rounds: Option<u64>, pivots: Option<u64>) -> Fingerprint {
        Fingerprint {
            schedule: Schedule::decline_all(3),
            profit_bits: profit.to_bits(),
            rounds,
            pivots,
        }
    }

    #[test]
    fn merge_adopts_missing_counts_and_rejects_drift() {
        let mut a = fp(1.5, None, Some(10));
        a.merge(fp(1.5, Some(4), None)).unwrap();
        assert_eq!((a.rounds, a.pivots), (Some(4), Some(10)));
        assert!(a.merge(fp(1.5, Some(5), Some(10))).is_err());
        assert!(a.merge(fp(1.5, Some(4), Some(11))).is_err());
        assert!(a.merge(fp(1.5000000000000002, Some(4), Some(10))).is_err());
        let mut other = fp(1.5, Some(4), Some(10));
        other.schedule = Schedule::decline_all(4);
        assert!(a.merge(other).is_err());
        assert!(a.merge(fp(1.5, Some(4), Some(10))).is_ok());
    }
}
