//! Runtime certification of schedules and their accounting.
//!
//! The paper's profit claims are only as good as the arithmetic behind
//! them: `profit = Σ v_i − Σ u_e·⌈peak_e⌉` with the peak taken over the
//! *true* per-edge load. This module re-derives every one of those
//! quantities from scratch — straight from the instance and the
//! assignment vector, sharing no code with the incremental
//! [`LoadMatrix`] peak cache or the solvers — and compares bit-for-bit
//! against what a run reported. Because the reference recomputation
//! replays the same index-ordered folds the production path uses, any
//! divergence at all (one bit of profit, one cell of load) is a real
//! invariant break, not floating-point noise.
//!
//! Audits run after every solve when [`MetisConfig::audit`] is set or
//! under `debug_assertions`, and land in [`MetisResult::audit`] /
//! [`OnlineResult::audit`]; violations are counted in the telemetry
//! registry (`audit.checks` / `audit.violations`) and emitted on the
//! event stream. [`check_incident_agreement`] is offered standalone
//! because a [`Telemetry`] registry may aggregate several runs — the
//! caller decides when counter totals must equal a run's incident list.
//!
//! [`MetisConfig::audit`]: crate::MetisConfig::audit
//! [`MetisResult::audit`]: crate::MetisResult::audit
//! [`OnlineResult::audit`]: crate::OnlineResult::audit
//! [`LoadMatrix`]: metis_netsim::LoadMatrix

use metis_netsim::{ceil_units, EdgeId};
use metis_telemetry::{names, Snapshot, Telemetry};
use metis_workload::RequestId;

use crate::framework::Incident;
use crate::instance::SpmInstance;
use crate::schedule::{Evaluation, Schedule};

/// One broken invariant found by an audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// Stable machine-readable code for the invariant (`path.index`,
    /// `load.peak`, `accounting.profit`, `capacity.respect`, …).
    pub check: &'static str,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// Outcome of one or more audit passes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Individual invariant evaluations performed.
    pub checks: usize,
    /// Invariants that did not hold. Empty on a healthy run.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// Counts one check, recording a violation when `ok` is false.
    fn check(&mut self, ok: bool, code: &'static str, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(AuditViolation {
                check: code,
                detail: detail(),
            });
        }
    }

    /// Funnels the report into the telemetry registry: bumps
    /// `audit.checks` / `audit.violations` and emits one `audit` event
    /// per violation.
    pub fn record(&self, tele: &Telemetry) {
        tele.add(names::AUDIT_CHECKS, self.checks as u64);
        tele.add(names::AUDIT_VIOLATIONS, self.violations.len() as u64);
        for v in &self.violations {
            tele.event(names::EVENT_AUDIT, || v.to_string());
        }
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "audit clean ({} checks)", self.checks)
        } else {
            writeln!(
                f,
                "audit FAILED: {} of {} checks violated",
                self.violations.len(),
                self.checks
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Audits a schedule and its reported [`Evaluation`] against `instance`.
///
/// Re-derives, independently of [`Schedule::load`] and the
/// [`metis_netsim::LoadMatrix`] peak cache:
///
/// * **structure** — assignment length matches the instance;
/// * **paths** — every accepted request uses a valid candidate-path
///   index whose path really connects the request's endpoints;
/// * **windows** — request time windows sit inside the billing cycle;
/// * **load** — every `[edge][slot]` cell of the reported load matrix,
///   recomputed from the assignment alone (bit-exact);
/// * **peaks** — the per-edge peak cache against a from-scratch scan
///   (bit-exact);
/// * **accounting** — charged units, revenue, cost, and profit
///   (bit-exact), plus the accepted-request count.
pub fn audit_schedule(
    instance: &SpmInstance,
    schedule: &Schedule,
    evaluation: &Evaluation,
) -> AuditReport {
    let mut rep = AuditReport::default();
    let k = instance.num_requests();
    let num_edges = instance.topology().num_edges();
    let num_slots = instance.num_slots();

    rep.check(schedule.len() == k, "structure.len", || {
        format!(
            "schedule covers {} requests, instance has {k}",
            schedule.len()
        )
    });
    if schedule.len() != k {
        return rep; // nothing else is meaningful
    }

    // Reference load accumulation: plain dense matrix, same fold order as
    // the production path (requests by index, edges in path order, slots
    // ascending) so agreement must be bit-exact.
    let mut raw = vec![0.0f64; num_edges * num_slots];
    let mut revenue = 0.0f64;
    let mut accepted = 0usize;
    for i in 0..k {
        let id = RequestId(i as u32);
        let Some(j) = schedule.path_choice(id) else {
            continue;
        };
        accepted += 1;
        let r = instance.request(id);
        let paths = instance.paths(id);
        rep.check(j < paths.len(), "path.index", || {
            format!("{id} assigned path {j}, only {} candidates", paths.len())
        });
        rep.check(
            r.start <= r.end && r.end < num_slots,
            "window.containment",
            || {
                format!(
                    "{id} window [{}, {}] outside billing cycle of {num_slots} slots",
                    r.start, r.end
                )
            },
        );
        if j >= paths.len() || r.end >= num_slots {
            continue;
        }
        let path = &paths[j];
        rep.check(
            path.source() == r.src && path.dest() == r.dst,
            "path.endpoints",
            || {
                format!(
                    "{id} wants {}→{}, path {j} runs {}→{}",
                    r.src,
                    r.dst,
                    path.source(),
                    path.dest()
                )
            },
        );
        revenue += r.value;
        for &e in path.edges() {
            let base = e.index() * num_slots;
            for s in r.start..=r.end {
                // INDEX: e < num_edges and s ≤ r.end < num_slots by
                // instance validation; flat edge×slot layout.
                raw[base + s] += r.rate;
            }
        }
    }
    revenue += 0.0; // normalize the empty sum's −0.0, like Evaluation

    // Load cells and peaks, bit-for-bit.
    let load = &evaluation.load;
    let mut cell_mismatches = 0usize;
    let mut cost = 0.0f64;
    for e in 0..num_edges {
        let edge = EdgeId(e as u32);
        let row = &raw[e * num_slots..(e + 1) * num_slots];
        for (t, &expect) in row.iter().enumerate() {
            if load.get(edge, t).to_bits() != expect.to_bits() {
                cell_mismatches += 1;
            }
        }
        let scan = row.iter().fold(0.0f64, |a, &b| a.max(b));
        rep.check(
            load.peak(edge).to_bits() == scan.to_bits(),
            "load.peak",
            || {
                format!(
                    "edge {edge} cached peak {} ≠ from-scratch peak {scan}",
                    load.peak(edge)
                )
            },
        );
        let units = ceil_units(scan);
        rep.check(
            evaluation.charged[e].to_bits() == (units as f64).to_bits(),
            "accounting.charged",
            || {
                format!(
                    "edge {edge} charged {} units, peak {scan} demands {units}",
                    evaluation.charged[e]
                )
            },
        );
        cost += instance.topology().price(edge) * units as f64;
    }
    rep.check(cell_mismatches == 0, "load.cells", || {
        format!("{cell_mismatches} load cells differ from the assignment's true load")
    });

    rep.check(
        evaluation.revenue.to_bits() == revenue.to_bits(),
        "accounting.revenue",
        || {
            format!(
                "reported revenue {} ≠ recomputed {revenue}",
                evaluation.revenue
            )
        },
    );
    rep.check(
        evaluation.cost.to_bits() == cost.to_bits(),
        "accounting.cost",
        || format!("reported cost {} ≠ recomputed {cost}", evaluation.cost),
    );
    let profit = revenue - cost;
    rep.check(
        evaluation.profit.to_bits() == profit.to_bits(),
        "accounting.profit",
        || {
            format!(
                "reported profit {} ≠ recomputed revenue − cost = {profit}",
                evaluation.profit
            )
        },
    );
    rep.check(
        evaluation.accepted == accepted,
        "accounting.accepted",
        || {
            format!(
                "reported {} accepted requests, assignment has {accepted}",
                evaluation.accepted
            )
        },
    );
    rep
}

/// Audits TAA capacity respect: the schedule's true load must stay within
/// `caps` on every edge and slot (within the charging tolerance).
pub fn audit_capacities(instance: &SpmInstance, schedule: &Schedule, caps: &[f64]) -> AuditReport {
    let mut rep = AuditReport::default();
    rep.check(
        caps.len() == instance.topology().num_edges(),
        "capacity.shape",
        || {
            format!(
                "capacity vector has {} edges, topology {}",
                caps.len(),
                instance.topology().num_edges()
            )
        },
    );
    if caps.len() != instance.topology().num_edges() {
        return rep;
    }
    let outcome = schedule.check_capacities(instance, caps);
    rep.check(outcome.is_ok(), "capacity.respect", || {
        // The closure only runs on Err; render the violation.
        match &outcome {
            Err(v) => v.to_string(),
            Ok(()) => String::new(),
        }
    });
    rep
}

/// Audits agreement between a run's incident list and a telemetry
/// snapshot: each `incident.*` counter and the `incident` event stream
/// must equal the corresponding tally of [`Incident`]s.
///
/// Standalone (not called inside [`crate::metis_instrumented`]) because a
/// [`Telemetry`] registry may aggregate several runs; callers that
/// dedicate a registry to one run — the `spm` CLI, the e2e tests — get an
/// exact three-way agreement check between counters, events, and the
/// returned incident vec.
pub fn check_incident_agreement(incidents: &[Incident], snapshot: &Snapshot) -> AuditReport {
    let mut rep = AuditReport::default();
    let count = |f: fn(&Incident) -> bool| incidents.iter().filter(|i| f(i)).count() as u64;
    let pairs: [(&'static str, u64); 3] = [
        (
            names::INCIDENT_SOLVE_FAILED,
            count(|i| matches!(i, Incident::SolveFailed { .. })),
        ),
        (
            names::INCIDENT_WARM_RETRY,
            count(|i| matches!(i, Incident::WarmRetry { .. })),
        ),
        (
            names::INCIDENT_EPOCH_SKIPPED,
            count(|i| matches!(i, Incident::EpochSkipped { .. })),
        ),
    ];
    for (name, expected) in pairs {
        let counter = snapshot.counter(name);
        rep.check(counter == expected, "incident.counter", || {
            format!("counter {name} = {counter}, incident vec holds {expected}")
        });
    }
    let events = snapshot
        .events
        .iter()
        .filter(|e| e.kind == names::EVENT_INCIDENT)
        .count();
    rep.check(events == incidents.len(), "incident.events", || {
        format!(
            "{events} incident events on the stream, incident vec holds {}",
            incidents.len()
        )
    });
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::framework::{metis_instrumented, MetisConfig};
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance() -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(20, 7));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    /// Accept-all MAA: guaranteed to accept every request, so mutation
    /// tests always have accepted traffic to corrupt.
    fn good_run(inst: &SpmInstance) -> (Schedule, Evaluation) {
        let accepted = vec![true; inst.num_requests()];
        let res = crate::rlspm::maa(inst, &accepted, &crate::rlspm::MaaOptions::default()).unwrap();
        (res.schedule, res.evaluation)
    }

    #[test]
    fn clean_run_audits_clean() {
        let inst = instance();
        let (s, ev) = good_run(&inst);
        let rep = audit_schedule(&inst, &s, &ev);
        assert!(rep.is_clean(), "{rep}");
        assert!(rep.checks > 10);
    }

    #[test]
    fn dropped_path_hop_is_caught() {
        // Point a request at a path index past its candidate list.
        let inst = instance();
        let (mut s, ev) = good_run(&inst);
        let id = s.accepted_ids()[0];
        s.set(id, Some(usize::MAX));
        let rep = audit_schedule(&inst, &s, &ev);
        assert!(
            rep.violations.iter().any(|v| v.check == "path.index"),
            "{rep}"
        );
    }

    #[test]
    fn inflated_peak_is_caught() {
        let inst = instance();
        let (s, mut ev) = good_run(&inst);
        // Corrupt the load matrix behind the evaluation: extra phantom
        // traffic inflates one edge's cells and cached peak.
        ev.load.add(EdgeId(0), 0, 3, 2.5);
        let rep = audit_schedule(&inst, &s, &ev);
        assert!(
            rep.violations.iter().any(|v| v.check == "load.peak"),
            "{rep}"
        );
        assert!(
            rep.violations.iter().any(|v| v.check == "load.cells"),
            "{rep}"
        );
    }

    #[test]
    fn double_counted_revenue_is_caught() {
        let inst = instance();
        let (s, mut ev) = good_run(&inst);
        let v0 = inst.requests()[s.accepted_ids()[0].index()].value;
        ev.revenue += v0; // count the first accepted request twice
        ev.profit += v0;
        let rep = audit_schedule(&inst, &s, &ev);
        assert!(
            rep.violations
                .iter()
                .any(|v| v.check == "accounting.revenue"),
            "{rep}"
        );
        assert!(
            rep.violations
                .iter()
                .any(|v| v.check == "accounting.profit"),
            "{rep}"
        );
    }

    #[test]
    fn capacity_violation_is_caught() {
        let inst = instance();
        let (s, _) = good_run(&inst);
        assert!(s.num_accepted() > 0, "need an accepted request");
        // Zero capacity everywhere: any accepted traffic violates.
        let caps = vec![0.0; inst.topology().num_edges()];
        let rep = audit_capacities(&inst, &s, &caps);
        assert!(
            rep.violations.iter().any(|v| v.check == "capacity.respect"),
            "{rep}"
        );
        // And the true charged capacities satisfy it.
        let (_, ev) = good_run(&inst);
        let rep2 = audit_capacities(&inst, &s, &ev.charged);
        assert!(rep2.is_clean(), "{rep2}");
    }

    #[test]
    fn desynced_incident_counter_is_caught() {
        use metis_lp::SolveError;
        let tele = Telemetry::enabled();
        let inst = instance();
        let res = metis_instrumented(
            &inst,
            &MetisConfig::with_theta(2),
            &FaultPlan::none(),
            &tele,
        )
        .unwrap();
        let snap = tele.snapshot().unwrap();
        // Healthy run: counters, events, and vec agree.
        let rep = check_incident_agreement(&res.incidents, &snap);
        assert!(rep.is_clean(), "{rep}");
        // Desync: pretend the run observed one more incident than the
        // registry counted.
        let mut forged = res.incidents.clone();
        forged.push(Incident::SolveFailed {
            phase: crate::framework::Phase::Maa,
            round: 99,
            error: SolveError::Singular,
        });
        let rep = check_incident_agreement(&forged, &snap);
        assert!(
            rep.violations.iter().any(|v| v.check == "incident.counter"),
            "{rep}"
        );
        assert!(
            rep.violations.iter().any(|v| v.check == "incident.events"),
            "{rep}"
        );
    }

    #[test]
    fn report_funnels_into_telemetry() {
        let tele = Telemetry::enabled();
        let mut rep = AuditReport::default();
        rep.check(true, "demo.pass", String::new);
        rep.check(false, "demo.fail", || "broken".to_string());
        rep.record(&tele);
        let snap = tele.snapshot().unwrap();
        assert_eq!(snap.counter(names::AUDIT_CHECKS), 2);
        assert_eq!(snap.counter(names::AUDIT_VIOLATIONS), 1);
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.kind == names::EVENT_AUDIT)
                .count(),
            1
        );
    }
}
