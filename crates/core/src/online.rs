//! Online (epoch-based) Metis — an extension beyond the paper.
//!
//! The paper schedules a whole billing cycle's requests offline, noting
//! that providers "could dynamically adjust the bandwidth to purchase and
//! the requests to accept". This module simulates that: requests are
//! revealed in arrival order, grouped into decision epochs by start slot,
//! and each epoch is scheduled by a myopic Metis run that cannot revisit
//! earlier commitments. Comparing [`online_metis`] with the offline
//! [`crate::metis`] quantifies the value of foresight.
//!
//! The per-epoch runs are *conservative*: each prices its own bandwidth
//! as if it were alone on the WAN, while the final bill (peak-based,
//! shared across epochs) can only be lower than the sum of the parts.

use metis_telemetry::{names, Telemetry};
use metis_workload::RequestId;

use crate::error::MetisError;
use crate::faults::FaultPlan;
use crate::framework::{metis_instrumented, note_incident, Incident, MetisConfig};
use crate::instance::SpmInstance;
use crate::schedule::{Evaluation, Schedule};

/// Options for [`online_metis`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineOptions {
    /// Number of decision epochs the cycle is cut into (1 = offline).
    pub epochs: usize,
    /// Configuration of each epoch's Metis run.
    pub metis: MetisConfig,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            epochs: 4,
            metis: MetisConfig::with_theta(4),
        }
    }
}

/// Outcome of one epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Requests that arrived in this epoch.
    pub arrived: usize,
    /// How many of them were accepted.
    pub accepted: usize,
    /// Combined profit (true shared billing) after committing this epoch.
    pub profit_so_far: f64,
}

/// Result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineResult {
    /// The combined schedule over the original instance.
    pub schedule: Schedule,
    /// Its evaluation under shared peak billing.
    pub evaluation: Evaluation,
    /// Per-epoch trace.
    pub epochs: Vec<EpochRecord>,
    /// Contained failures across all epochs, in observation order: the
    /// inner runs' incidents plus one [`Incident::EpochSkipped`] per
    /// epoch whose whole run failed.
    pub incidents: Vec<Incident>,
    /// Merged audit outcome: every inner run's report plus a final audit
    /// of the combined schedule against the original instance. `Some`
    /// whenever auditing was active ([`MetisConfig::audit`] on
    /// `options.metis` or `debug_assertions`), `None` otherwise.
    ///
    /// [`MetisConfig::audit`]: crate::MetisConfig::audit
    pub audit: Option<crate::audit::AuditReport>,
}

impl OnlineResult {
    /// Epochs whose whole run failed (their requests were declined).
    pub fn skipped_epochs(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i, Incident::EpochSkipped { .. }))
            .count()
    }
}

/// Runs Metis myopically, epoch by epoch.
///
/// Requests are assigned to epoch `⌊start · epochs / T⌋`; each epoch's
/// accept/route decisions are made by a fresh Metis run over only that
/// epoch's requests and are final.
///
/// # Errors
///
/// Returns [`MetisError`] only for malformed instances; solver failures
/// are contained. An epoch whose whole run fails (see
/// [`online_metis_instrumented`]) is skipped — its requests are declined,
/// the remaining epochs proceed — and recorded as
/// [`Incident::EpochSkipped`] in [`OnlineResult::incidents`].
///
/// # Panics
///
/// Panics if `options.epochs == 0`.
///
/// # Examples
///
/// ```
/// use metis_core::{metis, online_metis, MetisConfig, OnlineOptions, SpmInstance};
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(40, 5));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
///
/// let online = online_metis(&instance, &OnlineOptions::default())?;
/// let offline = metis(&instance, &MetisConfig::with_theta(4))?;
/// // Foresight can only help (up to heuristic noise).
/// assert!(online.evaluation.profit <= offline.evaluation.profit + 5.0);
/// # Ok::<(), metis_core::MetisError>(())
/// ```
pub fn online_metis(
    instance: &SpmInstance,
    options: &OnlineOptions,
) -> Result<OnlineResult, MetisError> {
    online_metis_instrumented(
        instance,
        options,
        &FaultPlan::none(),
        &Telemetry::disabled(),
    )
}

/// Runs online Metis under a [`FaultPlan`], recording telemetry into
/// `tele`.
///
/// Epoch faults ([`FaultPlan::fail_epoch`]) kill the matching epoch's
/// whole run, simulating a per-epoch crash or timeout: that epoch's
/// requests stay declined, an [`Incident::EpochSkipped`] is recorded,
/// and every other epoch is unaffected. Solver points of the plan are
/// *not* forwarded to the inner per-epoch runs (attempt indices would be
/// ambiguous across epochs); inner runs still contain their own organic
/// solver failures and surface those incidents here. With
/// [`FaultPlan::none`] and [`Telemetry::disabled`] this is exactly
/// [`online_metis`].
///
/// The whole run executes under the `online` span; each epoch gets an
/// `online.epoch` child span (the inner Metis run's spans nest below
/// it), the per-epoch accepted count and cumulative profit are pushed to
/// the `online.epoch.accepted` / `online.epoch.profit` series, and every
/// skipped epoch is counted in `incident.epoch_skipped` and emitted on
/// the event stream as well as recorded in [`OnlineResult::incidents`].
/// Recording is write-only: the result is bit-identical whether
/// telemetry is on or off.
///
/// # Errors
///
/// Same as [`online_metis`].
///
/// # Panics
///
/// Panics if `options.epochs == 0`.
pub fn online_metis_instrumented(
    instance: &SpmInstance,
    options: &OnlineOptions,
    faults: &FaultPlan,
    tele: &Telemetry,
) -> Result<OnlineResult, MetisError> {
    assert!(options.epochs >= 1, "need at least one epoch");
    let _online = tele.span(names::SPAN_ONLINE);
    let k = instance.num_requests();
    let slots = instance.num_slots();

    // Group original request indices by epoch.
    let mut per_epoch: Vec<Vec<usize>> = vec![Vec::new(); options.epochs];
    for (i, r) in instance.requests().iter().enumerate() {
        let e = (r.start * options.epochs / slots).min(options.epochs - 1);
        per_epoch[e].push(i);
    }

    let mut combined = Schedule::decline_all(k);
    let mut trace = Vec::with_capacity(options.epochs);
    let mut incidents: Vec<Incident> = Vec::new();
    let auditing = options.metis.audit || cfg!(debug_assertions);
    let mut audit_acc = auditing.then(crate::audit::AuditReport::default);
    for (e, members) in per_epoch.iter().enumerate() {
        let _epoch = tele.span(names::SPAN_EPOCH);
        let mut accepted_here = 0;
        if !members.is_empty() {
            let epoch_run = match faults.epoch_fault(e) {
                Some(error) => Err(MetisError::Solve(error)),
                None => metis_instrumented(
                    &instance.try_subset(members)?,
                    &options.metis,
                    &FaultPlan::none(),
                    tele,
                ),
            };
            match epoch_run {
                Ok(result) => {
                    // Inner incidents were already counted and emitted as
                    // events by the inner run; only collect them here.
                    incidents.extend(result.incidents.iter().cloned());
                    if let (Some(acc), Some(inner)) = (audit_acc.as_mut(), result.audit) {
                        acc.merge(inner);
                    }
                    for (local, &original) in members.iter().enumerate() {
                        let choice = result.schedule.path_choice(RequestId(local as u32));
                        if choice.is_some() {
                            accepted_here += 1;
                        }
                        combined.set(RequestId(original as u32), choice);
                    }
                }
                Err(MetisError::Solve(error)) => {
                    // Degrade: this epoch's requests stay declined; the
                    // epochs before and after are untouched.
                    note_incident(
                        tele,
                        &mut incidents,
                        Incident::EpochSkipped {
                            epoch: e,
                            arrived: members.len(),
                            error,
                        },
                    );
                }
                Err(e @ MetisError::Instance(_)) => return Err(e),
            }
        }
        let eval = combined.evaluate(instance);
        tele.push(names::ONLINE_EPOCH_ACCEPTED, accepted_here as f64);
        tele.push(names::ONLINE_EPOCH_PROFIT, eval.profit);
        trace.push(EpochRecord {
            epoch: e,
            arrived: members.len(),
            accepted: accepted_here,
            profit_so_far: eval.profit,
        });
    }

    let evaluation = combined.evaluate(instance);
    if let Some(acc) = audit_acc.as_mut() {
        // The combined schedule's paths and accounting are re-derived
        // against the *original* instance, so the epoch-to-original index
        // mapping above is certified too. Inner runs already recorded
        // their reports; funnel only this outer audit into telemetry so
        // the registry's totals match the merged report.
        let outer = crate::audit::audit_schedule(instance, &combined, &evaluation);
        outer.record(tele);
        acc.merge(outer);
    }
    Ok(OnlineResult {
        schedule: combined,
        evaluation,
        epochs: trace,
        incidents,
        audit: audit_acc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::metis;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64) -> SpmInstance {
        let topo = topologies::b4();
        let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, requests, 12, 3)
    }

    #[test]
    fn one_epoch_equals_offline() {
        let inst = instance(60, 1);
        let opts = OnlineOptions {
            epochs: 1,
            metis: MetisConfig::with_theta(4),
        };
        let online = online_metis(&inst, &opts).unwrap();
        let offline = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
        assert_eq!(online.schedule, offline.schedule);
        assert_eq!(online.evaluation.profit, offline.evaluation.profit);
    }

    #[test]
    fn every_request_lands_in_exactly_one_epoch() {
        let inst = instance(120, 2);
        let online = online_metis(&inst, &OnlineOptions::default()).unwrap();
        let arrived: usize = online.epochs.iter().map(|e| e.arrived).sum();
        assert_eq!(arrived, 120);
        assert_eq!(online.schedule.len(), 120);
    }

    #[test]
    fn epoch_decisions_only_touch_own_requests() {
        let inst = instance(80, 3);
        let opts = OnlineOptions {
            epochs: 4,
            metis: MetisConfig::with_theta(2),
        };
        let online = online_metis(&inst, &opts).unwrap();
        // Any accepted request routes on one of its own candidate paths.
        for i in 0..80u32 {
            if let Some(j) = online.schedule.path_choice(RequestId(i)) {
                assert!(j < inst.paths(RequestId(i)).len());
            }
        }
        // The per-epoch accepted counts add up to the schedule's.
        let accepted: usize = online.epochs.iter().map(|e| e.accepted).sum();
        assert_eq!(accepted, online.schedule.num_accepted());
    }

    #[test]
    fn profit_trace_is_cumulative() {
        let inst = instance(100, 4);
        let online = online_metis(&inst, &OnlineOptions::default()).unwrap();
        let last = online.epochs.last().unwrap();
        assert!((last.profit_so_far - online.evaluation.profit).abs() < 1e-9);
    }

    #[test]
    fn foresight_usually_wins() {
        // Offline Metis sees everything; at scale it should beat (or tie)
        // the myopic 12-epoch variant.
        let inst = instance(200, 5);
        let offline = metis(&inst, &MetisConfig::with_theta(6)).unwrap();
        let online = online_metis(
            &inst,
            &OnlineOptions {
                epochs: 12,
                metis: MetisConfig::with_theta(6),
            },
        )
        .unwrap();
        assert!(
            offline.evaluation.profit >= online.evaluation.profit * 0.9,
            "offline {} vs online {}",
            offline.evaluation.profit,
            online.evaluation.profit
        );
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        let inst = instance(5, 6);
        let _ = online_metis(
            &inst,
            &OnlineOptions {
                epochs: 0,
                metis: MetisConfig::default(),
            },
        );
    }
}
