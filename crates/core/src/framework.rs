//! The Metis alternation framework (§II-C, Fig. 1 of the paper).
//!
//! Metis alternates the two SPM variants: the **RL-SPM Solver** (MAA)
//! minimizes cost for the currently-accepted requests; the **BW Limiter**
//! tightens capacities by rule `τ`; the **BL-SPM Solver** (TAA) re-selects
//! the revenue-maximizing subset under those capacities; the **SP
//! Updater** keeps the most profitable schedule seen. The loop runs `θ`
//! rounds or until the accepted set drains.

use std::fmt;
use std::time::Instant;

use metis_lp::{SolveError, SolveOptions, SolveStats};
use metis_telemetry::{names, Telemetry};
use metis_workload::RequestId;

use crate::audit::{audit_capacities, audit_schedule, AuditReport};
use crate::blspm::{taa_instrumented, BlspmSolver};
use crate::error::MetisError;
use crate::faults::FaultPlan;
use crate::instance::SpmInstance;
use crate::limiter::LimiterRule;
use crate::parallel::ParallelConfig;
use crate::rlspm::{maa_instrumented, MaaOptions, RlspmSolver};
use crate::schedule::{Evaluation, Schedule};

/// Configuration of one Metis run.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct MetisConfig {
    /// Number of alternation rounds `θ`; each round is one
    /// limit → TAA → MAA pass. `0` runs only the initial MAA.
    pub theta: usize,
    /// The bandwidth-reduction rule `τ`.
    pub limiter: LimiterRule,
    /// Worker threads for both phases: MAA's rounding trials and TAA's
    /// candidate evaluation. Thread count never changes results: trials
    /// and candidate scores come from per-index RNG streams / read-only
    /// state and are always reduced in index order.
    pub parallel: ParallelConfig,
    /// Start each round's relaxation from the simplex basis the phase's
    /// previous solve ended at. Either way a run builds one
    /// [`RlspmSolver`] and one [`BlspmSolver`] and re-solves them every
    /// round; without this flag each solve first drops the kept basis and
    /// starts cold. Off by default: warm and cold runs reach the same LP
    /// optima, but may pick different tied vertices and therefore
    /// different (equally valid) schedules. A cold solve depends on its
    /// input alone, so a cold run that asks MAA again for the acceptance
    /// mask of its last MAA step reuses that step and spends 0 pivots on
    /// it; a warm run always solves.
    pub warm_start: bool,
    /// MAA's rounding options.
    pub maa: MaaOptions,
    /// Audit every solve: certify each LP solution independently
    /// ([`metis_lp::SolveOptions::verify`]) and re-derive each recorded
    /// schedule's load, peaks, and accounting from scratch
    /// ([`crate::audit`]), collecting the outcome in
    /// [`MetisResult::audit`]. Always on under `debug_assertions`;
    /// this flag forces it in release builds too.
    pub audit: bool,
}

impl MetisConfig {
    /// A sensible default: `θ = 8` rounds with the paper's
    /// min-utilization rule.
    pub fn with_theta(theta: usize) -> Self {
        MetisConfig {
            theta,
            ..MetisConfig::default()
        }
    }
}

/// Which solver produced an iteration's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// RL-SPM Solver (MAA).
    Maa,
    /// BL-SPM Solver (TAA).
    Taa,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Maa => "MAA",
            Phase::Taa => "TAA",
        })
    }
}

/// One entry of the solver convergence trace: an *attempted* solver
/// invocation, whether it produced a schedule or failed.
///
/// The trace records one entry per attempt, so a run's shape — which
/// rounds converged, which degraded, how hard the LP worked — can be
/// reconstructed after the fact; its completed entries are the run's
/// profit history. Captured unconditionally (it is pure bookkeeping on
/// values the framework already computes), so results stay bit-identical
/// with telemetry on or off.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundTrace {
    /// Alternation round: 0 for the initialization MAA, `1..=θ` after.
    pub round: usize,
    /// Which solver was invoked.
    pub phase: Phase,
    /// Whether the solve produced a schedule. `false` means the attempt
    /// failed even after any cold retry and the round's update was
    /// skipped; the profit/effort fields below are then zero.
    pub completed: bool,
    /// Profit of the schedule this invocation produced (0 if it failed).
    pub profit: f64,
    /// The SP Updater's record *after* this invocation was folded in.
    pub best_profit: f64,
    /// Accepted requests in the produced schedule (0 if it failed).
    pub accepted: usize,
    /// TAA's scaling factor `μ` — `None` for MAA entries and for TAA
    /// rounds that declined everything rather than scale without a
    /// guarantee.
    pub mu: Option<f64>,
    /// Simplex pivots spent on this invocation's LP relaxation: 0 for a
    /// cold run's MAA step reused because TAA handed back the mask the
    /// last MAA step solved (see [`MetisConfig::warm_start`]).
    pub lp_iterations: usize,
    /// Whether that LP reoptimized from a prior basis.
    pub warm_started: bool,
    /// Contained failures attributed to this invocation (warm retries
    /// and final failures); the sum over all entries equals
    /// [`MetisResult::incidents`]`.len()` for offline runs.
    pub incidents: usize,
}

impl RoundTrace {
    /// Trace length bound: entries past this are dropped (and counted in
    /// the `alternation.trace.dropped` metric) so adversarially large
    /// `θ` cannot balloon the result.
    pub const CAPACITY: usize = 4_096;
}

/// One contained failure observed during a run.
///
/// Incidents never abort the run: the framework records what went wrong
/// and degrades (retries a solve cold, skips a round's update, or skips
/// a whole online epoch) while the SP Updater keeps the best-so-far
/// schedule. `round` is 0 for the initialization MAA and `1..=θ` for the
/// alternation rounds; online epochs use their own `epoch` index.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Incident {
    /// A solve failed (after any retry); the round's update was skipped
    /// and the alternation continued from the best-so-far schedule.
    SolveFailed {
        /// The phase whose solve failed.
        phase: Phase,
        /// The alternation round (0 = initialization).
        round: usize,
        /// The final error after retries.
        error: SolveError,
    },
    /// A warm-started solve failed and was retried from a cold basis.
    WarmRetry {
        /// The phase whose warm solve failed.
        phase: Phase,
        /// The alternation round (0 = initialization).
        round: usize,
        /// The warm attempt's error.
        error: SolveError,
    },
    /// An online epoch's whole run failed; its requests were declined
    /// and the remaining epochs proceeded normally.
    EpochSkipped {
        /// The skipped epoch.
        epoch: usize,
        /// How many requests arrived (and were therefore declined) in it.
        arrived: usize,
        /// The failure that killed the epoch.
        error: SolveError,
    },
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Incident::SolveFailed {
                phase,
                round,
                error,
            } => write!(f, "{phase} solve failed at round {round}: {error}"),
            Incident::WarmRetry {
                phase,
                round,
                error,
            } => write!(
                f,
                "{phase} warm solve failed at round {round}, retrying cold: {error}"
            ),
            Incident::EpochSkipped {
                epoch,
                arrived,
                error,
            } => write!(
                f,
                "epoch {epoch} skipped, {arrived} arrived requests declined: {error}"
            ),
        }
    }
}

/// Counts an incident in the metrics registry, emits it on the event
/// stream, and appends it to the run's incident list — the single funnel
/// every contained failure goes through.
pub(crate) fn note_incident(tele: &Telemetry, incidents: &mut Vec<Incident>, incident: Incident) {
    match &incident {
        Incident::SolveFailed { .. } => tele.incr(names::INCIDENT_SOLVE_FAILED),
        Incident::WarmRetry { .. } => tele.incr(names::INCIDENT_WARM_RETRY),
        Incident::EpochSkipped { .. } => tele.incr(names::INCIDENT_EPOCH_SKIPPED),
    }
    tele.event(names::EVENT_INCIDENT, || incident.to_string());
    incidents.push(incident);
}

/// Result of a Metis run.
#[derive(Clone, Debug)]
pub struct MetisResult {
    /// The most profitable schedule seen (the SP Updater's record).
    pub schedule: Schedule,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Number of completed alternation rounds (≤ `θ`).
    pub rounds: usize,
    /// Contained failures, in the order they were observed. Empty on a
    /// healthy run.
    pub incidents: Vec<Incident>,
    /// Convergence trace: one [`RoundTrace`] per attempted solver
    /// invocation, in execution order (bounded by
    /// [`RoundTrace::CAPACITY`]).
    pub round_trace: Vec<RoundTrace>,
    /// Outcome of the solution audits ([`crate::audit`]) run over every
    /// recorded schedule. `Some` whenever auditing was active
    /// ([`MetisConfig::audit`] or `debug_assertions`), `None` otherwise.
    pub audit: Option<crate::audit::AuditReport>,
}

impl MetisResult {
    /// Rounds whose solve failed even after retries (their updates were
    /// skipped).
    pub fn failed_rounds(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i, Incident::SolveFailed { .. }))
            .count()
    }

    /// Warm-started solves that fell back to a cold basis.
    pub fn warm_retries(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i, Incident::WarmRetry { .. }))
            .count()
    }
}

/// Runs Metis on an instance.
///
/// The SP Updater starts from zero profit (decline everything), so the
/// result's profit is never negative.
///
/// Solver failures inside the alternation are contained rather than
/// propagated: a failed warm solve is retried once from a cold basis, a
/// round whose solve still fails is skipped (the loop continues from the
/// SP Updater's best-so-far schedule), and every such event is recorded
/// in [`MetisResult::incidents`].
///
/// # Errors
///
/// Returns [`MetisError`] only when no degradation path exists (today:
/// never for solver failures; the variant is kept for malformed-instance
/// propagation by higher layers).
///
/// # Examples
///
/// ```
/// use metis_core::{metis, MetisConfig, SpmInstance};
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let requests = generate(&topo, &WorkloadConfig::paper(25, 9));
/// let instance = SpmInstance::new(topo, requests, 12, 3);
/// let result = metis(&instance, &MetisConfig::with_theta(4))?;
/// assert!(result.evaluation.profit >= 0.0);
/// assert!(result.incidents.is_empty());
/// # Ok::<(), metis_core::MetisError>(())
/// ```
pub fn metis(instance: &SpmInstance, config: &MetisConfig) -> Result<MetisResult, MetisError> {
    metis_instrumented(instance, config, &FaultPlan::none(), &Telemetry::disabled())
}

/// Runs Metis under a [`FaultPlan`], recording telemetry into `tele`.
///
/// The plan is consulted before each solve, so with [`FaultPlan::none`]
/// and [`Telemetry::disabled`] this is exactly [`metis`]; see
/// [`FaultPlan`] for how solver attempts are counted.
///
/// The whole run executes under the `metis` span; each round (including
/// the round-0 initialization MAA) gets an `alternation.round` child span
/// plus an entry in the `alternation.round.duration_us` histogram and the
/// `alternation.round.profit` series, the limiter runs under
/// `limiter.apply`, and every contained failure is counted in the
/// `incident.*` metrics and emitted on the event stream as well as
/// recorded in [`MetisResult::incidents`].
///
/// Telemetry is write-only: nothing in the pipeline reads it, all series
/// and histograms are recorded on the calling thread after each parallel
/// region's index-ordered reduction, and [`Telemetry::disabled`] (what
/// [`metis`] passes) skips every recording — so the returned
/// [`MetisResult`] is bit-identical whether telemetry is on or off, at
/// any thread count.
///
/// # Errors
///
/// Same as [`metis`].
pub fn metis_instrumented(
    instance: &SpmInstance,
    config: &MetisConfig,
    faults: &FaultPlan,
    tele: &Telemetry,
) -> Result<MetisResult, MetisError> {
    let _metis_span = tele.span(names::SPAN_METIS);
    let k = instance.num_requests();

    let threads = config.parallel.effective_threads();
    let lp = SolveOptions {
        verify: config.audit,
    };
    // One program per phase for the whole run; a cold solve only drops
    // the kept basis.
    let mut maa = MaaStage {
        instance,
        config,
        lp,
        threads,
        tele,
        solver: RlspmSolver::new(instance),
        last: None,
    };
    let mut bl_solver = BlspmSolver::new(instance);
    let mut run_taa = |caps: &[f64], cold: bool| {
        if cold || !config.warm_start {
            bl_solver.reset_basis();
        }
        taa_instrumented(instance, caps, &lp, threads, &mut bl_solver, tele).map(|t| Step {
            schedule: t.schedule,
            evaluation: t.evaluation,
            stats: t.relaxation.stats,
            mu: t.mu,
        })
    };

    let best_schedule = Schedule::decline_all(k);
    let best_eval = best_schedule.evaluate(instance);
    let mut run = Alternation {
        instance,
        faults,
        tele,
        retry_cold: config.warm_start,
        incidents: Vec::new(),
        maa_attempts: 0,
        taa_attempts: 0,
        trace: Vec::new(),
        best_schedule,
        best_eval,
        audit: (config.audit || cfg!(debug_assertions)).then(AuditReport::default),
    };

    // Round 0 is the initialization: accept every request and minimize
    // its cost. Running capacity budget: what the provider would purchase
    // for the current accepted set. Kept element-wise monotone so the
    // limiter makes progress even when the accepted set stalls. If the
    // initialization solve fails, the budget stays all-zero and the loop
    // exits immediately with the decline-all record — degraded, not dead.
    let mut accepted = vec![true; k];
    let mut caps = vec![0.0; instance.topology().num_edges()];
    let mut rounds = 0;
    for round in 0..=config.theta {
        if round > 0 && caps.iter().all(|&c| c <= 0.0) {
            break;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "gated behind tele.is_enabled(); never read in deterministic runs"
        )]
        let round_start = tele.is_enabled().then(Instant::now);
        let round_span = tele.span(names::SPAN_ROUND);
        let stop = 'round: {
            if round > 0 {
                rounds = round;
                // BW Limiter: tighten by rule τ, based on the best load seen.
                {
                    let _limiter = tele.span(names::SPAN_LIMITER);
                    caps = config
                        .limiter
                        .apply(instance.topology(), &run.best_eval.load, &caps);
                }

                // BL-SPM Solver: re-select requests under the tightened
                // budget. On failure the accepted set and the SP Updater's
                // record stand; the tightened budget carries over so the
                // limiter still makes progress next round.
                let Some(t) = run.step(Phase::Taa, round, Some(&caps), |cold| run_taa(&caps, cold))
                else {
                    break 'round false;
                };
                accepted = (0..k)
                    .map(|i| t.schedule.is_accepted(RequestId(i as u32)))
                    .collect();
                if accepted.iter().all(|&a| !a) {
                    break 'round true;
                }
            }

            // RL-SPM Solver: minimize cost for the accepted set. On failure
            // only the budget refinement is skipped.
            if let Some(m) = run.step(Phase::Maa, round, None, |cold| maa.solve(&accepted, cold)) {
                if round == 0 {
                    caps.clone_from(&m.evaluation.charged);
                } else {
                    for (c, &m_c) in caps.iter_mut().zip(&m.evaluation.charged) {
                        *c = c.min(m_c);
                    }
                }
                maa.keep(&accepted, m);
            }
            false
        };
        drop(round_span);
        if let Some(start) = round_start {
            tele.observe(names::ROUND_DURATION_US, start.elapsed().as_micros() as f64);
        }
        tele.incr(names::ROUNDS);
        tele.push(names::ROUND_PROFIT, run.best_eval.profit);
        if stop {
            break;
        }
    }

    let Alternation {
        incidents,
        trace,
        best_schedule,
        best_eval,
        mut audit,
        ..
    } = run;
    if let Some(acc) = audit.as_mut() {
        // Audit the returned record too: the SP Updater's best pair is
        // what callers act on, so its (schedule, evaluation) agreement is
        // certified even when it was the untouched decline-all baseline.
        acc.merge(audit_schedule(instance, &best_schedule, &best_eval));
        acc.record(tele);
    }

    Ok(MetisResult {
        schedule: best_schedule,
        evaluation: best_eval,
        rounds,
        incidents,
        round_trace: trace,
        audit,
    })
}

/// MAA's side of the alternation: the run's RL-SPM program and, in a
/// cold run, the last successful step with the mask it solved.
///
/// A cold RL-SPM solve depends on the mask alone: the solve sets every
/// `y` bound from it, starts from the crash basis, replays no pivot path
/// and carries nothing over in its workspace, and MAA's rounding is
/// seeded per trial, not per round. So when TAA hands back the mask the
/// kept step solved, that step is the answer again, with no LP work. A
/// warm solve's vertex depends on its start basis, so warm runs keep
/// nothing.
struct MaaStage<'a> {
    instance: &'a SpmInstance,
    config: &'a MetisConfig,
    lp: SolveOptions,
    threads: usize,
    tele: &'a Telemetry,
    solver: RlspmSolver,
    last: Option<(Vec<bool>, Step)>,
}

impl MaaStage<'_> {
    /// MAA on `accepted`: the kept step again, with zero [`SolveStats`],
    /// when it solved `accepted`; otherwise a relaxation solve (cold
    /// unless the run is warm and `cold` is false) and its rounding.
    fn solve(&mut self, accepted: &[bool], cold: bool) -> Result<Step, SolveError> {
        if let Some((_, step)) = self.last.as_ref().filter(|(mask, _)| mask == accepted) {
            #[cfg(debug_assertions)]
            assert_reuse_is_exact(
                self.instance,
                accepted,
                &self.config.maa,
                &self.lp,
                self.threads,
                &mut self.solver,
                step,
            );
            return Ok(Step {
                schedule: step.schedule.clone(),
                evaluation: step.evaluation.clone(),
                stats: SolveStats::default(),
                mu: None,
            });
        }
        if cold || !self.config.warm_start {
            self.solver.reset_basis();
        }
        maa_instrumented(
            self.instance,
            accepted,
            &self.config.maa,
            &self.lp,
            self.threads,
            &mut self.solver,
            self.tele,
        )
        .map(|m| Step {
            schedule: m.schedule,
            evaluation: m.evaluation,
            stats: m.relaxation.stats,
            mu: None,
        })
    }

    /// Keeps `step`, what [`MaaStage::solve`] returned for `accepted`,
    /// for the next solve of the same mask. Cold runs only.
    fn keep(&mut self, accepted: &[bool], step: Step) {
        if !self.config.warm_start {
            self.last = Some((accepted.to_vec(), step));
        }
    }
}

/// Checks a reused MAA step against the cold solve and rounding it
/// stands for, run on the run's own solver with telemetry off.
#[cfg(debug_assertions)]
fn assert_reuse_is_exact(
    instance: &SpmInstance,
    accepted: &[bool],
    options: &MaaOptions,
    lp: &SolveOptions,
    threads: usize,
    solver: &mut RlspmSolver,
    reused: &Step,
) {
    solver.reset_basis();
    let fresh = maa_instrumented(
        instance,
        accepted,
        options,
        lp,
        threads,
        solver,
        &Telemetry::disabled(),
    );
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    assert!(
        fresh.is_ok_and(|m| {
            let (e, r) = (&m.evaluation, &reused.evaluation);
            m.schedule == reused.schedule
                && same(&[e.profit, e.cost], &[r.profit, r.cost])
                && same(&e.charged, &r.charged)
        }),
        "a reused MAA step differs from the cold solve of its mask"
    );
}

/// One solver invocation's output, common to both phases.
struct Step {
    schedule: Schedule,
    evaluation: Evaluation,
    stats: SolveStats,
    /// TAA's scaling factor; always `None` for MAA.
    mu: Option<f64>,
}

/// Per-run state of the alternation: what every phase solve reads or
/// records.
struct Alternation<'a> {
    instance: &'a SpmInstance,
    faults: &'a FaultPlan,
    tele: &'a Telemetry,
    /// Retry a failed solve once from a cold basis (warm-started runs).
    retry_cold: bool,
    incidents: Vec<Incident>,
    /// Solve attempts so far per phase, cold retries included.
    maa_attempts: usize,
    taa_attempts: usize,
    trace: Vec<RoundTrace>,
    /// SP Updater: the most profitable schedule seen. Profit starts at
    /// zero with everything declined.
    best_schedule: Schedule,
    best_eval: Evaluation,
    /// `Some` while auditing: always in debug builds; `config.audit`
    /// forces it in release builds and additionally certifies every LP
    /// solution.
    audit: Option<AuditReport>,
}

impl Alternation<'_> {
    /// Runs one phase solve under the fault plan and records it: audits
    /// the schedule (TAA's also against the limiter's `budget`), folds it
    /// into the SP Updater's record, and pushes exactly one [`RoundTrace`]
    /// entry, completed or failed (past [`RoundTrace::CAPACITY`] the entry
    /// is dropped and counted instead).
    ///
    /// Every attempt, the cold retry included, counts against the phase's
    /// attempt index, so fault plans can target retries. With
    /// `retry_cold`, a failed first attempt is retried once with
    /// `solve(true)` (the caller drops its warm basis); a failure with no
    /// retry left becomes an [`Incident::SolveFailed`] and `None` is
    /// returned.
    fn step(
        &mut self,
        phase: Phase,
        round: usize,
        budget: Option<&[f64]>,
        mut solve: impl FnMut(bool) -> Result<Step, SolveError>,
    ) -> Option<Step> {
        let incidents_before = self.incidents.len();
        let faults = self.faults;
        let attempts = match phase {
            Phase::Maa => &mut self.maa_attempts,
            Phase::Taa => &mut self.taa_attempts,
        };
        let mut attempt = |cold: bool| {
            let a = *attempts;
            *attempts += 1;
            match faults.solver_fault(phase, a) {
                Some(e) => Err(e),
                None => solve(cold),
            }
        };
        let outcome = match attempt(false) {
            Err(error) if self.retry_cold => {
                note_incident(
                    self.tele,
                    &mut self.incidents,
                    Incident::WarmRetry {
                        phase,
                        round,
                        error,
                    },
                );
                attempt(true)
            }
            first => first,
        };
        let step = match outcome {
            Ok(step) => Some(step),
            Err(error) => {
                note_incident(
                    self.tele,
                    &mut self.incidents,
                    Incident::SolveFailed {
                        phase,
                        round,
                        error,
                    },
                );
                None
            }
        };

        if let Some(s) = &step {
            if let Some(acc) = self.audit.as_mut() {
                if let Some(caps) = budget {
                    // TAA must respect the budget the limiter just set.
                    acc.merge(audit_capacities(self.instance, &s.schedule, caps));
                }
                acc.merge(audit_schedule(self.instance, &s.schedule, &s.evaluation));
            }
            if s.evaluation.profit > self.best_eval.profit {
                self.best_schedule = s.schedule.clone();
                self.best_eval = s.evaluation.clone();
            }
        }

        if self.trace.len() >= RoundTrace::CAPACITY {
            self.tele.incr(names::TRACE_ROUNDS_DROPPED);
        } else {
            let done = step.as_ref();
            let entry = RoundTrace {
                round,
                phase,
                completed: done.is_some(),
                profit: done.map_or(0.0, |s| s.evaluation.profit),
                best_profit: self.best_eval.profit,
                accepted: done.map_or(0, |s| s.evaluation.accepted),
                mu: done.and_then(|s| s.mu),
                lp_iterations: done.map_or(0, |s| s.stats.iterations),
                warm_started: done.is_some_and(|s| s.stats.warm_started),
                incidents: self.incidents.len() - incidents_before,
            };
            crate::obs::record_round_trace(self.tele, &entry);
            self.trace.push(entry);
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlspm::maa;
    use metis_netsim::topologies;
    use metis_workload::{generate, WorkloadConfig};

    fn instance(k: usize, seed: u64) -> SpmInstance {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(k, seed));
        SpmInstance::new(topo, reqs, 12, 3)
    }

    #[test]
    fn profit_never_negative() {
        for seed in 0..3 {
            let inst = instance(20, seed);
            let res = metis(&inst, &MetisConfig::with_theta(5)).unwrap();
            assert!(res.evaluation.profit >= 0.0, "seed {seed}");
        }
    }

    #[test]
    fn beats_or_matches_accept_all() {
        // Metis's record starts from the accept-everything MAA schedule,
        // so it can only improve on it.
        let inst = instance(40, 1);
        let all = maa(&inst, &[true; 40], &MaaOptions::default()).unwrap();
        let res = metis(&inst, &MetisConfig::with_theta(6)).unwrap();
        assert!(res.evaluation.profit >= all.evaluation.profit - 1e-9);
    }

    #[test]
    fn theta_zero_is_one_maa_pass() {
        let inst = instance(15, 2);
        let res = metis(&inst, &MetisConfig::with_theta(0)).unwrap();
        assert_eq!(res.rounds, 0);
        assert_eq!(res.round_trace.len(), 1);
        assert_eq!(res.round_trace[0].phase, Phase::Maa);
        assert!(res.round_trace[0].completed);
    }

    #[test]
    fn round_trace_interleaves_phases() {
        let inst = instance(25, 3);
        let res = metis(&inst, &MetisConfig::with_theta(3)).unwrap();
        assert_eq!(res.round_trace[0].phase, Phase::Maa);
        for pair in res.round_trace[1..].chunks(2) {
            assert_eq!(pair[0].phase, Phase::Taa);
            if pair.len() > 1 {
                assert_eq!(pair[1].phase, Phase::Maa);
            }
        }
    }

    #[test]
    fn best_profit_dominates_round_trace() {
        let inst = instance(30, 4);
        let res = metis(&inst, &MetisConfig::with_theta(6)).unwrap();
        let max_hist = res
            .round_trace
            .iter()
            .filter(|t| t.completed)
            .map(|t| t.profit)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((res.evaluation.profit - max_hist.max(0.0)).abs() < 1e-9);
    }

    #[test]
    fn more_theta_never_worse() {
        let inst = instance(30, 5);
        let p2 = metis(&inst, &MetisConfig::with_theta(2))
            .unwrap()
            .evaluation
            .profit;
        let p8 = metis(&inst, &MetisConfig::with_theta(8))
            .unwrap()
            .evaluation
            .profit;
        assert!(p8 >= p2 - 1e-9, "longer runs keep the SP Updater record");
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let inst = instance(30, 6);
        for warm_start in [false, true] {
            let base = MetisConfig {
                theta: 4,
                warm_start,
                maa: MaaOptions {
                    rounding_repeats: 8,
                    seed: 5,
                },
                ..MetisConfig::default()
            };
            let reference = metis(&inst, &base).unwrap();
            for threads in [2, 8] {
                let cfg = MetisConfig {
                    parallel: ParallelConfig { threads },
                    ..base
                };
                let run = metis(&inst, &cfg).unwrap();
                assert_eq!(
                    run.schedule, reference.schedule,
                    "warm_start = {warm_start}, threads = {threads}"
                );
                assert_eq!(run.evaluation, reference.evaluation);
                assert_eq!(run.round_trace, reference.round_trace);
            }
        }
    }

    #[test]
    fn warm_start_is_deterministic_and_profitable() {
        let inst = instance(30, 7);
        let cfg = MetisConfig {
            theta: 5,
            warm_start: true,
            ..MetisConfig::default()
        };
        let a = metis(&inst, &cfg).unwrap();
        let b = metis(&inst, &cfg).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.round_trace, b.round_trace);
        assert!(a.evaluation.profit >= 0.0);
        // The SP Updater keeps the best record, so the final profit
        // dominates the warm run's own accept-all initialization.
        assert!(a.evaluation.profit >= a.round_trace[0].profit - 1e-9);
    }

    #[test]
    fn instrumented_run_matches_plain_and_records() {
        let inst = instance(20, 8);
        for warm_start in [false, true] {
            let cfg = MetisConfig {
                theta: 3,
                warm_start,
                ..MetisConfig::default()
            };
            let plain = metis(&inst, &cfg).unwrap();
            let tele = Telemetry::enabled();
            let run = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &tele).unwrap();
            assert_eq!(run.schedule, plain.schedule, "warm_start = {warm_start}");
            assert_eq!(run.evaluation, plain.evaluation);
            assert_eq!(run.round_trace, plain.round_trace);
            let s = tele.snapshot().expect("enabled handle snapshots");
            assert!(s.counter(names::LP_SIMPLEX_ITERATIONS) > 0);
            assert!(s.counter(names::ROUNDS) >= 1);
            let rounds = s.histogram(names::ROUND_DURATION_US).expect("histogram");
            assert!(rounds.count >= 1);
            assert!(!s
                .series(names::TAA_MU)
                .expect("mu series")
                .points
                .is_empty());
            let warm_entries = run.round_trace.iter().filter(|t| t.warm_started).count();
            if warm_start {
                assert!(s.counter(names::LP_WARM_BASIS_REUSE) > 0);
                assert!(warm_entries > 0);
            } else {
                // Cold runs drop the kept basis before every solve.
                assert_eq!(s.counter(names::LP_WARM_BASIS_REUSE), 0);
                assert_eq!(warm_entries, 0);
            }
            assert_eq!(s.counter(names::INCIDENT_SOLVE_FAILED), 0);
            let round_span = s.span(names::SPAN_ROUND).expect("round span");
            assert_eq!(round_span.parent.as_deref(), Some(names::SPAN_METIS));
        }
    }

    #[test]
    fn incidents_display_and_reach_event_stream() {
        let inst = instance(15, 9);
        let cfg = MetisConfig {
            theta: 2,
            warm_start: true,
            ..MetisConfig::default()
        };
        let faults = FaultPlan::none().fail_at_with(Phase::Taa, 0, SolveError::Singular);
        let tele = Telemetry::enabled();
        let run = metis_instrumented(&inst, &cfg, &faults, &tele).unwrap();
        assert!(run.warm_retries() >= 1);
        for incident in &run.incidents {
            assert!(!incident.to_string().is_empty());
        }
        let s = tele.snapshot().expect("enabled handle snapshots");
        assert_eq!(
            s.counter(names::INCIDENT_WARM_RETRY),
            run.warm_retries() as u64
        );
        assert_eq!(s.events.len(), run.incidents.len());
        assert!(s.events.iter().all(|e| e.kind == names::EVENT_INCIDENT));
        assert!(s.events[0].message.contains("TAA"));
    }

    #[test]
    fn round_trace_agrees_with_result() {
        let inst = instance(30, 10);
        for warm_start in [false, true] {
            let cfg = MetisConfig {
                theta: 5,
                warm_start,
                ..MetisConfig::default()
            };
            let res = metis(&inst, &cfg).unwrap();
            // Each entry's record is the best completed profit so far.
            let mut best = 0.0_f64;
            for t in &res.round_trace {
                if t.completed {
                    best = best.max(t.profit);
                }
                assert_eq!(t.best_profit, best, "warm_start = {warm_start}");
            }
            // Every contained failure is attributed to exactly one entry.
            let attributed: usize = res.round_trace.iter().map(|t| t.incidents).sum();
            assert_eq!(attributed, res.incidents.len());
            // The running record is monotone and ends at the reported profit.
            for w in res.round_trace.windows(2) {
                assert!(w[1].best_profit >= w[0].best_profit);
            }
            let last = res.round_trace.last().expect("round 0 always traced");
            assert_eq!(last.best_profit, res.evaluation.profit);
            // MAA entries never carry μ; entry rounds are non-decreasing.
            assert!(res
                .round_trace
                .iter()
                .filter(|t| t.phase == Phase::Maa)
                .all(|t| t.mu.is_none()));
            assert!(res.round_trace.windows(2).all(|w| w[0].round <= w[1].round));
        }
    }

    #[test]
    fn round_trace_records_failed_attempts() {
        let inst = instance(15, 11);
        let cfg = MetisConfig {
            theta: 2,
            ..MetisConfig::default()
        };
        // No cold retry without warm_start: attempt 0 of TAA fails for good.
        let faults = FaultPlan::none().fail_at_with(Phase::Taa, 0, SolveError::Singular);
        let res = metis_instrumented(&inst, &cfg, &faults, &Telemetry::disabled()).unwrap();
        let failed: Vec<_> = res.round_trace.iter().filter(|t| !t.completed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].phase, Phase::Taa);
        assert_eq!(failed[0].round, 1);
        assert_eq!(failed[0].incidents, 1);
        assert_eq!(failed[0].lp_iterations, 0);
        let attributed: usize = res.round_trace.iter().map(|t| t.incidents).sum();
        assert_eq!(attributed, res.incidents.len());
    }

    /// A step the stage hands back for a mask it kept is, bit for bit,
    /// what `maa` computes for that mask on a fresh solver, even after
    /// the stage's solver has solved other masks.
    #[test]
    fn reused_maa_step_matches_a_fresh_maa() {
        let inst = instance(30, 1);
        let cfg = MetisConfig::with_theta(6);
        let tele = Telemetry::disabled();
        let mut stage = MaaStage {
            instance: &inst,
            config: &cfg,
            lp: SolveOptions::default(),
            threads: 1,
            tele: &tele,
            solver: RlspmSolver::new(&inst),
            last: None,
        };
        let all = vec![true; 30];
        let mut some = all.clone();
        some[4] = false;
        some[17] = false;
        let first = stage.solve(&all, false).unwrap();
        stage.keep(&all, first);
        let other = stage.solve(&some, false).unwrap();
        assert!(other.stats.iterations > 0, "a new mask is solved");
        stage.keep(&some, other);
        let reused = stage.solve(&some, false).unwrap();
        assert_eq!(reused.stats, SolveStats::default());

        let fresh = maa(&inst, &some, &cfg.maa).unwrap();
        assert_eq!(reused.schedule, fresh.schedule);
        assert_eq!(reused.evaluation, fresh.evaluation);
        let bits = |e: &Evaluation| {
            [e.revenue, e.cost, e.profit]
                .iter()
                .chain(&e.charged)
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&reused.evaluation), bits(&fresh.evaluation));
    }

    /// `instance(30, 1)` with θ = 6 reuses one cold MAA step: its third
    /// MAA attempt, in round 2.
    fn reusing_run() -> (SpmInstance, MetisConfig) {
        (instance(30, 1), MetisConfig::with_theta(6))
    }

    #[test]
    fn a_fault_on_a_reused_maa_attempt_still_fails_that_round() {
        let (inst, cfg) = reusing_run();
        let clean = metis(&inst, &cfg).unwrap();
        let maa_entries: Vec<_> = clean
            .round_trace
            .iter()
            .filter(|t| t.phase == Phase::Maa)
            .collect();
        assert!(maa_entries[2].completed && maa_entries[2].lp_iterations == 0);
        assert_eq!(maa_entries[2].round, 2);

        let faults = FaultPlan::none().fail_at_with(Phase::Maa, 2, SolveError::Singular);
        let res = metis_instrumented(&inst, &cfg, &faults, &Telemetry::disabled()).unwrap();
        assert_eq!(
            res.incidents,
            vec![Incident::SolveFailed {
                phase: Phase::Maa,
                round: 2,
                error: SolveError::Singular,
            }]
        );
        let failed: Vec<_> = res.round_trace.iter().filter(|t| !t.completed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!((failed[0].phase, failed[0].round), (Phase::Maa, 2));
        assert_eq!(res.rounds, cfg.theta, "the run goes on");
        assert!(res.round_trace.iter().any(|t| t.round > 2 && t.completed));
    }

    #[test]
    fn reused_steps_open_no_relaxation_span() {
        let (inst, cold) = reusing_run();
        for warm_start in [false, true] {
            let cfg = MetisConfig { warm_start, ..cold };
            let tele = Telemetry::enabled();
            let res = metis_instrumented(&inst, &cfg, &FaultPlan::none(), &tele).unwrap();
            let s = tele.snapshot().expect("enabled handle snapshots");
            let spans = |name| s.span(name).map_or(0, |span| span.count as usize);
            let maa = || res.round_trace.iter().filter(|t| t.phase == Phase::Maa);
            let maa_entries = maa().count();
            // Only cold runs reuse; a warm re-solve may also take 0 pivots.
            let reused = if warm_start {
                0
            } else {
                maa()
                    .filter(|t| t.round > 0 && t.lp_iterations == 0)
                    .count()
            };
            assert!(warm_start || reused > 0);
            assert_eq!(spans(names::SPAN_MAA_RELAX), maa_entries - reused);
            assert_eq!(spans(names::SPAN_MAA_ROUNDING), maa_entries - reused);
        }
    }

    #[test]
    fn empty_workload() {
        let topo = topologies::sub_b4();
        let inst = SpmInstance::new(topo, Vec::new(), 12, 3);
        let res = metis(&inst, &MetisConfig::with_theta(3)).unwrap();
        assert_eq!(res.evaluation.profit, 0.0);
        assert_eq!(res.evaluation.accepted, 0);
    }
}
