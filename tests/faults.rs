//! Fault-injection harness: the Metis pipeline must *degrade*, never die.
//!
//! A [`FaultPlan`] forces `SolveError`s at chosen (phase, attempt) points
//! of the alternation or at whole online epochs. Under any single-point
//! injection in a θ=4 run, `metis` must still return `Ok` with profit ≥ 0
//! and a well-formed schedule, record the incident, and — when the
//! injected point is never reached — remain bit-identical to the
//! failure-free baseline. Failure-free runs under an empty plan must
//! match the plain entry points exactly, across thread counts {1, 2, 8},
//! warm and cold.
//!
//! Set `METIS_FAULTS_WARM_START=0` or `=1` to restrict the warm-start
//! modes exercised (the CI matrix does); unset, both run. Set
//! `METIS_LP_BASIS=dense` or `=sparse-lu` to pin the LP basis backend;
//! unset, the solver default (sparse LU) applies. Any other value of
//! either variable fails the suite.

#![expect(
    clippy::float_cmp,
    reason = "FP-01 polices library code; tests assert exact expected values"
)]

mod common;

use metis_suite::core::{
    metis, metis_instrumented, online_metis, online_metis_instrumented, FaultPlan, Incident,
    MaaOptions, MetisConfig, MetisResult, OnlineOptions, ParallelConfig, Phase, SpmInstance,
};
use metis_suite::lp::SolveError;
use metis_suite::netsim::topologies;
use metis_suite::telemetry::Telemetry;
use metis_suite::workload::{generate, RequestId, WorkloadConfig};

const THETA: usize = 4;

fn instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 3)
}

fn config(threads: usize, warm_start: bool) -> MetisConfig {
    let mut cfg = MetisConfig {
        theta: THETA,
        warm_start,
        parallel: ParallelConfig { threads },
        maa: MaaOptions {
            rounding_repeats: 4,
            seed: 99,
            ..MaaOptions::default()
        },
        ..MetisConfig::default()
    };
    if let Some(basis) = common::lp_basis() {
        cfg.maa.lp.basis = basis;
        cfg.taa.lp.basis = basis;
    }
    cfg
}

/// A schedule is well-formed when every accepted request routes on one of
/// its own candidate paths and the evaluation is internally consistent.
fn assert_well_formed(inst: &SpmInstance, result: &MetisResult, label: &str) {
    assert_eq!(result.schedule.len(), inst.num_requests(), "{label}");
    for i in 0..inst.num_requests() as u32 {
        if let Some(j) = result.schedule.path_choice(RequestId(i)) {
            assert!(
                j < inst.paths(RequestId(i)).len(),
                "{label}: r{i} routed on nonexistent path {j}"
            );
        }
    }
    assert!(
        result.evaluation.profit >= 0.0,
        "{label}: negative profit {}",
        result.evaluation.profit
    );
    assert_eq!(
        result.schedule.num_accepted(),
        result.evaluation.accepted,
        "{label}"
    );
    assert!(result.rounds <= THETA, "{label}");
    for inc in &result.incidents {
        match inc {
            Incident::SolveFailed { round, .. } | Incident::WarmRetry { round, .. } => {
                assert!(*round <= THETA, "{label}: incident round {round} > θ");
            }
            Incident::EpochSkipped { .. } => panic!("{label}: offline run skipped an epoch"),
            other => panic!("{label}: unexpected incident {other:?}"),
        }
    }
}

#[test]
fn empty_plan_is_bit_identical_to_plain_entry_point() {
    let inst = instance(30, 1);
    for warm_start in common::warm_modes() {
        let plain = metis(&inst, &config(1, warm_start)).unwrap();
        assert!(plain.incidents.is_empty());
        for threads in [1, 2, 8] {
            let run = metis_instrumented(
                &inst,
                &config(threads, warm_start),
                &FaultPlan::none(),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert!(run.incidents.is_empty());
            assert_eq!(
                run.schedule, plain.schedule,
                "warm_start = {warm_start}, threads = {threads}"
            );
            assert_eq!(run.round_trace, plain.round_trace);
            assert_eq!(run.evaluation, plain.evaluation);
            assert_eq!(run.rounds, plain.rounds);
        }
    }
}

#[test]
fn every_single_point_injection_degrades_gracefully() {
    let inst = instance(24, 2);
    for warm_start in common::warm_modes() {
        let cfg = config(1, warm_start);
        let baseline = metis(&inst, &cfg).unwrap();
        // θ=4 makes at most 1 + θ MAA and θ TAA attempts (plus one cold
        // retry each when warm); sweeping past the end also checks that
        // unreached injection points change nothing.
        for phase in [Phase::Maa, Phase::Taa] {
            for invocation in 0..=(2 * THETA + 1) {
                let plan = FaultPlan::none().fail_at(phase, invocation);
                let run = metis_instrumented(&inst, &cfg, &plan, &Telemetry::disabled())
                    .unwrap_or_else(|e| panic!("{phase:?}@{invocation}: {e}"));
                let label = format!("warm={warm_start} {phase:?}@{invocation}");
                assert_well_formed(&inst, &run, &label);
                if run.incidents.is_empty() {
                    // The injected attempt was never made; the run must be
                    // indistinguishable from the baseline.
                    assert_eq!(run.schedule, baseline.schedule, "{label}");
                    assert_eq!(run.round_trace, baseline.round_trace, "{label}");
                    assert_eq!(run.evaluation, baseline.evaluation, "{label}");
                } else {
                    // The incident trace names the injected phase.
                    assert!(
                        run.incidents.iter().all(|i| matches!(
                            i,
                            Incident::SolveFailed { phase: p, .. }
                            | Incident::WarmRetry { phase: p, .. } if *p == phase
                        )),
                        "{label}: {:?}",
                        run.incidents
                    );
                    if warm_start {
                        // A lone injection is absorbed by the cold retry.
                        assert_eq!(run.warm_retries(), 1, "{label}");
                        assert_eq!(run.failed_rounds(), 0, "{label}");
                    } else {
                        assert_eq!(run.failed_rounds(), 1, "{label}");
                        assert_eq!(run.warm_retries(), 0, "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn warm_retry_exhaustion_skips_the_round() {
    // Failing an attempt AND its cold retry exhausts containment for that
    // solve: the round's update is skipped, the run still completes.
    let inst = instance(24, 3);
    let cfg = config(1, true);
    for phase in [Phase::Maa, Phase::Taa] {
        let first = if phase == Phase::Maa { 0 } else { 1 };
        let plan = FaultPlan::none()
            .fail_at_with(phase, first, SolveError::IterationLimit)
            .fail_at_with(phase, first + 1, SolveError::Singular);
        let run = metis_instrumented(&inst, &cfg, &plan, &Telemetry::disabled()).unwrap();
        assert_well_formed(&inst, &run, &format!("{phase:?} double"));
        assert_eq!(run.warm_retries(), 1, "{phase:?}");
        assert_eq!(run.failed_rounds(), 1, "{phase:?}");
        let errors: Vec<&SolveError> = run
            .incidents
            .iter()
            .map(|i| match i {
                Incident::SolveFailed { error, .. } | Incident::WarmRetry { error, .. } => error,
                Incident::EpochSkipped { error, .. } => error,
                other => panic!("unexpected incident {other:?}"),
            })
            .collect();
        assert_eq!(
            errors,
            [&SolveError::IterationLimit, &SolveError::Singular],
            "{phase:?}: incidents keep the per-attempt errors in order"
        );
    }
}

#[test]
fn killed_initialization_degrades_to_decline_all() {
    // Without warm start there is no retry: failing the very first MAA
    // leaves the capacity budget empty, so the run returns the decline-all
    // schedule — profit 0, not an error.
    let inst = instance(24, 4);
    let plan = FaultPlan::none().fail_at(Phase::Maa, 0);
    let run = metis_instrumented(&inst, &config(1, false), &plan, &Telemetry::disabled()).unwrap();
    assert_eq!(run.evaluation.profit, 0.0);
    assert_eq!(run.evaluation.accepted, 0);
    assert_eq!(run.rounds, 0);
    assert!(run.round_trace.iter().all(|t| !t.completed));
    assert_eq!(run.failed_rounds(), 1);
}

#[test]
fn everything_failing_still_returns_ok() {
    let inst = instance(24, 5);
    for warm_start in common::warm_modes() {
        let mut plan = FaultPlan::none();
        for phase in [Phase::Maa, Phase::Taa] {
            for invocation in 0..=(2 * THETA + 2) {
                plan = plan.fail_at(phase, invocation);
            }
        }
        let run = metis_instrumented(&inst, &config(1, warm_start), &plan, &Telemetry::disabled())
            .unwrap();
        assert_eq!(run.evaluation.profit, 0.0, "warm = {warm_start}");
        assert_eq!(run.evaluation.accepted, 0);
        assert!(!run.incidents.is_empty());
    }
}

#[test]
fn injected_runs_are_deterministic_across_threads() {
    // Fault containment sits outside the parallel regions, so even a
    // degraded run must be bit-identical for any worker count.
    let inst = instance(24, 6);
    for warm_start in common::warm_modes() {
        let plan = FaultPlan::none().fail_at(Phase::Taa, 1);
        let reference =
            metis_instrumented(&inst, &config(1, warm_start), &plan, &Telemetry::disabled())
                .unwrap();
        for threads in [2, 8] {
            let run = metis_instrumented(
                &inst,
                &config(threads, warm_start),
                &plan,
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(run.schedule, reference.schedule, "threads = {threads}");
            assert_eq!(run.round_trace, reference.round_trace);
            assert_eq!(run.incidents, reference.incidents);
        }
    }
}

#[test]
fn random_plans_never_break_the_run() {
    let inst = instance(20, 7);
    for warm_start in common::warm_modes() {
        for seed in 0..6 {
            let plan = FaultPlan::random(seed, 0.35, 2 * THETA + 2);
            let run =
                metis_instrumented(&inst, &config(1, warm_start), &plan, &Telemetry::disabled())
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_well_formed(&inst, &run, &format!("warm={warm_start} seed={seed}"));
            assert_eq!(
                run.incidents.len(),
                run.failed_rounds() + run.warm_retries(),
                "seed {seed}: counters partition the incident trace"
            );
        }
    }
}

#[test]
fn online_skips_only_the_failed_epoch() {
    let inst = instance(40, 8);
    let options = OnlineOptions {
        epochs: 4,
        metis: config(1, false),
    };
    let baseline = online_metis(&inst, &options).unwrap();
    assert!(baseline.incidents.is_empty());
    assert_eq!(baseline.skipped_epochs(), 0);

    // Pick an epoch that actually has arrivals, then kill it.
    let target = baseline
        .epochs
        .iter()
        .find(|e| e.arrived > 0)
        .expect("some epoch has arrivals")
        .epoch;
    let plan = FaultPlan::none().fail_epoch_with(target, SolveError::IterationLimit);
    let run = online_metis_instrumented(&inst, &options, &plan, &Telemetry::disabled()).unwrap();

    assert_eq!(run.skipped_epochs(), 1);
    assert!(run.evaluation.profit >= 0.0);
    let skipped = &run.epochs[target];
    assert_eq!(skipped.accepted, 0, "failed epoch declines everything");
    assert_eq!(skipped.arrived, baseline.epochs[target].arrived);
    for (b, r) in baseline.epochs.iter().zip(&run.epochs) {
        if b.epoch != target {
            assert_eq!(
                b.accepted, r.accepted,
                "epoch {} must be unaffected by epoch {target}'s failure",
                b.epoch
            );
        }
    }
    match &run.incidents[..] {
        [Incident::EpochSkipped {
            epoch,
            arrived,
            error,
        }] => {
            assert_eq!(*epoch, target);
            assert_eq!(*arrived, baseline.epochs[target].arrived);
            assert_eq!(*error, SolveError::IterationLimit);
        }
        other => panic!("expected one EpochSkipped, got {other:?}"),
    }
}

#[test]
fn online_with_empty_plan_matches_plain_entry_point() {
    let inst = instance(40, 9);
    let options = OnlineOptions {
        epochs: 3,
        metis: config(1, false),
    };
    let plain = online_metis(&inst, &options).unwrap();
    let faulted =
        online_metis_instrumented(&inst, &options, &FaultPlan::none(), &Telemetry::disabled())
            .unwrap();
    assert_eq!(plain.schedule, faulted.schedule);
    assert_eq!(plain.evaluation, faulted.evaluation);
    assert_eq!(plain.epochs, faulted.epochs);
    assert!(faulted.incidents.is_empty());
}

#[test]
fn all_epochs_failing_declines_the_whole_cycle() {
    let inst = instance(30, 10);
    let options = OnlineOptions {
        epochs: 3,
        metis: config(1, false),
    };
    let mut plan = FaultPlan::none();
    for e in 0..3 {
        plan = plan.fail_epoch(e);
    }
    let run = online_metis_instrumented(&inst, &options, &plan, &Telemetry::disabled()).unwrap();
    assert_eq!(run.evaluation.profit, 0.0);
    assert_eq!(run.schedule.num_accepted(), 0);
    // Empty epochs are not "skipped" — only ones with arrivals to lose.
    let with_arrivals = run.epochs.iter().filter(|e| e.arrived > 0).count();
    assert_eq!(run.skipped_epochs(), with_arrivals);
}
