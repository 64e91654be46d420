//! Solution audits at the workspace level: a full Metis / online-Metis
//! run with [`MetisConfig::audit`] forced on must report zero violations
//! at every thread count, without perturbing the solution — the audit is
//! a pure observer re-deriving load, peaks, and accounting from scratch.
//!
//! [`MetisConfig::audit`]: metis_suite::core::MetisConfig

use metis_suite::core::{
    check_incident_agreement, metis, metis_instrumented, online_metis_instrumented, FaultPlan,
    MetisConfig, OnlineOptions, ParallelConfig, SpmInstance,
};
use metis_suite::netsim::topologies;
use metis_suite::telemetry::Telemetry;
use metis_suite::workload::{generate, WorkloadConfig};

fn b4_instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 3)
}

fn audited_config(theta: usize, threads: usize) -> MetisConfig {
    MetisConfig {
        audit: true,
        parallel: ParallelConfig {
            threads,
            ..ParallelConfig::default()
        },
        ..MetisConfig::with_theta(theta)
    }
}

#[test]
fn metis_audits_clean_at_every_thread_count() {
    let inst = b4_instance(60, 3);
    let reference = metis(&inst, &audited_config(4, 1)).unwrap();
    let reference_report = reference.audit.as_ref().expect("audit was on");
    assert!(reference_report.is_clean(), "{reference_report}");
    assert!(reference_report.checks > 0);

    for threads in [2, 8] {
        let run = metis(&inst, &audited_config(4, threads)).unwrap();
        let report = run.audit.as_ref().expect("audit was on");
        assert!(report.is_clean(), "threads = {threads}: {report}");
        // The audit observes; it must not perturb the solution.
        assert_eq!(run.schedule, reference.schedule, "threads = {threads}");
        assert_eq!(run.evaluation, reference.evaluation, "threads = {threads}");
    }
}

#[test]
fn audit_does_not_perturb_the_solution() {
    let inst = b4_instance(50, 11);
    let plain = metis(&inst, &MetisConfig::with_theta(4)).unwrap();
    let audited = metis(&inst, &audited_config(4, 1)).unwrap();
    assert_eq!(plain.schedule, audited.schedule);
    assert_eq!(plain.evaluation, audited.evaluation);
    assert_eq!(plain.round_trace, audited.round_trace);
}

#[test]
fn online_metis_audits_clean() {
    let inst = b4_instance(60, 5);
    let options = OnlineOptions {
        metis: audited_config(3, 1),
        ..OnlineOptions::default()
    };
    let res =
        online_metis_instrumented(&inst, &options, &FaultPlan::none(), &Telemetry::disabled())
            .unwrap();
    let report = res.audit.as_ref().expect("audit was on");
    assert!(report.is_clean(), "{report}");
    assert!(report.checks > 0);
}

#[test]
fn incident_accounting_agrees_even_under_faults() {
    use metis_suite::core::Phase;
    let inst = b4_instance(40, 2);
    let tele = Telemetry::enabled();
    // Break one TAA solve and one MAA warm retry's worth of invocations;
    // the run degrades but completes, and every incident must appear
    // exactly once in the counter, the event stream, and the vec.
    let plan = FaultPlan::none()
        .fail_at(Phase::Taa, 1)
        .fail_at(Phase::Maa, 2);
    let res = metis_instrumented(&inst, &audited_config(4, 1), &plan, &tele).unwrap();
    assert!(!res.incidents.is_empty(), "faults should surface incidents");
    let snap = tele.snapshot().expect("telemetry capture enabled");
    let agreement = check_incident_agreement(&res.incidents, &snap);
    assert!(agreement.is_clean(), "{agreement}");
}
