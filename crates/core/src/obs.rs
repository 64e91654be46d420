//! Internal glue between the pipeline and the telemetry layer.

use metis_lp::{LpTrace, SolveStats};
use metis_telemetry::{names, Telemetry};

use crate::framework::RoundTrace;

/// Records one LP solve's work counters into the shared registry.
pub(crate) fn record_lp_stats(tele: &Telemetry, stats: &SolveStats) {
    if !tele.is_enabled() {
        return;
    }
    tele.add(names::LP_SIMPLEX_ITERATIONS, stats.iterations as u64);
    tele.add(names::LP_SIMPLEX_PHASE1, stats.phase1_iterations as u64);
    tele.add(names::LP_SIMPLEX_DUAL, stats.dual_iterations as u64);
    tele.add(names::LP_SIMPLEX_BOUND_FLIPS, stats.bound_flips as u64);
    tele.add(names::LP_SIMPLEX_REFRESHES, stats.refreshes as u64);
    tele.add(names::LP_LU_ETA_UPDATES, stats.eta_updates as u64);
    // nnz of the factors is a size, not a flow: keep the latest value.
    if stats.lu_l_nnz > 0 || stats.lu_u_nnz > 0 {
        tele.gauge(names::LP_LU_L_NNZ, stats.lu_l_nnz as f64);
        tele.gauge(names::LP_LU_U_NNZ, stats.lu_u_nnz as f64);
    }
    if stats.warm_started {
        tele.incr(names::LP_WARM_BASIS_REUSE);
    } else {
        tele.incr(names::LP_COLD_SOLVES);
    }
}

/// Records one LP solve's per-iteration trace volume. The trace is only
/// populated when [`metis_lp::SolveOptions::trace`] was set, so on
/// default-configured runs this records nothing.
pub(crate) fn record_lp_trace(tele: &Telemetry, trace: &LpTrace) {
    if !tele.is_enabled() || trace.total() == 0 {
        return;
    }
    tele.add(names::LP_TRACE_RECORDS, trace.records.len() as u64);
    tele.add(names::LP_TRACE_DROPPED, trace.dropped);
}

/// Pushes one convergence-trace entry onto the trace series, so the
/// accepted-count and LP-effort curves are visible in the snapshot and
/// over `/metrics` without shipping the full [`RoundTrace`] vector.
pub(crate) fn record_round_trace(tele: &Telemetry, entry: &RoundTrace) {
    if !tele.is_enabled() {
        return;
    }
    tele.push(names::TRACE_ACCEPTED, entry.accepted as f64);
    tele.push(names::TRACE_LP_ITERATIONS, entry.lp_iterations as f64);
}
