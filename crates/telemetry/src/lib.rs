//! Lightweight observability for the Metis pipeline: timed spans with
//! parent/child nesting, a lock-free metrics registry (counters,
//! gauges, fixed-bucket histograms, bounded series), an event stream
//! for incidents, and JSON / Prometheus snapshot export.
//!
//! # Design constraints
//!
//! - **True no-op when disabled.** [`Telemetry::disabled`] carries no
//!   collector; every recording call is a single `Option` check, takes
//!   no clock reading, and allocates nothing.
//! - **Never perturbs results.** Recording is a write-only side
//!   channel: nothing in the pipeline reads telemetry state, so a run
//!   with telemetry on is bit-identical to one with it off.
//! - **Lock-free hot path.** Metric cells live in fixed-capacity
//!   open-addressed tables claimed via `OnceLock`; updates are relaxed
//!   atomics. Only span raw records and events take a (cold-path)
//!   mutex, and both logs are bounded — overflow is counted, not
//!   grown.
//!
//! # Example
//!
//! ```
//! use metis_telemetry::Telemetry;
//!
//! let tele = Telemetry::enabled();
//! {
//!     let _round = tele.span("alternation.round");
//!     tele.incr("lp.simplex.iterations");
//!     tele.push("taa.mu", 0.25);
//! }
//! if let Some(snapshot) = tele.snapshot() {
//!     assert_eq!(snapshot.counter("lp.simplex.iterations"), 1);
//!     assert!(snapshot.to_json().contains("taa.mu"));
//! }
//! ```

#![cfg_attr(
    test,
    expect(
        clippy::float_cmp,
        reason = "FP-01 polices library code; tests assert exact expected values"
    )
)]

mod metrics;
mod prometheus;
mod serve;
mod snapshot;
mod span;
mod trace;

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use metrics::{bucket_index, BUCKET_COUNT, HISTOGRAM_BOUNDS, SERIES_CAPACITY};
pub use prometheus::{to_prometheus, validate_prometheus};
pub use serve::MetricsServer;
pub use snapshot::{
    CounterSnapshot, DroppedCounts, EventSnapshot, GaugeSnapshot, HistogramSnapshot,
    SeriesSnapshot, Snapshot, SpanSnapshot,
};
pub use trace::TraceSpan;

use metrics::Registry;
use span::{SpanCollector, SpanRecord};

/// Well-known metric and span names recorded by the workspace, so the
/// producers (core, lp glue, bench) and consumers (tests, reports)
/// cannot drift apart on spelling.
pub mod names {
    /// Counter: primal simplex iterations across all LP solves.
    pub const LP_SIMPLEX_ITERATIONS: &str = "lp.simplex.iterations";
    /// Counter: phase-1 (feasibility) simplex iterations.
    pub const LP_SIMPLEX_PHASE1: &str = "lp.simplex.phase1_iterations";
    /// Counter: dual simplex iterations (warm-start reoptimization).
    pub const LP_SIMPLEX_DUAL: &str = "lp.simplex.dual_iterations";
    /// Counter: bound-flip ratio-test outcomes.
    pub const LP_SIMPLEX_BOUND_FLIPS: &str = "lp.simplex.bound_flips";
    /// Counter: basis refactorizations (a warm start that reuses kept
    /// LU factors does not count).
    pub const LP_SIMPLEX_REFRESHES: &str = "lp.simplex.refactorizations";
    /// Counter: product-form eta updates between refactorizations
    /// (sparse LU backend).
    pub const LP_LU_ETA_UPDATES: &str = "lp.lu.eta_updates";
    /// Gauge: nonzeros in the `L` factor of the most recent sparse
    /// refactorization.
    pub const LP_LU_L_NNZ: &str = "lp.lu.l_nnz";
    /// Gauge: nonzeros in the `U` factor (diagonal included) of the most
    /// recent sparse refactorization.
    pub const LP_LU_U_NNZ: &str = "lp.lu.u_nnz";
    /// Counter: LP solves that reused a previous basis (warm starts).
    pub const LP_WARM_BASIS_REUSE: &str = "lp.warm.basis_reuse";
    /// Counter: LP solves started from scratch.
    pub const LP_COLD_SOLVES: &str = "lp.cold_solves";
    /// Counter: rows removed by presolve. The LP has no presolve, so
    /// nothing records it any more and it always reads 0; it stays only
    /// because the benchmark reports it, and goes with the next change
    /// to the benchmark.
    pub const LP_PRESOLVE_ROWS: &str = "lp.presolve.removed_rows";
    /// Histogram: per-trial rounded profit (revenue − cost) in MAA.
    pub const MAA_TRIALS_PROFIT: &str = "maa.trials.profit";
    /// Series: μ scaling factor chosen by each TAA invocation.
    pub const TAA_MU: &str = "taa.mu";
    /// Series: initial pessimistic-estimator value `u_root` per TAA walk.
    pub const TAA_U_ROOT: &str = "taa.u_root";
    /// Histogram: wall-clock per alternation round, microseconds.
    pub const ROUND_DURATION_US: &str = "alternation.round.duration_us";
    /// Series: SP Updater's best profit after each round.
    pub const ROUND_PROFIT: &str = "alternation.round.profit";
    /// Counter: alternation rounds executed (including round 0).
    pub const ROUNDS: &str = "alternation.rounds";
    /// Counter: rounds whose solve failed even after retry.
    pub const INCIDENT_SOLVE_FAILED: &str = "incident.solve_failed";
    /// Counter: failed warm solves retried cold.
    pub const INCIDENT_WARM_RETRY: &str = "incident.warm_retry";
    /// Counter: online epochs skipped wholesale.
    pub const INCIDENT_EPOCH_SKIPPED: &str = "incident.epoch_skipped";
    /// Series: accepted requests per online epoch.
    pub const ONLINE_EPOCH_ACCEPTED: &str = "online.epoch.accepted";
    /// Series: cumulative profit after each online epoch.
    pub const ONLINE_EPOCH_PROFIT: &str = "online.epoch.profit";
    /// Event kind used for contained failures.
    pub const EVENT_INCIDENT: &str = "incident";
    /// Counter: individual invariant checks performed by solution audits.
    pub const AUDIT_CHECKS: &str = "audit.checks";
    /// Counter: audit checks that found a broken invariant.
    pub const AUDIT_VIOLATIONS: &str = "audit.violations";
    /// Event kind used for audit violations (one event per violation).
    pub const EVENT_AUDIT: &str = "audit.violation";
    /// Counter: HTTP requests served by the live metrics endpoint.
    pub const TELEMETRY_HTTP_REQUESTS: &str = "telemetry.http.requests";
    /// Counter: raw span records dropped once the bounded log filled.
    pub const TELEMETRY_SPANS_DROPPED: &str = "telemetry.spans.dropped";
    /// Counter: events dropped once the bounded event log filled.
    pub const TELEMETRY_EVENTS_DROPPED: &str = "telemetry.events.dropped";
    /// Series: accepted requests after each solver invocation
    /// (convergence trace; one point per MAA/TAA call).
    pub const TRACE_ACCEPTED: &str = "alternation.trace.accepted";
    /// Series: LP pivots spent by each solver invocation's relaxation
    /// (convergence trace; one point per MAA/TAA call).
    pub const TRACE_LP_ITERATIONS: &str = "alternation.trace.lp_iterations";
    /// Counter: convergence-trace entries dropped past the bound.
    pub const TRACE_ROUNDS_DROPPED: &str = "alternation.trace.dropped";
    /// Counter: per-iteration LP trace records kept (across solves).
    pub const LP_TRACE_RECORDS: &str = "lp.trace.records";
    /// Counter: per-iteration LP trace records dropped by the ring.
    pub const LP_TRACE_DROPPED: &str = "lp.trace.dropped";
    /// Span arg: LP pivots of the relaxation solved under the span.
    pub const ARG_LP_ITERATIONS: &str = "lp.iterations";

    /// Span: one whole offline Metis run.
    pub const SPAN_METIS: &str = "metis";
    /// Span: one alternation round (child of [`SPAN_METIS`]).
    pub const SPAN_ROUND: &str = "alternation.round";
    /// Span: MAA LP relaxation solve.
    pub const SPAN_MAA_RELAX: &str = "maa.relax";
    /// Span: MAA randomized rounding (all trials).
    pub const SPAN_MAA_ROUNDING: &str = "maa.rounding";
    /// Span: TAA LP relaxation solve.
    pub const SPAN_TAA_RELAX: &str = "taa.relax";
    /// Span: TAA derandomized decision-tree walk.
    pub const SPAN_TAA_WALK: &str = "taa.walk";
    /// Span: BW Limiter application.
    pub const SPAN_LIMITER: &str = "limiter.apply";
    /// Span: one whole online Metis run.
    pub const SPAN_ONLINE: &str = "online";
    /// Span: one online epoch (child of [`SPAN_ONLINE`]).
    pub const SPAN_EPOCH: &str = "online.epoch";
}

/// Event-log capacity; later events are counted as dropped.
const EVENT_CAPACITY: usize = 4_096;

/// An event pushed through [`Telemetry::event`].
struct Event {
    kind: &'static str,
    message: String,
}

/// The shared backing store of an enabled [`Telemetry`] handle.
struct Collector {
    registry: Registry,
    spans: SpanCollector,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
    /// Trace epoch: span start offsets are measured from here.
    epoch: Instant,
}

impl Collector {
    #[expect(
        clippy::disallowed_methods,
        reason = "telemetry is the clock home: the trace epoch is read only when recording"
    )]
    fn new() -> Self {
        Collector {
            registry: Registry::new(),
            spans: SpanCollector::new(),
            events: Mutex::new(Vec::new()),
            events_dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }
}

/// A cloneable handle to a telemetry collector — or to nothing.
///
/// All recording methods are safe to call on a disabled handle; they
/// cost one branch and do nothing. Clones share the same collector, so
/// a handle can be passed down a pipeline and snapshotted at the top.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Collector>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle that records nothing. This is the hot-path default:
    /// every operation on it is a single `Option` check.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A handle backed by a fresh collector.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Collector::new())),
        }
    }

    /// Whether this handle actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing collector, for in-crate exporters.
    pub(crate) fn collector(&self) -> Option<&Collector> {
        self.inner.as_deref()
    }

    /// Opens a timed span; it records itself when the guard drops.
    /// Guards must be dropped on the thread that opened them, in LIFO
    /// order (the guard is `!Send`, and lexical scoping gives LIFO for
    /// free).
    pub fn span(&self, name: &'static str) -> Span<'_> {
        #[expect(
            clippy::disallowed_methods,
            reason = "telemetry is the clock home: spans read the clock only when recording"
        )]
        let active = self.inner.as_deref().map(|c| {
            let (parent, depth) = c.spans.enter(name);
            ActiveSpan {
                collector: c,
                name,
                parent,
                depth,
                start: Instant::now(),
                args: Vec::new(),
            }
        });
        Span {
            active,
            _not_send: PhantomData,
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(c) = self.inner.as_deref() {
            if let Some(cell) = c.registry.counters.slot(name) {
                cell.add(delta);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(c) = self.inner.as_deref() {
            if let Some(cell) = c.registry.gauges.slot(name) {
                cell.set(value);
            }
        }
    }

    /// Observes `value` into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(c) = self.inner.as_deref() {
            if let Some(cell) = c.registry.histograms.slot(name) {
                cell.observe(value);
            }
        }
    }

    /// Appends `value` to the series `name`.
    pub fn push(&self, name: &'static str, value: f64) {
        if let Some(c) = self.inner.as_deref() {
            if let Some(cell) = c.registry.series.slot(name) {
                cell.push(value);
            }
        }
    }

    /// Pushes an event. The message closure only runs when enabled,
    /// so disabled handles never pay for formatting.
    pub fn event(&self, kind: &'static str, message: impl FnOnce() -> String) {
        if let Some(c) = self.inner.as_deref() {
            let mut events = match c.events.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if events.len() < EVENT_CAPACITY {
                events.push(Event {
                    kind,
                    message: message(),
                });
            } else {
                c.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Takes a consistent snapshot, or `None` for a disabled handle.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let c = self.inner.as_deref()?;

        let mut counters: Vec<CounterSnapshot> = c
            .registry
            .counters
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.to_string(),
                value: cell.get(),
            })
            .collect();
        // Surface buffer saturation as first-class counters (always
        // present, usually 0) so a truncated span log or event stream
        // is visible on /metrics instead of silently reading as
        // "covered everything". The names are reserved: the registry
        // has no slots for them, so they cannot collide with organic
        // counters.
        counters.push(CounterSnapshot {
            name: names::TELEMETRY_SPANS_DROPPED.to_string(),
            value: c.spans.dropped(),
        });
        counters.push(CounterSnapshot {
            name: names::TELEMETRY_EVENTS_DROPPED.to_string(),
            value: c.events_dropped.load(Ordering::Relaxed),
        });
        counters.sort_by(|a, b| a.name.cmp(&b.name));

        let mut gauges: Vec<GaugeSnapshot> = c
            .registry
            .gauges
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.to_string(),
                value: cell.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));

        let mut histograms: Vec<HistogramSnapshot> = c
            .registry
            .histograms
            .iter()
            .map(|(name, cell)| {
                let (buckets, count, sum, min, max) = cell.read();
                HistogramSnapshot {
                    name: name.to_string(),
                    buckets,
                    count,
                    sum,
                    min,
                    max,
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));

        let mut series: Vec<SeriesSnapshot> = c
            .registry
            .series
            .iter()
            .map(|(name, cell)| {
                let (points, dropped) = cell.read();
                SeriesSnapshot {
                    name: name.to_string(),
                    points,
                    dropped,
                }
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));

        // First-seen parent per span name, from the raw log.
        let records = c.spans.records();
        let mut spans: Vec<SpanSnapshot> = c
            .spans
            .aggregates
            .iter()
            .map(|(name, agg)| {
                let parent = records
                    .iter()
                    .find(|r| r.name == name)
                    .and_then(|r| r.parent)
                    .map(str::to_string);
                let count = agg.count.load(Ordering::Relaxed);
                SpanSnapshot {
                    name: name.to_string(),
                    parent,
                    count,
                    total_us: agg.total_us.load(Ordering::Relaxed),
                    min_us: if count == 0 {
                        0
                    } else {
                        agg.min_us.load(Ordering::Relaxed)
                    },
                    max_us: agg.max_us.load(Ordering::Relaxed),
                    max_depth: agg.max_depth.load(Ordering::Relaxed) as u32,
                }
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));

        let events: Vec<EventSnapshot> = {
            let guard = match c.events.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard
                .iter()
                .enumerate()
                .map(|(i, e)| EventSnapshot {
                    seq: i as u64,
                    kind: e.kind.to_string(),
                    message: e.message.clone(),
                })
                .collect()
        };

        let dropped = DroppedCounts {
            metrics: c.registry.counters.overflow()
                + c.registry.gauges.overflow()
                + c.registry.histograms.overflow()
                + c.registry.series.overflow()
                + c.spans.aggregates.overflow(),
            span_records: c.spans.dropped(),
            events: c.events_dropped.load(Ordering::Relaxed),
        };

        Some(Snapshot {
            counters,
            gauges,
            histograms,
            series,
            spans,
            events,
            max_span_depth: c.spans.max_depth(),
            dropped,
        })
    }
}

/// An open span; borrows the handle that created it.
struct ActiveSpan<'t> {
    collector: &'t Collector,
    name: &'static str,
    parent: Option<&'static str>,
    depth: u32,
    start: Instant,
    args: Vec<(&'static str, f64)>,
}

/// RAII guard returned by [`Telemetry::span`]. Records the span when
/// dropped; `!Send` because nesting is tracked per thread.
pub struct Span<'t> {
    active: Option<ActiveSpan<'t>>,
    _not_send: PhantomData<*const ()>,
}

impl Span<'_> {
    /// Attaches a numeric argument to the span (e.g. the LP pivot
    /// count of the solve it timed). Arguments ride on the raw record
    /// into the Chrome trace export; aggregates ignore them. No-op on
    /// a disabled handle.
    pub fn arg(&mut self, name: &'static str, value: f64) {
        if let Some(a) = self.active.as_mut() {
            a.args.push((name, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            #[expect(
                clippy::disallowed_methods,
                reason = "telemetry is the clock home: spans read the clock only when recording"
            )]
            let end = Instant::now();
            let duration_us = end.saturating_duration_since(a.start).as_micros() as u64;
            let start_us = a
                .start
                .saturating_duration_since(a.collector.epoch)
                .as_micros() as u64;
            a.collector.spans.exit(SpanRecord {
                name: a.name,
                parent: a.parent,
                depth: a.depth,
                lane: span::current_lane(),
                start_us,
                duration_us,
                args: a.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.incr("c");
        t.gauge("g", 1.0);
        t.observe("h", 1.0);
        t.push("s", 1.0);
        t.event("e", || panic!("message closure must not run when disabled"));
        let _span = t.span("root");
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_collects_everything() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span(names::SPAN_METIS);
            let _inner = t.span(names::SPAN_ROUND);
            t.add(names::LP_SIMPLEX_ITERATIONS, 42);
            t.gauge(names::TAA_MU, 0.25);
            t.observe(names::ROUND_DURATION_US, 1500.0);
            t.push(names::TAA_U_ROOT, 12.5);
            t.event(names::EVENT_INCIDENT, || "round 1: warm retry".to_string());
        }
        let s = t.snapshot().expect("enabled");
        assert_eq!(s.counter(names::LP_SIMPLEX_ITERATIONS), 42);
        assert_eq!(s.gauge(names::TAA_MU), Some(0.25));
        assert_eq!(
            s.histogram(names::ROUND_DURATION_US).map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            s.series(names::TAA_U_ROOT).map(|x| x.points.clone()),
            Some(vec![12.5])
        );
        assert_eq!(s.max_span_depth, 2);
        let round = s.span(names::SPAN_ROUND).expect("round span");
        assert_eq!(round.parent.as_deref(), Some(names::SPAN_METIS));
        assert_eq!(s.events.len(), 1);
        assert!(s.events[0].message.contains("warm retry"));
        assert_eq!(s.dropped, DroppedCounts::default());
    }

    #[test]
    fn clones_share_one_collector() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.incr("shared");
        u.incr("shared");
        assert_eq!(t.snapshot().expect("enabled").counter("shared"), 2);
    }

    #[test]
    fn snapshot_roundtrips_through_exports() {
        let t = Telemetry::enabled();
        t.incr("a.count");
        t.observe("a.hist", 3.0);
        t.push("a.series", 1.0);
        {
            let _s = t.span("a.span");
        }
        t.event("incident", || "msg".to_string());
        let snap = t.snapshot().expect("enabled");
        let json = snap.to_json();
        assert!(json.contains("a.hist"));
        let prom = to_prometheus(&snap);
        validate_prometheus(&prom).expect("exported text is valid");
        assert!(prom.contains("metis_a_count"));
        assert!(prom.contains("metis_a_hist_bucket{le=\"+Inf\"}"));
        assert!(prom.contains("metis_span_calls_total{span=\"a.span\"}"));
    }
}
