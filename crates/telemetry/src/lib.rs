//! Lightweight observability for the Metis pipeline: timed spans with
//! parent/child nesting, a metrics registry (counters, gauges,
//! fixed-bucket histograms, bounded series), an event stream for
//! incidents, and JSON / Prometheus snapshot export.
//!
//! The [`json`] module is the workspace's one JSON implementation: the
//! snapshot and the Chrome trace are built as [`json::Json`] values and
//! printed through it, and the workload crate parses scenario files
//! with it. It sits here because this crate depends on nothing.
//!
//! # Design constraints
//!
//! - **True no-op when disabled.** [`Telemetry::disabled`] carries no
//!   collector; every recording call is a single `Option` check, takes
//!   no clock reading, and allocates nothing.
//! - **Never perturbs results.** Recording is a write-only side
//!   channel: nothing in the pipeline reads telemetry state, so a run
//!   with telemetry on is bit-identical to one with it off.
//! - **One lock, whole snapshots.** The pipeline records only on the
//!   calling thread, after each parallel region's index-ordered
//!   reduction, so the one party that ever runs concurrently with a
//!   recording is a reader such as the live HTTP endpoint. Everything
//!   a collector holds therefore sits behind one uncontended mutex:
//!   each recording is one short critical section, and a snapshot
//!   copies every metric whole. The span and event logs are bounded;
//!   overflow is counted, not grown.
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

pub mod json;
mod metrics;
mod prometheus;
mod serve;
mod snapshot;
mod span;
mod trace;

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub use metrics::{bucket_index, BUCKET_COUNT, HISTOGRAM_BOUNDS, SERIES_CAPACITY};
pub use prometheus::{to_prometheus, validate_prometheus};
pub use serve::MetricsServer;
pub use snapshot::{
    CounterSnapshot, DroppedCounts, EventSnapshot, GaugeSnapshot, HistogramSnapshot,
    SeriesSnapshot, Snapshot, SpanSnapshot,
};
pub use trace::TraceSpan;

use metrics::{Histogram, Series};
use span::{SpanAgg, RAW_CAPACITY};

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
    /// Counter: primal pivots whose entering column a cold slack-start
    /// solve replayed from the problem's previous such solve, with no
    /// pricing pass.
    pub const LP_SIMPLEX_REPLAYED: &str = "lp.simplex.replayed";
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

/// Everything an enabled collector has recorded.
#[derive(Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    series: BTreeMap<&'static str, Series>,
    spans: BTreeMap<&'static str, SpanAgg>,
    /// Finished spans in finishing order, at most [`RAW_CAPACITY`].
    raw_spans: Vec<TraceSpan>,
    /// At most [`EVENT_CAPACITY`] events.
    events: Vec<Event>,
    dropped: DroppedCounts,
}

impl State {
    fn record_span(&mut self, span: TraceSpan) {
        self.spans
            .entry(span.name)
            .or_insert_with(|| SpanAgg::new(span.parent))
            .add(span.duration_us, span.depth);
        if self.raw_spans.len() < RAW_CAPACITY {
            self.raw_spans.push(span);
        } else {
            self.dropped.span_records += 1;
        }
    }

    fn snapshot(&self) -> Snapshot {
        // Surface buffer saturation as first-class counters (always
        // present, usually 0) so a truncated span log or event stream
        // is visible on /metrics instead of silently reading as
        // "covered everything". The names are reserved: these values
        // replace any recording made under them.
        let mut counters = self.counters.clone();
        counters.insert(names::TELEMETRY_SPANS_DROPPED, self.dropped.span_records);
        counters.insert(names::TELEMETRY_EVENTS_DROPPED, self.dropped.events);
        Snapshot {
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterSnapshot {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, &value)| GaugeSnapshot {
                    name: name.to_string(),
                    value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
            series: self
                .series
                .iter()
                .map(|(name, s)| s.snapshot(name))
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(name, a)| a.snapshot(name))
                .collect(),
            events: self
                .events
                .iter()
                .enumerate()
                .map(|(i, e)| EventSnapshot {
                    seq: i as u64,
                    kind: e.kind.to_string(),
                    message: e.message.clone(),
                })
                .collect(),
            max_span_depth: self
                .spans
                .values()
                .map(SpanAgg::max_depth)
                .max()
                .unwrap_or(0),
            dropped: self.dropped,
        }
    }
}

/// The shared backing store of an enabled [`Telemetry`] handle.
struct Collector {
    state: Mutex<State>,
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
            state: Mutex::new(State::default()),
            epoch: Instant::now(),
        }
    }

    /// Locks the collector's state. A recorder that panicked while
    /// holding the lock (an event's message closure) had not yet
    /// written anything, and no other update can panic part way, so a
    /// poisoned state is still whole and recording carries on.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
    fn collector(&self) -> Option<&Collector> {
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
        let active = self.collector().map(|c| {
            let (parent, depth) = span::enter(name);
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
        if let Some(c) = self.collector() {
            *c.state().counters.entry(name).or_default() += delta;
        }
    }

    /// Increments the counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(c) = self.collector() {
            c.state().gauges.insert(name, value);
        }
    }

    /// Observes `value` into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(c) = self.collector() {
            c.state().histograms.entry(name).or_default().observe(value);
        }
    }

    /// Appends `value` to the series `name`.
    pub fn push(&self, name: &'static str, value: f64) {
        if let Some(c) = self.collector() {
            c.state().series.entry(name).or_default().push(value);
        }
    }

    /// Pushes an event. The message closure only runs when enabled,
    /// so disabled handles never pay for formatting. It runs under the
    /// collector's lock, so it must not record into the same handle.
    pub fn event(&self, kind: &'static str, message: impl FnOnce() -> String) {
        if let Some(c) = self.collector() {
            let mut state = c.state();
            if state.events.len() < EVENT_CAPACITY {
                let message = message();
                state.events.push(Event { kind, message });
            } else {
                state.dropped.events += 1;
            }
        }
    }

    /// Takes a consistent snapshot, or `None` for a disabled handle.
    pub fn snapshot(&self) -> Option<Snapshot> {
        Some(self.collector()?.state().snapshot())
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
            span::exit(a.name);
            let finished = TraceSpan {
                name: a.name,
                parent: a.parent,
                depth: a.depth,
                lane: span::current_lane(),
                start_us: a
                    .start
                    .saturating_duration_since(a.collector.epoch)
                    .as_micros() as u64,
                duration_us: end.saturating_duration_since(a.start).as_micros() as u64,
                args: a.args,
            };
            a.collector.state().record_span(finished);
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

    #[test]
    fn full_raw_log_keeps_counting_and_first_seen_parents() {
        let t = Telemetry::enabled();
        for _ in 0..(RAW_CAPACITY + 5) {
            let _s = t.span("hot");
        }
        // The first occurrence of a nested name arrives after the raw
        // log is full: its aggregate still names the parent.
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        assert_eq!(t.raw_spans().expect("enabled").len(), RAW_CAPACITY);
        let s = t.snapshot().expect("enabled");
        assert_eq!(s.dropped.span_records, 7);
        assert_eq!(s.counter(names::TELEMETRY_SPANS_DROPPED), 7);
        assert_eq!(
            s.span("hot").map(|a| a.count),
            Some(RAW_CAPACITY as u64 + 5)
        );
        let inner = s.span("inner").expect("inner aggregate");
        assert_eq!(inner.parent.as_deref(), Some("outer"));
        assert_eq!(inner.max_depth, 2);
        assert_eq!(s.span("outer").and_then(|a| a.parent.clone()), None);
        assert_eq!(s.max_span_depth, 2);
    }

    #[test]
    fn snapshots_are_whole_under_a_concurrent_writer() {
        // A few thousand recordings keep this quick under Miri.
        const N: usize = 1_000;
        let t = Telemetry::enabled();
        let writer = t.clone();
        let check = |s: &Snapshot| {
            for h in &s.histograms {
                assert_eq!(h.buckets.iter().sum::<u64>(), h.count, "{}", h.name);
                assert!(h.min <= h.max, "{h:?}");
            }
            if let Some(series) = s.series("s") {
                for (i, &p) in series.points.iter().enumerate() {
                    assert_eq!(p, i as f64, "series points are a prefix of the pushes");
                }
            }
        };
        std::thread::scope(|scope| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test needs a second OS thread to record while this one reads"
            )]
            let recording = scope.spawn(move || {
                for i in 0..N {
                    writer.observe("h", (i % 97) as f64);
                    writer.push("s", i as f64);
                    writer.add("c", 1);
                }
            });
            while !recording.is_finished() {
                check(&t.snapshot().expect("enabled"));
            }
        });
        let s = t.snapshot().expect("enabled");
        check(&s);
        assert_eq!(s.counter("c"), N as u64);
        assert_eq!(s.histogram("h").map(|h| h.count), Some(N as u64));
        let series = s.series("s").expect("series");
        assert_eq!(series.points.len() as u64 + series.dropped, N as u64);
    }
}
