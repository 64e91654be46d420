//! Immutable snapshots of a collector and their JSON rendering.
//!
//! Snapshots are fully ordered (every list is sorted by name; series
//! and events keep insertion order) so that two runs recording the
//! same values render byte-identical JSON. A snapshot renders as a
//! [`Json`] value printed by [`Json::to_pretty`], so it shares the
//! workspace's one escaper and number rule (`NaN`/`±Inf` become `null`).
//! Its integers (counters, span counts and microsecond times, event
//! sequence numbers) export as JSON numbers, which are `f64`, so they
//! are exact up to 2^53: about 285 years of span time in microseconds.

use crate::json::{obj, Json};
use crate::metrics::{HISTOGRAM_BOUNDS, SERIES_CAPACITY};

/// A counter's final value.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name (dotted, e.g. `lp.simplex.iterations`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A gauge's last-written value.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// A histogram's buckets and summary statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Per-bucket observation counts over
    /// [`HISTOGRAM_BOUNDS`](crate::HISTOGRAM_BOUNDS) plus the final
    /// `+Inf` bucket (always [`BUCKET_COUNT`](crate::BUCKET_COUNT)
    /// entries, zeros included, so the schema is stable).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0 when empty).
    pub min: f64,
    /// Largest observed value (0 when empty).
    pub max: f64,
}

/// An ordered series of recorded points.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Recorded points in insertion order (capped at
    /// [`SERIES_CAPACITY`](crate::SERIES_CAPACITY)).
    pub points: Vec<f64>,
    /// Points dropped after the cap was hit.
    pub dropped: u64,
}

/// Aggregate of all finished spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSnapshot {
    /// Span name (dotted, e.g. `maa.rounding`).
    pub name: String,
    /// Parent span name of the first recorded occurrence, if nested.
    pub parent: Option<String>,
    /// Finished occurrences.
    pub count: u64,
    /// Total time across occurrences, microseconds.
    pub total_us: u64,
    /// Shortest occurrence, microseconds (0 when empty).
    pub min_us: u64,
    /// Longest occurrence, microseconds.
    pub max_us: u64,
    /// Deepest nesting any occurrence was recorded at (root = 1).
    pub max_depth: u32,
}

/// One event pushed through the collector (e.g. an incident).
#[derive(Clone, Debug, PartialEq)]
pub struct EventSnapshot {
    /// Insertion index, starting at 0.
    pub seq: u64,
    /// Event kind (e.g. `incident`).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// How much recording the bounded collector had to drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DroppedCounts {
    /// Raw span records beyond the log capacity.
    pub span_records: u64,
    /// Events beyond the event-log capacity.
    pub events: u64,
}

/// A consistent copy of everything a [`Telemetry`](crate::Telemetry)
/// handle collected.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
    /// Span aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
    /// Events in insertion order.
    pub events: Vec<EventSnapshot>,
    /// Deepest span nesting observed anywhere.
    pub max_span_depth: u32,
    /// What the bounded collector dropped.
    pub dropped: DroppedCounts,
}

impl Snapshot {
    /// Looks up a counter value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Looks up a gauge value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a series.
    pub fn series(&self, name: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Looks up a span aggregate.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total wall-clock seconds spent in spans named `name`.
    pub fn span_secs(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.total_us as f64 / 1e6)
    }

    /// Renders the snapshot as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.json().to_pretty())
    }

    /// Renders only the snapshot's *shape*: identical to [`to_json`]
    /// except every number is replaced by `0`, and per-run quantities
    /// whose lengths vary (series points, event sequence) keep their
    /// structure. Two runs of the same deterministic configuration
    /// produce identical schema JSON even though timings differ —
    /// this is what the golden-fixture test pins.
    ///
    /// [`to_json`]: Snapshot::to_json
    pub fn schema_json(&self) -> String {
        let mut value = self.json();
        zero_numbers(&mut value);
        format!("{}\n", value.to_pretty())
    }

    /// The snapshot as one JSON value, keys in rendering order.
    fn json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value.into()));
        let gauges = self.gauges.iter().map(|g| (g.name.clone(), g.value.into()));
        let histograms = self.histograms.iter().map(|h| {
            let buckets = h.buckets.iter().map(|&b| b.into()).collect();
            let fields = obj([
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("min", h.min.into()),
                ("max", h.max.into()),
                ("buckets", Json::Arr(buckets)),
            ]);
            (h.name.clone(), fields)
        });
        let series = self.series.iter().map(|s| {
            let points = s.points.iter().map(|&p| p.into()).collect();
            let fields = obj([("dropped", s.dropped.into()), ("points", Json::Arr(points))]);
            (s.name.clone(), fields)
        });
        let spans = self.spans.iter().map(|s| {
            let fields = obj([
                ("parent", s.parent.clone().map_or(Json::Null, Json::Str)),
                ("count", s.count.into()),
                ("total_us", s.total_us.into()),
                ("min_us", s.min_us.into()),
                ("max_us", s.max_us.into()),
                ("max_depth", s.max_depth.into()),
            ]);
            (s.name.clone(), fields)
        });
        let events = self.events.iter().map(|e| {
            obj([
                ("seq", e.seq.into()),
                ("kind", e.kind.as_str().into()),
                ("message", e.message.as_str().into()),
            ])
        });
        obj([
            ("version", 1u32.into()),
            (
                "bucket_bounds",
                Json::Arr(HISTOGRAM_BOUNDS.iter().map(|&b| b.into()).collect()),
            ),
            ("series_capacity", SERIES_CAPACITY.into()),
            ("counters", Json::Obj(counters.collect())),
            ("gauges", Json::Obj(gauges.collect())),
            ("histograms", Json::Obj(histograms.collect())),
            ("series", Json::Obj(series.collect())),
            ("spans", Json::Obj(spans.collect())),
            ("events", Json::Arr(events.collect())),
            ("max_span_depth", self.max_span_depth.into()),
            (
                "dropped",
                obj([
                    ("span_records", self.dropped.span_records.into()),
                    ("events", self.dropped.events.into()),
                ]),
            ),
        ])
    }
}

/// Replaces every number in `value` with `0`, keeping its structure.
fn zero_numbers(value: &mut Json) {
    match value {
        Json::Num(n) => *n = 0.0,
        Json::Arr(items) => items.iter_mut().for_each(zero_numbers),
        Json::Obj(fields) => fields.iter_mut().for_each(|(_, v)| zero_numbers(v)),
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "a.b".into(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "g".into(),
                value: 1.5,
            }],
            histograms: Vec::new(),
            series: vec![SeriesSnapshot {
                name: "s".into(),
                points: vec![1.0, 2.0],
                dropped: 0,
            }],
            spans: vec![SpanSnapshot {
                name: "root".into(),
                parent: None,
                count: 1,
                total_us: 10,
                min_us: 10,
                max_us: 10,
                max_depth: 1,
            }],
            events: vec![EventSnapshot {
                seq: 0,
                kind: "incident".into(),
                message: "round 1: \"quoted\"".into(),
            }],
            max_span_depth: 1,
            dropped: DroppedCounts::default(),
        }
    }

    #[test]
    fn json_is_well_formed_and_contains_names() {
        let j = tiny().to_json();
        assert!(j.starts_with('{'));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"a.b\": 3"));
        assert!(j.contains("\"g\": 1.5"));
        assert!(j.contains("\\\"quoted\\\""));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn schema_json_zeroes_values_but_keeps_structure() {
        let a = tiny();
        let mut b = tiny();
        b.counters[0].value = 999;
        b.gauges[0].value = -7.25;
        b.spans[0].total_us = 123_456;
        assert_eq!(a.schema_json(), b.schema_json());
        assert_ne!(a.to_json(), b.to_json());
        assert!(a.schema_json().contains("\"a.b\": 0"));
    }
}
