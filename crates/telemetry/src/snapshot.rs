//! Immutable snapshots of a collector and their JSON rendering.
//!
//! Snapshots are fully ordered (every list is sorted by name; series
//! and events keep insertion order) so that two runs recording the
//! same values render byte-identical JSON. The JSON writer is local to
//! this crate — the workspace vendors no `serde_json` — and emits only
//! finite numbers (`NaN`/`±Inf` become `null`).

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
        let mut w = JsonWriter::new();
        self.write_json(&mut w, false);
        w.finish()
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
        let mut w = JsonWriter::new();
        self.write_json(&mut w, true);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter, schema: bool) {
        w.open_obj();
        w.key("version");
        w.num_u64(if schema { 0 } else { 1 }, false);
        // `schema` zeroes every numeric leaf so the golden fixture pins
        // structure, not timing; `version` is zeroed for uniformity.
        w.key("bucket_bounds");
        w.open_arr();
        for b in HISTOGRAM_BOUNDS {
            w.num_f64(b, schema);
        }
        w.close_arr();
        w.key("series_capacity");
        w.num_u64(SERIES_CAPACITY as u64, schema);

        w.key("counters");
        w.open_obj();
        for c in &self.counters {
            w.key(&c.name);
            w.num_u64(c.value, schema);
        }
        w.close_obj();

        w.key("gauges");
        w.open_obj();
        for g in &self.gauges {
            w.key(&g.name);
            w.num_f64(g.value, schema);
        }
        w.close_obj();

        w.key("histograms");
        w.open_obj();
        for h in &self.histograms {
            w.key(&h.name);
            w.open_obj();
            w.key("count");
            w.num_u64(h.count, schema);
            w.key("sum");
            w.num_f64(h.sum, schema);
            w.key("min");
            w.num_f64(h.min, schema);
            w.key("max");
            w.num_f64(h.max, schema);
            w.key("buckets");
            w.open_arr();
            for &b in &h.buckets {
                w.num_u64(b, schema);
            }
            w.close_arr();
            w.close_obj();
        }
        w.close_obj();

        w.key("series");
        w.open_obj();
        for s in &self.series {
            w.key(&s.name);
            w.open_obj();
            w.key("dropped");
            w.num_u64(s.dropped, schema);
            w.key("points");
            w.open_arr();
            for &p in &s.points {
                w.num_f64(p, schema);
            }
            w.close_arr();
            w.close_obj();
        }
        w.close_obj();

        w.key("spans");
        w.open_obj();
        for s in &self.spans {
            w.key(&s.name);
            w.open_obj();
            w.key("parent");
            match &s.parent {
                Some(p) => w.str(p),
                None => w.null(),
            }
            w.key("count");
            w.num_u64(s.count, schema);
            w.key("total_us");
            w.num_u64(s.total_us, schema);
            w.key("min_us");
            w.num_u64(s.min_us, schema);
            w.key("max_us");
            w.num_u64(s.max_us, schema);
            w.key("max_depth");
            w.num_u64(u64::from(s.max_depth), schema);
            w.close_obj();
        }
        w.close_obj();

        w.key("events");
        w.open_arr();
        for e in &self.events {
            w.open_obj();
            w.key("seq");
            w.num_u64(e.seq, schema);
            w.key("kind");
            w.str(&e.kind);
            w.key("message");
            w.str(&e.message);
            w.close_obj();
        }
        w.close_arr();

        w.key("max_span_depth");
        w.num_u64(u64::from(self.max_span_depth), schema);

        w.key("dropped");
        w.open_obj();
        w.key("span_records");
        w.num_u64(self.dropped.span_records, schema);
        w.key("events");
        w.num_u64(self.dropped.events, schema);
        w.close_obj();

        w.close_obj();
    }
}

/// Minimal pretty-printing JSON writer (objects, arrays, strings,
/// numbers, null). Keys are written in the order given; callers are
/// responsible for sorting. Shared with the Chrome-trace exporter.
pub(crate) struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already holds an element.
    has_item: Vec<bool>,
    /// Set after `key()`, cleared by the value that follows it.
    pending_value: bool,
}

impl JsonWriter {
    pub(crate) fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_item: Vec::new(),
            pending_value: false,
        }
    }

    pub(crate) fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    fn before_value(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
            self.newline_indent();
        }
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    pub(crate) fn open_obj(&mut self) {
        self.before_value();
        self.out.push('{');
        self.indent += 1;
        self.has_item.push(false);
    }

    pub(crate) fn close_obj(&mut self) {
        self.indent -= 1;
        let had = self.has_item.pop().unwrap_or(false);
        if had {
            self.newline_indent();
        }
        self.out.push('}');
    }

    pub(crate) fn open_arr(&mut self) {
        self.before_value();
        self.out.push('[');
        self.indent += 1;
        self.has_item.push(false);
    }

    pub(crate) fn close_arr(&mut self) {
        self.indent -= 1;
        let had = self.has_item.pop().unwrap_or(false);
        if had {
            self.newline_indent();
        }
        self.out.push(']');
    }

    pub(crate) fn key(&mut self, k: &str) {
        if let Some(has) = self.has_item.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        self.newline_indent();
        self.push_escaped(k);
        self.out.push_str(": ");
        self.pending_value = true;
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.before_value();
        self.push_escaped(s);
    }

    pub(crate) fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    pub(crate) fn num_u64(&mut self, v: u64, schema: bool) {
        self.before_value();
        if schema {
            self.out.push('0');
        } else {
            self.out.push_str(&v.to_string());
        }
    }

    pub(crate) fn num_f64(&mut self, v: f64, schema: bool) {
        self.before_value();
        if schema {
            self.out.push('0');
        } else if v.is_finite() {
            self.out.push_str(&format_f64(v));
        } else {
            self.out.push_str("null");
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

/// Shortest-roundtrip decimal for `v`, with an explicit `.0` for
/// integral values so the token stays typed as a float.
pub(crate) fn format_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
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

    #[test]
    fn format_f64_keeps_float_tokens() {
        assert_eq!(format_f64(1.0), "1.0");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(-3.0), "-3.0");
        assert_eq!(format_f64(1e-9), "0.000000001");
        assert_eq!(format_f64(1e25), "10000000000000000000000000.0");
    }
}
