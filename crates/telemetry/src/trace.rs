//! Chrome/Perfetto trace-event export of the bounded raw span log.
//!
//! The collector keeps every finished span verbatim (up to the log
//! bound) with a start offset from the collector's epoch and the
//! recording thread's lane. This module re-emits that log in the
//! [trace-event format] understood by `chrome://tracing` and
//! `ui.perfetto.dev`: one complete (`"ph": "X"`) event per span, one
//! timeline row (`tid`) per thread lane, and span arguments (e.g. LP
//! pivot counts) carried through in `args`, so a solver run can be
//! inspected visually instead of through aggregate tables.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{obj, Json};
use crate::Telemetry;

/// One finished span from the raw log, in export-ready form.
///
/// `start_us` is the offset from the collector's creation (the trace
/// epoch), so timestamps are comparable across threads; `lane` is a
/// process-wide thread id assigned in first-span order.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Span name.
    pub name: &'static str,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth (outermost span = 1).
    pub depth: u32,
    /// Thread lane the span ran on.
    pub lane: u32,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub duration_us: u64,
    /// Numeric arguments attached via [`crate::Span::arg`].
    pub args: Vec<(&'static str, f64)>,
}

impl Telemetry {
    /// The raw span log in deterministic order (by start offset, then
    /// lane, then depth, then name), or `None` for a disabled handle.
    pub fn raw_spans(&self) -> Option<Vec<TraceSpan>> {
        let mut spans = self.collector()?.state().raw_spans.clone();
        spans.sort_by(|a, b| {
            (a.start_us, a.lane, a.depth, a.name).cmp(&(b.start_us, b.lane, b.depth, b.name))
        });
        Some(spans)
    }

    /// Renders the raw span log as Chrome trace-event JSON, or `None`
    /// for a disabled handle. The output opens directly in
    /// `ui.perfetto.dev` or `chrome://tracing`. Span times (`ts`, `dur`)
    /// are microseconds written as JSON numbers, exact up to 2^53.
    pub fn chrome_trace(&self) -> Option<String> {
        let spans = self.raw_spans()?;
        Some(chrome_trace_json(&spans))
    }
}

/// Serializes already-ordered spans as a trace-event JSON document.
pub(crate) fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    // Metadata: name the process and one timeline row per lane.
    let metadata = |name: &str, tid: u32, label: String| {
        obj([
            ("name", name.into()),
            ("ph", "M".into()),
            ("pid", 1u32.into()),
            ("tid", tid.into()),
            ("args", obj([("name", label.into())])),
        ])
    };
    let mut events = vec![metadata("process_name", 0, "metis".to_string())];
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    events.extend(
        lanes
            .iter()
            .map(|&lane| metadata("thread_name", lane, format!("lane-{lane}"))),
    );

    events.extend(spans.iter().map(|s| {
        let mut args = vec![("depth".to_string(), s.depth.into())];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), p.into()));
        }
        args.extend(s.args.iter().map(|&(k, v)| (k.to_string(), v.into())));
        obj([
            ("name", s.name.into()),
            ("cat", "metis".into()),
            ("ph", "X".into()),
            ("ts", s.start_us.into()),
            ("dur", s.duration_us.into()),
            ("pid", 1u32.into()),
            ("tid", s.lane.into()),
            ("args", Json::Obj(args)),
        ])
    }));

    let trace = obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ]);
    format!("{}\n", trace.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_spans_preserve_nesting_and_args() {
        let t = Telemetry::enabled();
        {
            let mut outer = t.span("outer");
            outer.arg("outer.k", 2.0);
            {
                let _inner = t.span("inner");
            }
        }
        let spans = t.raw_spans().expect("enabled");
        assert_eq!(spans.len(), 2);
        // Sorted by start offset: outer starts first.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].args, vec![("outer.k", 2.0)]);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, Some("outer"));
        assert_eq!(spans[1].depth, 2);
        assert_eq!(spans[0].lane, spans[1].lane, "same thread, same lane");
        // The child interval nests inside the parent (allow 2us of
        // floor-rounding slack from independent µs truncation).
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(
            spans[1].start_us + spans[1].duration_us
                <= spans[0].start_us + spans[0].duration_us + 2
        );
    }

    #[test]
    fn disabled_handle_has_no_trace() {
        let t = Telemetry::disabled();
        assert!(t.raw_spans().is_none());
        assert!(t.chrome_trace().is_none());
    }

    #[test]
    fn chrome_json_shape() {
        let spans = vec![
            TraceSpan {
                name: "root",
                parent: None,
                depth: 1,
                lane: 0,
                start_us: 0,
                duration_us: 100,
                args: vec![("lp.iterations", 42.0)],
            },
            TraceSpan {
                name: "child",
                parent: Some("root"),
                depth: 2,
                lane: 3,
                start_us: 10,
                duration_us: 20,
                args: Vec::new(),
            },
        ];
        let j = chrome_trace_json(&spans);
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"ph\": \"M\""));
        assert!(j.contains("\"lane-3\""));
        assert!(j.contains("\"lp.iterations\": 42"));
        assert!(j.contains("\"parent\": \"root\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
