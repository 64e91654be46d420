//! Prometheus text exposition (format 0.0.4) rendering and a
//! `promtool`-style line-format validator.
//!
//! The validator exists so CI can smoke-check exported text without an
//! external binary: it enforces metric/label name grammar, sample
//! value syntax, `TYPE`/`HELP` comment shape, and histogram-specific
//! invariants (cumulative `le` buckets, `+Inf` bucket equal to
//! `_count`).

use std::collections::BTreeMap;

use crate::metrics::HISTOGRAM_BOUNDS;
use crate::snapshot::Snapshot;

/// Prefix applied to every exported family name.
const PREFIX: &str = "metis_";

/// Maps a dotted metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixing `metis_`.
fn family(name: &str) -> String {
    let mut out = String::with_capacity(PREFIX.len() + name.len());
    out.push_str(PREFIX);
    // The prefix guarantees a valid first character, so every name
    // character only needs the continuation grammar — leading digits
    // survive (`9lives` → `metis_9lives`); anything else maps to `_`.
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format.
fn label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A sample value: shortest round-trip decimal with an explicit `.0` for
/// integral values so the token stays typed as a float, and the
/// exposition format's `+Inf`/`-Inf`/`NaN` for non-finite values.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges map directly; histograms emit cumulative
/// `_bucket{le=...}` samples plus `_sum`/`_count`; each series emits
/// its last value as a gauge plus a point-count counter; span
/// aggregates emit `metis_span_calls_total` / `metis_span_us_total`
/// labelled by span name; events aggregate into
/// `metis_events_total{kind=...}`.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();

    for c in &snapshot.counters {
        let f = family(&c.name);
        out.push_str(&format!("# TYPE {f} counter\n{f} {}\n", c.value));
    }

    for g in &snapshot.gauges {
        let f = family(&g.name);
        out.push_str(&format!("# TYPE {f} gauge\n{f} {}\n", format_f64(g.value)));
    }

    for h in &snapshot.histograms {
        let f = family(&h.name);
        out.push_str(&format!("# TYPE {f} histogram\n"));
        let mut cumulative = 0u64;
        for (i, &bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = format_f64(HISTOGRAM_BOUNDS.get(i).copied().unwrap_or(f64::INFINITY));
            out.push_str(&format!("{f}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{f}_sum {}\n", format_f64(h.sum)));
        out.push_str(&format!("{f}_count {}\n", h.count));
    }

    for s in &snapshot.series {
        let f = family(&s.name);
        if let Some(last) = s.points.last() {
            out.push_str(&format!(
                "# TYPE {f}_last gauge\n{f}_last {}\n",
                format_f64(*last)
            ));
        }
        let total = s.points.len() as u64 + s.dropped;
        out.push_str(&format!(
            "# TYPE {f}_points_total counter\n{f}_points_total {total}\n"
        ));
    }

    if !snapshot.spans.is_empty() {
        out.push_str("# TYPE metis_span_calls_total counter\n");
        for s in &snapshot.spans {
            out.push_str(&format!(
                "metis_span_calls_total{{span=\"{}\"}} {}\n",
                label_value(&s.name),
                s.count
            ));
        }
        out.push_str("# TYPE metis_span_us_total counter\n");
        for s in &snapshot.spans {
            out.push_str(&format!(
                "metis_span_us_total{{span=\"{}\"}} {}\n",
                label_value(&s.name),
                s.total_us
            ));
        }
    }

    if !snapshot.events.is_empty() {
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &snapshot.events {
            *by_kind.entry(e.kind.as_str()).or_insert(0) += 1;
        }
        out.push_str("# TYPE metis_events_total counter\n");
        for (kind, n) in by_kind {
            out.push_str(&format!(
                "metis_events_total{{kind=\"{}\"}} {n}\n",
                label_value(kind)
            ));
        }
    }

    out
}

fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit()
}

fn is_label_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_label_char(c: char) -> bool {
    is_label_start(c) || c.is_ascii_digit()
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;

    if bytes.is_empty() || !is_name_start(bytes[0]) {
        return Err(err("sample must start with a metric name"));
    }
    while i < bytes.len() && is_name_char(bytes[i]) {
        i += 1;
    }
    let name: String = bytes[..i].iter().collect();

    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == '{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err(err("unterminated label set"));
            }
            if bytes[i] == '}' {
                i += 1;
                break;
            }
            if !is_label_start(bytes[i]) {
                return Err(err("bad label name"));
            }
            let lstart = i;
            while i < bytes.len() && is_label_char(bytes[i]) {
                i += 1;
            }
            let lname: String = bytes[lstart..i].iter().collect();
            if i >= bytes.len() || bytes[i] != '=' {
                return Err(err("label missing '='"));
            }
            i += 1;
            if i >= bytes.len() || bytes[i] != '"' {
                return Err(err("label value missing opening quote"));
            }
            i += 1;
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(err("unterminated label value"));
                }
                match bytes[i] {
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some('\\') => value.push('\\'),
                            Some('"') => value.push('"'),
                            Some('n') => value.push('\n'),
                            _ => return Err(err("bad escape in label value")),
                        }
                        i += 1;
                    }
                    c => {
                        value.push(c);
                        i += 1;
                    }
                }
            }
            labels.push((lname, value));
            if i < bytes.len() && bytes[i] == ',' {
                i += 1;
            }
        }
    }

    if i >= bytes.len() || bytes[i] != ' ' {
        return Err(err("expected single space before value"));
    }
    i += 1;
    let rest: String = bytes[i..].iter().collect();
    let mut parts = rest.split(' ');
    let value_tok = parts.next().unwrap_or("");
    let value = match value_tok {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .parse::<f64>()
            .map_err(|_| err("value is not a valid float"))?,
    };
    // An optional integer timestamp may follow the value.
    if let Some(ts) = parts.next() {
        if ts.parse::<i64>().is_err() {
            return Err(err("trailing token is not a timestamp"));
        }
        if parts.next().is_some() {
            return Err(err("too many tokens"));
        }
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Validates Prometheus text exposition format, `promtool check
/// metrics`-style, without any external binary.
///
/// Enforces, per line: metric/label name grammar, label value escaping,
/// float syntax (`+Inf`/`-Inf`/`NaN` accepted), and `# TYPE`/`# HELP`
/// comment shape. Across lines: at most one `TYPE` per family, samples
/// of a `histogram` family restricted to `_bucket`/`_sum`/`_count`
/// suffixes, cumulative non-decreasing `le` buckets, and the `+Inf`
/// bucket present and equal to `_count`.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // family -> (buckets in order of appearance, count sample)
    let mut hist_buckets: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    let mut hist_counts: BTreeMap<String, f64> = BTreeMap::new();

    for (n, line) in text.lines().enumerate() {
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let fam = it.next().unwrap_or("");
                let kind = it.next().unwrap_or("");
                if fam.is_empty()
                    || !fam.chars().enumerate().all(|(i, c)| {
                        if i == 0 {
                            is_name_start(c)
                        } else {
                            is_name_char(c)
                        }
                    })
                {
                    return Err(format!("line {lineno}: bad family name in TYPE"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
                if types.insert(fam.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {fam}"));
                }
            }
            // HELP and free comments are allowed without further checks.
            continue;
        }

        let sample = parse_sample(line, lineno)?;
        // Histogram family bookkeeping.
        let base = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_sum"))
            .or_else(|| sample.name.strip_suffix("_count"))
            .unwrap_or(&sample.name);
        if types.get(base).map(String::as_str) == Some("histogram") {
            if sample.name.ends_with("_bucket") {
                let le = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| format!("line {lineno}: histogram bucket without le label"))?;
                hist_buckets
                    .entry(base.to_string())
                    .or_default()
                    .push((le, sample.value));
            } else if sample.name.ends_with("_count") {
                hist_counts.insert(base.to_string(), sample.value);
            } else if !sample.name.ends_with("_sum") {
                return Err(format!(
                    "line {lineno}: sample {} does not match histogram family {base}",
                    sample.name
                ));
            }
        }
    }

    for (fam, buckets) in &hist_buckets {
        let mut prev = f64::NEG_INFINITY;
        let mut inf_value = None;
        for (le, v) in buckets {
            if *v < prev {
                return Err(format!("histogram {fam}: bucket counts not cumulative"));
            }
            prev = *v;
            if le == "+Inf" {
                inf_value = Some(*v);
            } else if le.parse::<f64>().is_err() {
                return Err(format!("histogram {fam}: bad le value {le:?}"));
            }
        }
        let inf = inf_value.ok_or_else(|| format!("histogram {fam}: missing +Inf bucket"))?;
        if let Some(count) = hist_counts.get(fam) {
            if (inf - count).abs() > 0.0 {
                return Err(format!("histogram {fam}: +Inf bucket != _count"));
            }
        } else {
            return Err(format!("histogram {fam}: missing _count sample"));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_f64_keeps_float_tokens() {
        assert_eq!(format_f64(1.0), "1.0");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(-3.0), "-3.0");
        assert_eq!(format_f64(1e-9), "0.000000001");
        assert_eq!(format_f64(1e25), "10000000000000000000000000.0");
        assert_eq!(format_f64(f64::INFINITY), "+Inf");
        assert_eq!(format_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_f64(f64::NAN), "NaN");
    }

    #[test]
    fn non_finite_values_export_validly() {
        let t = crate::Telemetry::enabled();
        t.gauge("g.inf", f64::INFINITY);
        t.gauge("g.neg", f64::NEG_INFINITY);
        t.push("s.nan", f64::NAN);
        t.observe("h.inf", f64::INFINITY);
        let text = to_prometheus(&t.snapshot().expect("enabled"));
        validate_prometheus(&text).expect("non-finite values must export valid text");
        assert!(text.contains("metis_g_inf +Inf\n"));
        assert!(text.contains("metis_g_neg -Inf\n"));
        assert!(text.contains("metis_s_nan_last NaN\n"));
        assert!(text.contains("metis_h_inf_sum +Inf\n"));
        assert!(text.contains("metis_h_inf_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn family_sanitizes_names() {
        assert_eq!(
            family("lp.simplex.iterations"),
            "metis_lp_simplex_iterations"
        );
        // Leading digits are legal after the `metis_` prefix.
        assert_eq!(family("9lives"), "metis_9lives");
        assert_eq!(family("a-b c/d"), "metis_a_b_c_d");
        assert_eq!(family("café.λ"), "metis_caf___");
        assert_eq!(family(""), "metis_");
    }

    #[test]
    fn hostile_names_and_labels_export_validly() {
        use crate::snapshot::{
            CounterSnapshot, DroppedCounts, EventSnapshot, SeriesSnapshot, Snapshot, SpanSnapshot,
        };
        let snap = Snapshot {
            counters: vec![CounterSnapshot {
                name: "9lives of-the.café".into(),
                value: 3,
            }],
            gauges: Vec::new(),
            histograms: Vec::new(),
            series: vec![SeriesSnapshot {
                name: "söries/points".into(),
                points: vec![1.5],
                dropped: 2,
            }],
            spans: vec![SpanSnapshot {
                name: "span \"with\" quotes\\and\nnewline".into(),
                parent: None,
                count: 1,
                total_us: 5,
                min_us: 5,
                max_us: 5,
                max_depth: 1,
            }],
            events: vec![EventSnapshot {
                seq: 0,
                kind: "kind\"quoted\"".into(),
                message: "m".into(),
            }],
            max_span_depth: 1,
            dropped: DroppedCounts::default(),
        };
        let text = to_prometheus(&snap);
        validate_prometheus(&text).expect("hostile names must still export valid text");
        assert!(text.contains("metis_9lives_of_the_caf_ 3"));
        assert!(text.contains("metis_s_ries_points_points_total 3"));
        // Quotes, backslashes, and newlines in label values are escaped.
        assert!(text.contains("span=\"span \\\"with\\\" quotes\\\\and\\nnewline\""));
        assert!(text.contains("kind=\"kind\\\"quoted\\\"\""));
    }

    #[test]
    fn valid_text_passes() {
        let text = "\
# TYPE metis_rounds counter
metis_rounds 6
# TYPE metis_mu gauge
metis_mu 0.25
# TYPE metis_dur histogram
metis_dur_bucket{le=\"1.0\"} 2
metis_dur_bucket{le=\"+Inf\"} 3
metis_dur_sum 4.5
metis_dur_count 3
metis_span_calls_total{span=\"maa.rounding\"} 6 1700000000
";
        validate_prometheus(text).unwrap();
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("name{l=\"unterminated} 3\n").is_err());
        assert!(validate_prometheus("name notafloat\n").is_err());
        assert!(validate_prometheus("# TYPE fam flavor\n").is_err());
        let noninf = "# TYPE h histogram\nh_bucket{le=\"1.0\"} 2\nh_sum 1\nh_count 2\n";
        assert!(validate_prometheus(noninf).unwrap_err().contains("+Inf"));
        let shrinking =
            "# TYPE h histogram\nh_bucket{le=\"1.0\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus(shrinking)
            .unwrap_err()
            .contains("cumulative"));
        // Bad escape inside a label value.
        assert!(validate_prometheus("name{l=\"a\\t\"} 1\n").is_err());
        // Label names must not start with a digit.
        assert!(validate_prometheus("name{9l=\"v\"} 1\n").is_err());
        // Duplicate TYPE for one family.
        assert!(validate_prometheus("# TYPE f counter\n# TYPE f gauge\nf 1\n").is_err());
        // A histogram family only admits _bucket/_sum/_count samples.
        assert!(validate_prometheus(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\nh 2\n"
        )
        .is_err());
        // Unsanitized dotted/unicode names are rejected, proving the
        // validator would catch a family() regression.
        assert!(validate_prometheus("metis_a.b 1\n").is_err());
        assert!(validate_prometheus("metis_café 1\n").is_err());
    }
}
