//! Per-layer breakdown of traced calls, read from the span aggregates and
//! counters the program already records. The benchmark adds no spans of
//! its own inside the program; it only checks that the recorded ones
//! nest, close, and cover its external stopwatch.

use std::collections::{BTreeMap, BTreeSet};

use metis_telemetry::{names, Snapshot};

/// The spans the layer metrics are read from, with the parent each must
/// be recorded under (`None` for a top-level call). `metis` sits under
/// `online.epoch` when `online_metis` runs it.
const KNOWN_SPANS: &[(&str, &[Option<&str>])] = &[
    (names::SPAN_ONLINE, &[None]),
    (names::SPAN_EPOCH, &[Some(names::SPAN_ONLINE)]),
    (names::SPAN_METIS, &[None, Some(names::SPAN_EPOCH)]),
    (names::SPAN_ROUND, &[Some(names::SPAN_METIS)]),
    (names::SPAN_MAA_RELAX, &[Some(names::SPAN_ROUND)]),
    (names::SPAN_MAA_ROUNDING, &[Some(names::SPAN_ROUND)]),
    (names::SPAN_TAA_RELAX, &[Some(names::SPAN_ROUND)]),
    (names::SPAN_TAA_WALK, &[Some(names::SPAN_ROUND)]),
    (names::SPAN_LIMITER, &[Some(names::SPAN_ROUND)]),
];

/// Counters summed across traced calls.
const COUNTERS: &[&str] = &[
    names::ROUNDS,
    names::LP_SIMPLEX_ITERATIONS,
    names::LP_SIMPLEX_PHASE1,
    names::LP_SIMPLEX_DUAL,
    names::LP_SIMPLEX_BOUND_FLIPS,
    names::LP_SIMPLEX_REFRESHES,
    names::LP_LU_ETA_UPDATES,
    names::LP_WARM_BASIS_REUSE,
    names::LP_COLD_SOLVES,
    names::LP_PRESOLVE_ROWS,
    names::AUDIT_CHECKS,
    names::AUDIT_VIOLATIONS,
];

/// Largest share of the external stopwatch the top-level span may miss.
/// The span opens first thing inside `metis` / `online_metis` and closes
/// last, so only call overhead and microsecond truncation fall outside.
pub const COVERAGE_TOLERANCE: f64 = 0.02;

/// A span aggregate reduced to what the layer arithmetic needs.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTotal {
    /// Span name.
    pub name: String,
    /// Name of the span it was recorded under, if any.
    pub parent: Option<String>,
    /// Total time over all occurrences, microseconds.
    pub total_us: u64,
}

/// One parent span split into the time its children cover and the rest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelfTime {
    /// Total of the parent, microseconds.
    pub total_us: u64,
    /// Sum of the totals of the spans recorded under it.
    pub children_us: u64,
    /// `total_us − children_us`: time the parent spent in no child.
    pub self_us: u64,
}

/// Self time of every span that has children. Fails when a parent is
/// missing or its children add up to more than it, which means spans
/// overlapped or were attributed to the wrong parent.
pub fn self_times(spans: &[SpanTotal]) -> Result<BTreeMap<String, SelfTime>, String> {
    let mut children: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = &s.parent {
            *children.entry(p.as_str()).or_default() += s.total_us;
        }
    }
    let mut out = BTreeMap::new();
    for (parent, children_us) in children {
        let total_us = spans
            .iter()
            .find(|s| s.name == parent)
            .map(|s| s.total_us)
            .ok_or_else(|| format!("span {parent} has children but was never recorded"))?;
        let self_us = total_us.checked_sub(children_us).ok_or_else(|| {
            format!("children of span {parent} cover {children_us} µs, more than its {total_us} µs")
        })?;
        out.insert(
            parent.to_string(),
            SelfTime {
                total_us,
                children_us,
                self_us,
            },
        );
    }
    Ok(out)
}

/// Checks every known span sits under its expected parent.
pub fn check_parents(spans: &[SpanTotal]) -> Result<(), String> {
    for s in spans {
        if let Some((_, allowed)) = KNOWN_SPANS.iter().find(|(n, _)| *n == s.name) {
            if !allowed.contains(&s.parent.as_deref()) {
                return Err(format!(
                    "span {} recorded under {:?}, expected one of {allowed:?}",
                    s.name, s.parent
                ));
            }
        }
    }
    Ok(())
}

/// Sums of the traced calls of one run.
#[derive(Debug, Default)]
pub struct LayerSums {
    /// Traced top-level calls.
    pub calls: u64,
    /// External stopwatch over those calls, microseconds.
    pub stopwatch_us: f64,
    /// Untraced time of the same calls, microseconds.
    pub untraced_us: f64,
    /// Top-level span (`metis` or `online`) over those calls.
    top_us: u64,
    span_us: BTreeMap<&'static str, u64>,
    span_count: BTreeMap<&'static str, u64>,
    /// Self time; equal to the total for spans without children.
    self_us: BTreeMap<&'static str, u64>,
    /// Spans that had children in some call.
    parents: BTreeSet<&'static str>,
    counters: BTreeMap<&'static str, u64>,
}

impl LayerSums {
    /// Folds one traced call in: `snap` is the call's own collector,
    /// `top` the span the call opens, and the two times are the traced
    /// call's stopwatch and the paired untraced call's.
    pub fn add(
        &mut self,
        snap: &Snapshot,
        top: &'static str,
        stopwatch_us: f64,
        untraced_us: f64,
    ) -> Result<(), String> {
        let spans: Vec<SpanTotal> = snap
            .spans
            .iter()
            .map(|s| SpanTotal {
                name: s.name.clone(),
                parent: s.parent.clone(),
                total_us: s.total_us,
            })
            .collect();
        check_parents(&spans)?;
        let selfs = self_times(&spans)?;
        let top_us = snap
            .span(top)
            .map(|s| s.total_us)
            .ok_or_else(|| format!("traced call recorded no {top} span"))?;
        // The span lies inside the stopwatch and is truncated to whole
        // microseconds, so it can never read longer.
        if top_us as f64 > stopwatch_us + 1.0 {
            return Err(format!(
                "{top} span ({top_us} µs) is longer than the stopwatch around it \
                 ({stopwatch_us:.1} µs)"
            ));
        }
        for &(name, _) in KNOWN_SPANS {
            let Some(s) = snap.span(name) else { continue };
            *self.span_us.entry(name).or_default() += s.total_us;
            *self.span_count.entry(name).or_default() += s.count;
            let own = match selfs.get(name) {
                Some(st) => {
                    self.parents.insert(name);
                    st.self_us
                }
                None => s.total_us,
            };
            *self.self_us.entry(name).or_default() += own;
        }
        for &c in COUNTERS {
            *self.counters.entry(c).or_default() += snap.counter(c);
        }
        self.calls += 1;
        self.stopwatch_us += stopwatch_us;
        self.untraced_us += untraced_us;
        self.top_us += top_us;
        Ok(())
    }

    /// Share of the external stopwatch the top-level spans cover.
    pub fn coverage(&self) -> f64 {
        per(self.top_us as f64, self.stopwatch_us)
    }

    /// Total of span `name` over all traced calls, microseconds.
    pub fn span_us(&self, name: &str) -> u64 {
        self.span_us.get(name).copied().unwrap_or(0)
    }

    /// Self time of span `name` over all traced calls, microseconds.
    pub fn self_us(&self, name: &str) -> u64 {
        self.self_us.get(name).copied().unwrap_or(0)
    }

    /// Counter `name` summed over all traced calls.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `us` microseconds summed over the traced calls, as milliseconds
    /// per call.
    pub fn ms_per_call(&self, us: u64) -> f64 {
        per(us as f64 / 1e3, self.calls as f64)
    }

    /// Milliseconds inside span `name` per traced call.
    pub fn span_ms_per_call(&self, name: &str) -> f64 {
        self.ms_per_call(self.span_us(name))
    }

    /// Occurrences of span `name` per traced call.
    pub fn count_per_call(&self, name: &str) -> f64 {
        per(self.span_count(name) as f64, self.calls as f64)
    }

    /// Mean length of one occurrence of span `name`, milliseconds.
    pub fn ms_per_occurrence(&self, name: &str) -> f64 {
        per(
            self.span_us(name) as f64 / 1e3,
            self.span_count(name) as f64,
        )
    }

    /// Counter `name` per traced call.
    pub fn per_call(&self, name: &str) -> f64 {
        per(self.counter(name) as f64, self.calls as f64)
    }

    fn span_count(&self, name: &str) -> u64 {
        self.span_count.get(name).copied().unwrap_or(0)
    }

    /// Time the program spends in each layer as a share of the traced
    /// top-level spans: the leaf phases plus the self time of every span
    /// above them (named `<span>.self`), largest first. The shares sum
    /// to 1.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.top_us as f64;
        let mut out: Vec<(String, f64)> = self
            .self_us
            .iter()
            .map(|(&n, &us)| {
                let label = if self.parents.contains(n) {
                    format!("{n}.self")
                } else {
                    n.to_string()
                };
                (label, per(us as f64, total))
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// `a / b`, or 0 when there is nothing to divide by (`b` is a count or a
/// duration, never negative).
pub fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, parent: Option<&str>, total_us: u64) -> SpanTotal {
        SpanTotal {
            name: name.into(),
            parent: parent.map(Into::into),
            total_us,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_and_closes() {
        let spans = [
            span("metis", None, 100),
            span("alternation.round", Some("metis"), 90),
            span("maa.relax", Some("alternation.round"), 50),
            span("taa.relax", Some("alternation.round"), 30),
        ];
        let st = self_times(&spans).unwrap();
        assert_eq!(st.len(), 2, "leaves have no entry");
        assert_eq!(
            st["metis"],
            SelfTime {
                total_us: 100,
                children_us: 90,
                self_us: 10
            }
        );
        assert_eq!(st["alternation.round"].self_us, 10);
        for t in st.values() {
            assert_eq!(t.children_us + t.self_us, t.total_us);
        }
    }

    #[test]
    fn children_longer_than_parent_are_rejected() {
        let spans = [
            span("metis", None, 10),
            span("alternation.round", Some("metis"), 11),
        ];
        assert!(self_times(&spans).unwrap_err().contains("more than"));
    }

    #[test]
    fn missing_parent_is_rejected() {
        let spans = [span("maa.relax", Some("alternation.round"), 5)];
        assert!(self_times(&spans).unwrap_err().contains("never recorded"));
    }

    #[test]
    fn parents_are_checked_against_the_hierarchy() {
        let good = [
            span("online", None, 10),
            span("online.epoch", Some("online"), 9),
            span("metis", Some("online.epoch"), 8),
            span("unknown.child", Some("metis"), 1),
        ];
        assert!(check_parents(&good).is_ok());
        let bad = [span("maa.relax", Some("metis"), 1)];
        assert!(check_parents(&bad).is_err());
    }

    #[test]
    fn recorded_trace_closes_and_shares_sum_to_one() {
        use metis_telemetry::Telemetry;
        let tele = Telemetry::enabled();
        {
            let _metis = tele.span(names::SPAN_METIS);
            std::thread::sleep(Duration::from_millis(1));
            for _ in 0..2 {
                let _round = tele.span(names::SPAN_ROUND);
                let _relax = tele.span(names::SPAN_MAA_RELAX);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let snap = tele.snapshot().expect("capture is on");
        let top = snap.span(names::SPAN_METIS).unwrap().total_us as f64;
        let mut sums = LayerSums::default();
        sums.add(&snap, names::SPAN_METIS, top + 5.0, top).unwrap();
        assert_eq!(sums.count_per_call(names::SPAN_ROUND), 2.0);
        let shares = sums.shares();
        let labels: Vec<&str> = shares.iter().map(|s| s.0.as_str()).collect();
        assert!(labels.contains(&"metis.self"), "{labels:?}");
        assert!(labels.contains(&"alternation.round.self"), "{labels:?}");
        assert_eq!(labels[0], "maa.relax");
        let total: f64 = shares.iter().map(|s| s.1).sum();
        assert!((total - 1.0).abs() < 1e-9, "{shares:?}");
        // A stopwatch shorter than the span inside it is a broken trace.
        assert!(sums.add(&snap, names::SPAN_METIS, top - 5.0, top).is_err());
    }

    #[test]
    fn per_guards_empty_denominators() {
        assert_eq!(per(3.0, 2.0), 1.5);
        assert_eq!(per(3.0, 0.0), 0.0);
    }
}
