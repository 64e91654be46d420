//! Timed spans with parent/child nesting.
//!
//! A [`Span`](crate::Span) is an RAII guard: it notes the monotonic
//! start time when created and records its duration when dropped.
//! Nesting is tracked per thread (spans must be dropped on the thread
//! that opened them — the guard is `!Send` to enforce this), so the
//! collector can attribute each span to its parent and report the
//! maximum nesting depth observed.
//!
//! Each raw record also carries a start offset (microseconds since the
//! collector was created) and a process-wide *lane* id for the
//! recording thread, which is what lets the bounded raw log be
//! re-exported as a Chrome trace (see [`crate::TraceSpan`]) with one
//! timeline row per thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::Table;

/// Raw span records kept verbatim before aggregation.
pub(crate) const RAW_CAPACITY: usize = 16_384;

/// Next unassigned thread lane. Lanes are process-global (not
/// per-collector) so a thread keeps one stable id across collectors;
/// they number threads in first-span order, not spawn order.
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// This thread's trace lane, claimed on first use.
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's trace lane id.
pub(crate) fn current_lane() -> u32 {
    LANE.with(|l| *l)
}

/// One finished span occurrence.
#[derive(Clone, Debug)]
pub(crate) struct SpanRecord {
    pub(crate) name: &'static str,
    pub(crate) parent: Option<&'static str>,
    pub(crate) depth: u32,
    pub(crate) lane: u32,
    pub(crate) start_us: u64,
    pub(crate) duration_us: u64,
    pub(crate) args: Vec<(&'static str, f64)>,
}

/// Per-name aggregate of finished spans.
pub(crate) struct SpanAggCell {
    pub(crate) count: AtomicU64,
    pub(crate) total_us: AtomicU64,
    pub(crate) min_us: AtomicU64,
    pub(crate) max_us: AtomicU64,
    pub(crate) max_depth: AtomicU64,
}

impl Default for SpanAggCell {
    fn default() -> Self {
        SpanAggCell {
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }
}

fn fetch_max(cell: &AtomicU64, v: u64) {
    cell.fetch_max(v, Ordering::Relaxed);
}

fn fetch_min(cell: &AtomicU64, v: u64) {
    cell.fetch_min(v, Ordering::Relaxed);
}

/// Collects finished spans: per-name aggregates plus a bounded raw log.
pub(crate) struct SpanCollector {
    pub(crate) aggregates: Table<SpanAggCell>,
    records: Mutex<Vec<SpanRecord>>,
    dropped: AtomicU64,
    max_depth: AtomicU64,
}

impl SpanCollector {
    pub(crate) fn new() -> Self {
        SpanCollector {
            aggregates: Table::new(64, SpanAggCell::default),
            records: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    /// Pushes `name` onto this thread's span stack and returns
    /// `(parent, depth)` for the new span (depth of the outermost
    /// span is 1).
    pub(crate) fn enter(&self, name: &'static str) -> (Option<&'static str>, u32) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(name);
            (parent, stack.len() as u32)
        })
    }

    /// Pops this thread's span stack and records the finished span.
    pub(crate) fn exit(&self, record: SpanRecord) {
        SPAN_STACK.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(
                popped,
                Some(record.name),
                "span guards dropped out of order"
            );
        });
        fetch_max(&self.max_depth, u64::from(record.depth));
        if let Some(agg) = self.aggregates.slot(record.name) {
            agg.count.fetch_add(1, Ordering::Relaxed);
            agg.total_us
                .fetch_add(record.duration_us, Ordering::Relaxed);
            fetch_min(&agg.min_us, record.duration_us);
            fetch_max(&agg.max_us, record.duration_us);
            fetch_max(&agg.max_depth, u64::from(record.depth));
        }
        let mut records = match self.records.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if records.len() < RAW_CAPACITY {
            records.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Deepest nesting seen by any thread.
    pub(crate) fn max_depth(&self) -> u32 {
        self.max_depth.load(Ordering::Relaxed) as u32
    }

    /// Raw records dropped once the bounded log filled up.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the raw record log.
    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        match self.records.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, parent: Option<&'static str>, depth: u32) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            depth,
            lane: current_lane(),
            start_us: 0,
            duration_us: 7,
            args: Vec::new(),
        }
    }

    #[test]
    fn enter_exit_tracks_nesting() {
        let c = SpanCollector::new();
        let (p1, d1) = c.enter("outer");
        assert_eq!((p1, d1), (None, 1));
        let (p2, d2) = c.enter("inner");
        assert_eq!((p2, d2), (Some("outer"), 2));
        c.exit(record("inner", p2, d2));
        c.exit(record("outer", p1, d1));
        assert_eq!(c.max_depth(), 2);
        let recs = c.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].parent, Some("outer"));
    }

    #[test]
    fn aggregates_accumulate_per_name() {
        let c = SpanCollector::new();
        for _ in 0..3 {
            let (p, d) = c.enter("loop");
            c.exit(record("loop", p, d));
        }
        let (_, agg) = c
            .aggregates
            .iter()
            .find(|(n, _)| *n == "loop")
            .expect("aggregate exists");
        assert_eq!(agg.count.load(Ordering::Relaxed), 3);
        assert_eq!(agg.total_us.load(Ordering::Relaxed), 21);
        assert_eq!(agg.min_us.load(Ordering::Relaxed), 7);
        assert_eq!(agg.max_us.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn lane_is_stable_per_thread_and_distinct_across_threads() {
        let here = current_lane();
        assert_eq!(current_lane(), here);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test needs a second OS thread to observe a second lane"
        )]
        let other = std::thread::spawn(current_lane).join().expect("join");
        assert_ne!(here, other);
    }

    #[test]
    fn raw_log_saturates_and_counts_drops() {
        let c = SpanCollector::new();
        for _ in 0..(RAW_CAPACITY + 5) {
            let (p, d) = c.enter("hot");
            c.exit(record("hot", p, d));
        }
        assert_eq!(c.records().len(), RAW_CAPACITY);
        assert_eq!(c.dropped(), 5);
    }
}
