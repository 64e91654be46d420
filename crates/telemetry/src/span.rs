//! Timed spans with parent/child nesting.
//!
//! A [`Span`](crate::Span) is an RAII guard: it notes the monotonic
//! start time when created and records its duration when dropped.
//! Nesting is tracked per thread (spans must be dropped on the thread
//! that opened them — the guard is `!Send` to enforce this), so the
//! collector can attribute each span to its parent and report the
//! maximum nesting depth observed.
//!
//! A finished span is recorded under the collector's one lock, twice:
//! into its name's [`SpanAgg`], which keeps the parent of the name's
//! first occurrence, and verbatim into the bounded raw log. Each raw
//! record carries a start offset (microseconds since the collector was
//! created) and a process-wide *lane* id for the recording thread, which
//! is what lets the log be re-exported as a Chrome trace (see
//! [`crate::TraceSpan`]) with one timeline row per thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::snapshot::SpanSnapshot;

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

/// Pushes `name` onto this thread's span stack and returns
/// `(parent, depth)` for the new span (depth of the outermost span
/// is 1).
pub(crate) fn enter(name: &'static str) -> (Option<&'static str>, u32) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        (parent, stack.len() as u32)
    })
}

/// Pops `name` off this thread's span stack.
pub(crate) fn exit(name: &'static str) {
    SPAN_STACK.with(|stack| {
        let popped = stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(name), "span guards dropped out of order");
    });
}

/// Per-name aggregate of finished spans. The collector creates one at
/// its name's first finished occurrence and adds that occurrence under
/// the same lock, so a snapshot never sees one empty.
pub(crate) struct SpanAgg {
    /// Parent of the first finished occurrence.
    parent: Option<&'static str>,
    count: u64,
    total_us: u64,
    min_us: u64,
    max_us: u64,
    max_depth: u32,
}

impl SpanAgg {
    /// An aggregate with no occurrences yet, whose name was first seen
    /// under `parent`.
    pub(crate) fn new(parent: Option<&'static str>) -> Self {
        SpanAgg {
            parent,
            count: 0,
            total_us: 0,
            min_us: u64::MAX,
            max_us: 0,
            max_depth: 0,
        }
    }

    pub(crate) fn add(&mut self, duration_us: u64, depth: u32) {
        self.count += 1;
        self.total_us += duration_us;
        self.min_us = self.min_us.min(duration_us);
        self.max_us = self.max_us.max(duration_us);
        self.max_depth = self.max_depth.max(depth);
    }

    pub(crate) fn max_depth(&self) -> u32 {
        self.max_depth
    }

    pub(crate) fn snapshot(&self, name: &str) -> SpanSnapshot {
        SpanSnapshot {
            name: name.to_string(),
            parent: self.parent.map(str::to_string),
            count: self.count,
            total_us: self.total_us,
            min_us: self.min_us,
            max_us: self.max_us,
            max_depth: self.max_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_tracks_nesting() {
        assert_eq!(enter("outer"), (None, 1));
        assert_eq!(enter("inner"), (Some("outer"), 2));
        exit("inner");
        assert_eq!(enter("sibling"), (Some("outer"), 2));
        exit("sibling");
        exit("outer");
        assert_eq!(enter("again"), (None, 1));
        exit("again");
    }

    #[test]
    fn aggregates_accumulate_per_name() {
        let mut agg = SpanAgg::new(Some("root"));
        for (duration_us, depth) in [(7, 2), (3, 2), (11, 3)] {
            agg.add(duration_us, depth);
        }
        let s = agg.snapshot("loop");
        assert_eq!(s.parent.as_deref(), Some("root"));
        assert_eq!((s.count, s.total_us, s.min_us, s.max_us), (3, 21, 3, 11));
        assert_eq!(s.max_depth, 3);
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
}
