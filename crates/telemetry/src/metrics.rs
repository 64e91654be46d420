//! Metric primitives: the shared histogram bucket grid, fixed-bucket
//! histograms, and bounded series.
//!
//! They are plain values with no synchronization of their own: the
//! collector keeps every metric behind its one lock (see
//! [`crate::Telemetry`]), so a snapshot reads each of them whole.

use crate::snapshot::{HistogramSnapshot, SeriesSnapshot};

/// Upper bounds of the shared histogram bucket grid (a 1–2–5
/// logarithmic ladder from `1e-6` to `5e8`). A final implicit `+Inf`
/// bucket catches everything above [`HISTOGRAM_BOUNDS`]'s last entry,
/// so histograms have [`BUCKET_COUNT`] buckets in total.
///
/// The grid is shared by every histogram: values as small as a μ
/// scaling factor and as large as a round duration in microseconds
/// land in a meaningful bucket without per-metric configuration.
pub const HISTOGRAM_BOUNDS: [f64; 45] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1e0, 2e0, 5e0, 1e1, 2e1, 5e1, 1e2, 2e2, 5e2, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5,
    2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8,
];

/// Number of histogram buckets: one per bound plus the `+Inf` bucket.
pub const BUCKET_COUNT: usize = HISTOGRAM_BOUNDS.len() + 1;

/// Capacity of each bounded series (extra points are counted as
/// dropped, not stored).
pub const SERIES_CAPACITY: usize = 512;

/// Index of the bucket a value falls into, with `le` (less-or-equal)
/// semantics: a value exactly equal to a bound lands in that bound's
/// bucket. `NaN` and anything above the last bound land in the final
/// `+Inf` bucket; zero and negatives land in the first.
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() {
        return BUCKET_COUNT - 1;
    }
    HISTOGRAM_BOUNDS.partition_point(|b| *b < value)
}

/// Fixed-bucket histogram over the shared [`HISTOGRAM_BOUNDS`] grid.
/// The collector creates one at its first observation, so it is never
/// empty.
pub(crate) struct Histogram {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    pub(crate) fn observe(&mut self, value: f64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            buckets: self.buckets.to_vec(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Append-only sequence of at most [`SERIES_CAPACITY`] points.
#[derive(Default)]
pub(crate) struct Series {
    points: Vec<f64>,
    dropped: u64,
}

impl Series {
    pub(crate) fn push(&mut self, value: f64) {
        if self.points.len() < SERIES_CAPACITY {
            self.points.push(value);
        } else {
            self.dropped += 1;
        }
    }

    pub(crate) fn snapshot(&self, name: &str) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            points: self.points.clone(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_uses_le_semantics() {
        // A value exactly on a bound belongs to that bound's bucket.
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(2e-6), 1);
        assert_eq!(bucket_index(1.0), 18);
        // Just above a bound spills into the next bucket.
        assert_eq!(bucket_index(1.0000001), 19);
        // Extremes.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(5e8), BUCKET_COUNT - 2);
        assert_eq!(bucket_index(5.1e8), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(f64::NAN), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        h.observe(2.0);
        h.observe(8.0);
        let s = h.snapshot("h");
        assert_eq!(s.count, 2);
        assert!((s.sum - 10.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.buckets.len(), BUCKET_COUNT);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2);
        assert_eq!(s.buckets[bucket_index(2.0)], 1);
        assert_eq!(s.buckets[bucket_index(8.0)], 1);
    }

    #[test]
    fn series_caps_and_counts_drops() {
        let mut s = Series::default();
        for i in 0..(SERIES_CAPACITY + 3) {
            s.push(i as f64);
        }
        let s = s.snapshot("s");
        assert_eq!(s.points.len(), SERIES_CAPACITY);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.points[0], 0.0);
    }
}
