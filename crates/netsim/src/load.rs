//! Per-(edge, time-slot) load accounting and billing.
//!
//! ISPs in the Metis model charge for the **peak** bandwidth used on each
//! link over the billing cycle, rounded up to integer units (`c_e`). The
//! [`LoadMatrix`] tracks reserved bandwidth per directed edge and slot and
//! derives charged units, cost, and link-utilization statistics.

use crate::graph::{EdgeId, Topology};

/// Tolerance when rounding peak loads up to integer units: loads within
/// this distance of an integer do not trigger an extra unit.
pub const CEIL_EPS: f64 = 1e-9;

/// Reserved bandwidth (in units) per directed edge and time slot.
///
/// # Examples
///
/// ```
/// use metis_netsim::{topologies, LoadMatrix};
///
/// let topo = topologies::sub_b4();
/// let mut load = LoadMatrix::new(topo.num_edges(), 12);
/// let e = topo.edge_ids().next().unwrap();
/// load.add(e, 2, 5, 0.37); // slots 2..=5
/// assert_eq!(load.charged_units(e), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LoadMatrix {
    num_edges: usize,
    num_slots: usize,
    /// Row-major `[edge][slot]`.
    data: Vec<f64>,
}

impl LoadMatrix {
    /// Creates an all-zero matrix.
    pub fn new(num_edges: usize, num_slots: usize) -> Self {
        LoadMatrix {
            num_edges,
            num_slots,
            data: vec![0.0; num_edges * num_slots],
        }
    }

    /// Number of time slots per billing cycle.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Load on `edge` during `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` or `slot` is out of range.
    pub fn get(&self, edge: EdgeId, slot: usize) -> f64 {
        assert!(slot < self.num_slots, "slot {slot} out of range");
        self.data[edge.index() * self.num_slots + slot]
    }

    /// Adds `amount` to `edge` for every slot in `start..=end` (inclusive,
    /// matching the paper's `[ts_i, td_i]`).
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or out of bounds.
    pub fn add(&mut self, edge: EdgeId, start: usize, end: usize, amount: f64) {
        assert!(start <= end, "inverted slot range {start}..={end}");
        assert!(end < self.num_slots, "slot {end} out of range");
        let base = edge.index() * self.num_slots;
        for v in &mut self.data[base + start..=base + end] {
            *v += amount;
        }
    }

    /// Peak load on `edge` over the billing cycle, clamped below at zero.
    pub fn peak(&self, edge: EdgeId) -> f64 {
        let base = edge.index() * self.num_slots;
        scan_peak(&self.data[base..base + self.num_slots])
    }

    /// Mean load on `edge` over the billing cycle.
    pub fn mean(&self, edge: EdgeId) -> f64 {
        let base = edge.index() * self.num_slots;
        self.data[base..base + self.num_slots].iter().sum::<f64>() / self.num_slots as f64
    }

    /// Charged bandwidth `c_e`: the peak rounded up to integer units.
    pub fn charged_units(&self, edge: EdgeId) -> u64 {
        ceil_units(self.peak(edge))
    }

    /// Total bandwidth cost `Σ_e u_e · c_e` over a topology.
    ///
    /// # Panics
    ///
    /// Panics if the matrix and topology disagree on the edge count.
    pub fn total_cost(&self, topo: &Topology) -> f64 {
        assert_eq!(self.num_edges, topo.num_edges(), "edge count mismatch");
        topo.edge_ids()
            .map(|e| topo.price(e) * self.charged_units(e) as f64)
            .sum()
    }

    /// Utilization statistics against a per-edge capacity vector (units).
    ///
    /// Edges with zero capacity are skipped (they carry no purchased
    /// bandwidth, so "utilization" is undefined for them). Utilization of
    /// an edge is its **mean load over the cycle** divided by capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity.len()` differs from the edge count.
    pub fn utilization(&self, capacity: &[f64]) -> UtilizationStats {
        assert_eq!(capacity.len(), self.num_edges, "capacity length mismatch");
        let stats: Vec<f64> = capacity
            .iter()
            .enumerate()
            .filter(|&(_, &cap)| cap > 0.0)
            .map(|(e, &cap)| self.mean(EdgeId(e as u32)) / cap)
            .collect();
        UtilizationStats::from_values(&stats)
    }

    /// Per-edge charged units as a capacity vector (what the provider
    /// actually purchased, given this load).
    pub fn charged_capacities(&self) -> Vec<f64> {
        (0..self.num_edges)
            .map(|e| self.charged_units(EdgeId(e as u32)) as f64)
            .collect()
    }

    /// Whether adding `amount` on `edge` during `start..=end` stays within
    /// `capacity` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or out of bounds.
    pub fn fits(&self, edge: EdgeId, start: usize, end: usize, amount: f64, capacity: f64) -> bool {
        assert!(start <= end, "inverted slot range {start}..={end}");
        assert!(end < self.num_slots, "slot {end} out of range");
        let base = edge.index() * self.num_slots;
        (start..=end).all(|s| self.data[base + s] + amount <= capacity + CEIL_EPS)
    }
}

/// The peak fold: `max(0, max over the row)`.
fn scan_peak(row: &[f64]) -> f64 {
    row.iter().fold(0.0_f64, |a, &b| a.max(b))
}

/// Rounds a non-negative load up to whole bandwidth units, forgiving
/// floating-point fuzz within [`CEIL_EPS`].
pub fn ceil_units(load: f64) -> u64 {
    if load <= CEIL_EPS {
        0
    } else {
        (load - CEIL_EPS).ceil() as u64
    }
}

/// Min / mean / max link utilization, as plotted in Fig. 3c and Fig. 5c.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct UtilizationStats {
    /// Minimum utilization over links with purchased bandwidth.
    pub min: f64,
    /// Mean utilization over links with purchased bandwidth.
    pub mean: f64,
    /// Maximum utilization over links with purchased bandwidth.
    pub max: f64,
    /// Number of links with purchased bandwidth.
    pub links: usize,
}

impl UtilizationStats {
    /// Aggregates raw per-link utilizations; empty input yields zeros.
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return UtilizationStats::default();
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        UtilizationStats {
            min,
            mean: sum / values.len() as f64,
            max,
            links: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Region;
    use crate::Topology;

    fn one_link() -> Topology {
        let mut b = Topology::builder();
        let a = b.add_node("a", Region::Europe);
        let c = b.add_node("c", Region::Asia);
        b.add_link(a, c, 2.0);
        b.build()
    }

    #[test]
    fn add_peak_mean() {
        let mut l = LoadMatrix::new(2, 12);
        let e = EdgeId(0);
        l.add(e, 0, 5, 1.0);
        l.add(e, 3, 8, 0.5);
        assert_eq!(l.get(e, 0), 1.0);
        assert_eq!(l.get(e, 4), 1.5);
        assert_eq!(l.get(e, 8), 0.5);
        assert_eq!(l.get(e, 9), 0.0);
        assert_eq!(l.peak(e), 1.5);
        assert!((l.mean(e) - (6.0 + 3.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn charging_rounds_up() {
        let mut l = LoadMatrix::new(1, 3);
        let e = EdgeId(0);
        assert_eq!(l.charged_units(e), 0);
        l.add(e, 0, 0, 0.1);
        assert_eq!(l.charged_units(e), 1);
        l.add(e, 0, 0, 0.9);
        assert_eq!(l.charged_units(e), 1, "exactly 1.0 stays one unit");
        l.add(e, 0, 0, 1e-12);
        assert_eq!(l.charged_units(e), 1, "epsilon overshoot forgiven");
        l.add(e, 0, 0, 0.5);
        assert_eq!(l.charged_units(e), 2);
    }

    #[test]
    fn ceil_units_edge_cases() {
        assert_eq!(ceil_units(0.0), 0);
        assert_eq!(ceil_units(-0.5), 0);
        assert_eq!(ceil_units(1e-12), 0);
        assert_eq!(ceil_units(0.001), 1);
        assert_eq!(ceil_units(2.0), 2);
        assert_eq!(ceil_units(2.0 + 1e-12), 2);
        assert_eq!(ceil_units(2.1), 3);
    }

    #[test]
    fn cost_uses_prices() {
        let t = one_link();
        let mut l = LoadMatrix::new(t.num_edges(), 12);
        // Price on the a↔c link is 2.0 both ways.
        l.add(EdgeId(0), 0, 0, 1.2); // → 2 units → cost 4
        l.add(EdgeId(1), 0, 11, 0.4); // → 1 unit → cost 2
        assert!((l.total_cost(&t) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_stats() {
        let mut l = LoadMatrix::new(3, 2);
        l.add(EdgeId(0), 0, 1, 1.0); // mean 1.0, cap 2 → 0.5
        l.add(EdgeId(1), 0, 0, 1.0); // mean 0.5, cap 1 → 0.5
                                     // edge 2 unused; cap 0 → skipped
        let u = l.utilization(&[2.0, 1.0, 0.0]);
        assert_eq!(u.links, 2);
        assert!((u.min - 0.5).abs() < 1e-12);
        assert!((u.max - 0.5).abs() < 1e-12);
        assert!((u.mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_utilization_is_zeroed() {
        let l = LoadMatrix::new(2, 2);
        let u = l.utilization(&[0.0, 0.0]);
        assert_eq!(u, UtilizationStats::default());
    }

    #[test]
    fn fits_respects_capacity() {
        let mut l = LoadMatrix::new(1, 4);
        let e = EdgeId(0);
        l.add(e, 0, 3, 0.8);
        assert!(l.fits(e, 0, 3, 0.2, 1.0));
        assert!(!l.fits(e, 1, 2, 0.3, 1.0));
        assert!(l.fits(e, 1, 2, 0.3, 1.2));
    }

    #[test]
    fn peak_clamps_below_at_zero() {
        // The fold starts at 0.0, so an all-negative row still reports a
        // zero peak.
        let mut l = LoadMatrix::new(1, 4);
        let e = EdgeId(0);
        l.add(e, 0, 3, 1.0);
        l.add(e, 0, 3, -2.0);
        assert_eq!(l.peak(e), 0.0);
        assert_eq!(l.charged_units(e), 0);
    }

    #[test]
    #[should_panic(expected = "slot 5 out of range")]
    fn out_of_range_slot_panics() {
        let mut l = LoadMatrix::new(1, 4);
        l.add(EdgeId(0), 2, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "inverted slot range")]
    fn inverted_range_panics() {
        let mut l = LoadMatrix::new(1, 4);
        l.add(EdgeId(0), 3, 1, 1.0);
    }
}
