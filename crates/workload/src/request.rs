//! The customer request model.

use std::fmt;

use metis_netsim::NodeId;

/// Identifier of a request within one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u32);

impl RequestId {
    /// Index of this request.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A bandwidth-reservation request: the paper's six-tuple
/// `{s_i, d_i, ts_i, td_i, r_i, v_i}`.
///
/// The customer asks for `rate` bandwidth units reserved exclusively from
/// `src` to `dst` during every slot in `start..=end`, and bids `value` for
/// it. The provider may decline; if it accepts, the whole rate must be
/// carried on a single path.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Identifier (position in the workload).
    pub id: RequestId,
    /// Source data center `s_i`.
    pub src: NodeId,
    /// Destination data center `d_i`.
    pub dst: NodeId,
    /// First active slot `ts_i` (0-based, inclusive).
    pub start: usize,
    /// Last active slot `td_i` (0-based, inclusive).
    pub end: usize,
    /// Required rate `r_i` in bandwidth units (1 unit = 10 Gbps).
    pub rate: f64,
    /// Bid `v_i`: revenue earned if the request is served.
    pub value: f64,
}

impl Request {
    /// Number of slots the request is active (`end − start + 1`).
    pub fn duration(&self) -> usize {
        self.end - self.start + 1
    }

    /// Whether the request is active during `slot`.
    pub fn active_at(&self, slot: usize) -> bool {
        (self.start..=self.end).contains(&slot)
    }

    /// Validates internal consistency against a cycle of `num_slots` slots
    /// and a topology of `num_nodes` data centers.
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self, num_nodes: usize, num_slots: usize) -> Result<(), String> {
        if self.src == self.dst {
            return Err(format!("{}: source equals destination", self.id));
        }
        if self.src.index() >= num_nodes || self.dst.index() >= num_nodes {
            return Err(format!("{}: endpoint out of range", self.id));
        }
        if self.start > self.end {
            return Err(format!("{}: start after end", self.id));
        }
        if self.end >= num_slots {
            return Err(format!("{}: end slot {} out of range", self.id, self.end));
        }
        if !self.rate.is_finite() {
            return Err(format!("{}: non-finite rate {}", self.id, self.rate));
        }
        if self.rate <= 0.0 {
            return Err(format!("{}: non-positive rate {}", self.id, self.rate));
        }
        if !self.value.is_finite() {
            return Err(format!("{}: non-finite value {}", self.id, self.value));
        }
        if self.value < 0.0 {
            return Err(format!("{}: negative value {}", self.id, self.value));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request {
            id: RequestId(3),
            src: NodeId(0),
            dst: NodeId(1),
            start: 2,
            end: 5,
            rate: 0.3,
            value: 1.5,
        }
    }

    #[test]
    fn duration_and_activity() {
        let r = req();
        assert_eq!(r.duration(), 4);
        assert!(r.active_at(2));
        assert!(r.active_at(5));
        assert!(!r.active_at(1));
        assert!(!r.active_at(6));
    }

    #[test]
    fn validation_passes_for_sane_request() {
        assert_eq!(req().validate(6, 12), Ok(()));
    }

    #[test]
    fn validation_catches_problems() {
        let mut r = req();
        r.dst = r.src;
        assert!(r.validate(6, 12).unwrap_err().contains("source equals"));

        let mut r = req();
        r.end = 1;
        assert!(r.validate(6, 12).unwrap_err().contains("start after end"));

        let mut r = req();
        r.end = 12;
        assert!(r.validate(6, 12).unwrap_err().contains("out of range"));

        let mut r = req();
        r.rate = 0.0;
        assert!(r.validate(6, 12).unwrap_err().contains("rate"));

        let mut r = req();
        r.value = f64::NAN;
        assert!(r.validate(6, 12).unwrap_err().contains("value"));

        let mut r = req();
        r.src = NodeId(9);
        assert!(r.validate(6, 12).unwrap_err().contains("endpoint"));
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_numbers() {
        // NaN/±∞ rates and values would otherwise poison `total_value`,
        // profit comparisons, and `min_utilization_edge`'s ordering.
        for bad_rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 0.0] {
            let mut r = req();
            r.rate = bad_rate;
            assert!(
                r.validate(6, 12).unwrap_err().contains("rate"),
                "rate {bad_rate} must be rejected"
            );
        }
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut r = req();
            r.value = bad_value;
            assert!(
                r.validate(6, 12).unwrap_err().contains("value"),
                "value {bad_value} must be rejected"
            );
        }
        // Zero value is a legal (if pointless) bid.
        let mut r = req();
        r.value = 0.0;
        assert_eq!(r.validate(6, 12), Ok(()));
    }

    #[test]
    fn display() {
        assert_eq!(RequestId(7).to_string(), "r7");
    }
}
