//! Bandwidth-limiter rules (`τ` in the paper's framework, §II-C).
//!
//! Between alternation rounds, the BW Limiter tightens the link
//! capacities handed to the BL-SPM solver. The paper's rule reduces the
//! bandwidth of the link with the minimum average utilization; two
//! alternative rules are provided for the ablation benchmarks.

use metis_netsim::{EdgeId, LoadMatrix, Topology};

/// The capacity-reduction rule `τ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LimiterRule {
    /// Reduce by one unit the link whose average utilization
    /// (mean load / capacity) is minimal — the paper's rule.
    #[default]
    MinUtilization,
    /// Reduce by one unit the most expensive link with purchased
    /// bandwidth (ablation).
    MaxPrice,
    /// Scale every capacity to 90% (floored); if that changes nothing,
    /// fall back to [`LimiterRule::MinUtilization`] (ablation).
    UniformShrink,
}

impl LimiterRule {
    /// Applies the rule: returns tightened capacities.
    ///
    /// Capacities are integer bandwidth units stored as `f64`. Returns the
    /// input unchanged (all zeros stay zeros) when no link has capacity.
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `capacities`, the load matrix, and the
    /// topology disagree.
    pub fn apply(self, topo: &Topology, load: &LoadMatrix, capacities: &[f64]) -> Vec<f64> {
        assert_eq!(capacities.len(), topo.num_edges(), "capacity length");
        assert_eq!(load.num_edges(), topo.num_edges(), "load matrix edges");
        let mut caps = capacities.to_vec();
        match self {
            LimiterRule::MinUtilization => {
                if let Some(e) = min_utilization_edge(load, &caps) {
                    caps[e.index()] = (caps[e.index()] - 1.0).max(0.0);
                }
            }
            LimiterRule::MaxPrice => {
                let target = topo
                    .edge_ids()
                    .filter(|e| caps[e.index()] > 0.0)
                    .max_by(|a, b| topo.price(*a).total_cmp(&topo.price(*b)));
                if let Some(e) = target {
                    caps[e.index()] = (caps[e.index()] - 1.0).max(0.0);
                }
            }
            LimiterRule::UniformShrink => {
                let mut changed = false;
                for c in caps.iter_mut() {
                    let next = (*c * 0.9).floor();
                    if next < *c {
                        changed = true;
                    }
                    *c = next;
                }
                if !changed {
                    return LimiterRule::MinUtilization.apply(topo, load, capacities);
                }
            }
        }
        caps
    }
}

/// The link with positive capacity and minimal average utilization.
fn min_utilization_edge(load: &LoadMatrix, capacities: &[f64]) -> Option<EdgeId> {
    let mut best: Option<(EdgeId, f64)> = None;
    for (e, &cap) in capacities.iter().enumerate() {
        if cap <= 0.0 {
            continue;
        }
        let id = EdgeId(e as u32);
        let util = load.mean(id) / cap;
        match best {
            Some((_, u)) if u <= util => {}
            _ => best = Some((id, util)),
        }
    }
    best.map(|(e, _)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::{topologies, EdgeId};

    fn setup() -> (Topology, LoadMatrix, Vec<f64>) {
        let topo = topologies::sub_b4();
        let mut load = LoadMatrix::new(topo.num_edges(), 12);
        let mut caps = vec![0.0; topo.num_edges()];
        // Edge 0: high utilization; edge 1: low; edge 2: medium.
        caps[0] = 2.0;
        load.add(EdgeId(0), 0, 11, 1.8);
        caps[1] = 4.0;
        load.add(EdgeId(1), 0, 2, 0.4);
        caps[2] = 2.0;
        load.add(EdgeId(2), 0, 5, 1.0);
        (topo, load, caps)
    }

    #[test]
    fn min_utilization_reduces_the_idle_link() {
        let (topo, load, caps) = setup();
        let out = LimiterRule::MinUtilization.apply(&topo, &load, &caps);
        assert_eq!(out[1], 3.0, "least-utilized link shrinks");
        assert_eq!(out[0], 2.0);
        assert_eq!(out[2], 2.0);
    }

    #[test]
    fn max_price_reduces_the_expensive_link() {
        let (topo, load, caps) = setup();
        let out = LimiterRule::MaxPrice.apply(&topo, &load, &caps);
        // Among edges 0..=2 the most expensive (Asia-side) positive-cap
        // edge shrinks.
        let target = (0..3)
            .max_by(|&a, &b| {
                topo.price(EdgeId(a as u32))
                    .total_cmp(&topo.price(EdgeId(b as u32)))
            })
            .unwrap();
        assert_eq!(out[target], caps[target] - 1.0);
    }

    #[test]
    fn uniform_shrink_scales_down() {
        let (topo, load, mut caps) = setup();
        caps[1] = 10.0;
        let out = LimiterRule::UniformShrink.apply(&topo, &load, &caps);
        assert_eq!(out[1], 9.0);
        assert_eq!(out[0], 1.0); // floor(1.8)
    }

    #[test]
    fn uniform_shrink_falls_back_when_stuck() {
        let topo = topologies::sub_b4();
        let load = LoadMatrix::new(topo.num_edges(), 12);
        let mut caps = vec![0.0; topo.num_edges()];
        caps[3] = 1.0; // floor(0.9) = 0 < 1, so it does change...
        let out = LimiterRule::UniformShrink.apply(&topo, &load, &caps);
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn no_capacity_is_a_fixed_point() {
        let topo = topologies::sub_b4();
        let load = LoadMatrix::new(topo.num_edges(), 12);
        let caps = vec![0.0; topo.num_edges()];
        for rule in [
            LimiterRule::MinUtilization,
            LimiterRule::MaxPrice,
            LimiterRule::UniformShrink,
        ] {
            assert_eq!(rule.apply(&topo, &load, &caps), caps);
        }
    }

    #[test]
    fn repeated_application_reaches_zero() {
        let (topo, load, mut caps) = setup();
        for _ in 0..100 {
            caps = LimiterRule::MinUtilization.apply(&topo, &load, &caps);
        }
        assert!(
            caps.iter().all(|&c| c == 0.0),
            "limiter must drain capacity"
        );
    }
}
