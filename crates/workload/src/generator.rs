//! Synthetic workload generation following §V-A of the paper.
//!
//! * A billing cycle of 12 time slots (months).
//! * Request arrivals follow a Poisson process over the cycle.
//! * Bandwidth requirements are uniform in [0.1, 5] Gbps.
//! * Start and end times fall randomly within the cycle.
//! * Endpoints are distinct, uniformly random data centers.
//! * Values derive from the bandwidth requirement and published provider
//!   prices; a per-request markup factor makes some requests unprofitable,
//!   which is what gives the admission decision teeth.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use metis_netsim::{gbps_to_units, NodeId, Topology};

use crate::request::{Request, RequestId};

/// Default number of time slots per billing cycle (12 months).
pub const DEFAULT_SLOTS: usize = 12;

/// How a request's bid `v_i` is derived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueModel {
    /// `v = rate · (duration / T) · cheapest_path_price(src → dst) · m`,
    /// with the markup `m` uniform in `[low, high]`.
    ///
    /// This mirrors how providers price reserved inter-DC bandwidth: longer
    /// reservations over more expensive routes bid more. With `low < 1`,
    /// a fraction of requests bid below the provider's standalone cost,
    /// so serving *everything* loses money — the regime the paper targets.
    PricedPath {
        /// Lower bound of the markup factor.
        low: f64,
        /// Upper bound of the markup factor.
        high: f64,
    },
    /// `v = rate · duration · per_unit_slot`: a flat tariff per unit of
    /// bandwidth per slot, independent of the route.
    Flat {
        /// Revenue per bandwidth unit per slot.
        per_unit_slot: f64,
    },
}

impl Default for ValueModel {
    fn default() -> Self {
        // Mean markup 2.25 (retail over wholesale) with a tail below
        // break-even: roughly one request in seven bids less than its
        // standalone fractional bandwidth cost, so accepting everything
        // is never optimal, yet lone high bids can still justify buying
        // a full 10 Gbps unit (which greedy baselines rely on).
        ValueModel::PricedPath {
            low: 0.5,
            high: 4.0,
        }
    }
}

/// Configuration for [`generate`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of requests `K` per billing cycle.
    pub num_requests: usize,
    /// Number of time slots `T` per billing cycle.
    pub num_slots: usize,
    /// Bandwidth requirement range in Gbps (uniform), default `[0.1, 5]`.
    pub rate_gbps: (f64, f64),
    /// Bid derivation.
    pub value_model: ValueModel,
    /// RNG seed; the same seed and topology always produce the same
    /// workload.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's §V-A setup with `num_requests = k` and a seed.
    pub fn paper(k: usize, seed: u64) -> Self {
        WorkloadConfig {
            num_requests: k,
            num_slots: DEFAULT_SLOTS,
            rate_gbps: (0.1, 5.0),
            value_model: ValueModel::default(),
            seed,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper(100, 0)
    }
}

/// Generates a deterministic synthetic workload on `topo`.
///
/// Arrival slots come from a Poisson process (exponential inter-arrival
/// times normalized onto the cycle); the end slot is uniform between the
/// start and the end of the cycle.
///
/// # Panics
///
/// Panics if the topology has fewer than two nodes, `num_requests` is 0
/// with `num_slots` 0, or the rate range is invalid.
///
/// # Examples
///
/// ```
/// use metis_netsim::topologies;
/// use metis_workload::{generate, WorkloadConfig};
///
/// let topo = topologies::sub_b4();
/// let reqs = generate(&topo, &WorkloadConfig::paper(50, 7));
/// assert_eq!(reqs.len(), 50);
/// assert_eq!(reqs, generate(&topo, &WorkloadConfig::paper(50, 7)));
/// ```
pub fn generate(topo: &Topology, config: &WorkloadConfig) -> Vec<Request> {
    assert!(topo.num_nodes() >= 2, "need at least two data centers");
    assert!(config.num_slots >= 1, "need at least one time slot");
    let (glo, ghi) = config.rate_gbps;
    assert!(
        glo > 0.0 && ghi >= glo,
        "invalid rate range [{glo}, {ghi}] Gbps"
    );

    let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
    let k = config.num_requests;

    // Poisson arrivals: K exponential gaps normalized onto [0, T).
    let mut arrivals: Vec<f64> = Vec::with_capacity(k);
    let mut acc = 0.0;
    for _ in 0..k {
        // Inverse-CDF exponential sample; (1 − u) avoids ln(0).
        let u: f64 = rng.gen();
        acc += -(1.0 - u).ln();
        arrivals.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    let slots = config.num_slots as f64;

    let node_dist = Uniform::new(0, topo.num_nodes() as u32);
    let rate_dist = Uniform::new_inclusive(glo, ghi);

    // Cheapest-path prices for the PricedPath value model, filled lazily.
    let n = topo.num_nodes();
    let mut min_price: Vec<Option<f64>> = vec![None; n * n];
    let mut price_of = |src: NodeId, dst: NodeId| -> f64 {
        let idx = src.index() * n + dst.index();
        if min_price[idx].is_none() {
            let p = metis_netsim::shortest_path(topo, src, dst)
                .map(|p| p.price(topo))
                .unwrap_or(0.0);
            min_price[idx] = Some(p);
        }
        min_price[idx].unwrap()
    };

    let mut out = Vec::with_capacity(k);
    for (i, &arr) in arrivals.iter().enumerate() {
        let start = (((arr / total) * slots) as usize).min(config.num_slots - 1);
        let end = rng.gen_range(start..config.num_slots);

        let src = NodeId(node_dist.sample(&mut rng));
        let dst = loop {
            let d = NodeId(node_dist.sample(&mut rng));
            if d != src {
                break d;
            }
        };

        let rate = gbps_to_units(rate_dist.sample(&mut rng));
        let duration = (end - start + 1) as f64;
        let value = match config.value_model {
            ValueModel::PricedPath { low, high } => {
                let markup = rng.gen_range(low..=high);
                rate * (duration / slots) * price_of(src, dst) * markup
            }
            ValueModel::Flat { per_unit_slot } => rate * duration * per_unit_slot,
        };

        out.push(Request {
            id: RequestId(i as u32),
            src,
            dst,
            start,
            end,
            rate,
            value,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_netsim::topologies;

    #[test]
    fn deterministic_per_seed() {
        let topo = topologies::b4();
        let a = generate(&topo, &WorkloadConfig::paper(200, 42));
        let b = generate(&topo, &WorkloadConfig::paper(200, 42));
        let c = generate(&topo, &WorkloadConfig::paper(200, 43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_requests_valid() {
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(500, 1));
        assert_eq!(reqs.len(), 500);
        for r in &reqs {
            r.validate(topo.num_nodes(), DEFAULT_SLOTS).unwrap();
        }
    }

    #[test]
    fn never_emits_degenerate_fields() {
        // A src == dst request (or a non-finite rate/value) would be
        // rejected at instance-build time, so the generator must never
        // produce one under any seed.
        let topo = topologies::sub_b4();
        for seed in 0..20 {
            for r in generate(&topo, &WorkloadConfig::paper(100, seed)) {
                assert_ne!(r.src, r.dst, "seed {seed}: {} loops", r.id);
                assert!(r.rate.is_finite() && r.rate > 0.0, "seed {seed}");
                assert!(r.value.is_finite() && r.value >= 0.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn rates_within_configured_range() {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(300, 5));
        for r in &reqs {
            let gbps = metis_netsim::units_to_gbps(r.rate);
            assert!((0.1..=5.0).contains(&gbps), "rate {gbps} Gbps out of range");
        }
    }

    #[test]
    fn ids_are_sequential() {
        let topo = topologies::sub_b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(50, 9));
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
    }

    #[test]
    fn arrivals_spread_over_cycle() {
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(600, 11));
        let mut per_slot = [0usize; DEFAULT_SLOTS];
        for r in &reqs {
            per_slot[r.start] += 1;
        }
        let busy = per_slot.iter().filter(|&&c| c > 0).count();
        assert!(busy >= 10, "Poisson arrivals should touch most slots");
    }

    #[test]
    fn priced_path_values_scale_with_route_price() {
        // Requests across expensive (Asia) routes should on average bid
        // more per unit·slot than cheap intra-NA routes.
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(2000, 3));
        let mut asia = (0.0, 0usize);
        let mut na = (0.0, 0usize);
        for r in &reqs {
            let per = r.value / (r.rate * r.duration() as f64);
            let asia_ep = r.src.index() <= 2 || r.dst.index() <= 2;
            let na_ep = (3..=8).contains(&r.src.index()) && (3..=8).contains(&r.dst.index());
            if asia_ep {
                asia = (asia.0 + per, asia.1 + 1);
            } else if na_ep {
                na = (na.0 + per, na.1 + 1);
            }
        }
        assert!(asia.1 > 0 && na.1 > 0);
        assert!(asia.0 / asia.1 as f64 > na.0 / na.1 as f64);
    }

    #[test]
    fn flat_model_ignores_route() {
        let topo = topologies::sub_b4();
        let mut cfg = WorkloadConfig::paper(100, 8);
        cfg.value_model = ValueModel::Flat { per_unit_slot: 2.0 };
        for r in generate(&topo, &cfg) {
            let expect = r.rate * r.duration() as f64 * 2.0;
            assert!((r.value - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn some_requests_unprofitable_under_default_model() {
        // The admission problem is only interesting if serving everything
        // is not obviously optimal: some markups are below 1.
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(1000, 2));
        let below = reqs
            .iter()
            .filter(|r| {
                let price = metis_netsim::shortest_path(&topo, r.src, r.dst)
                    .unwrap()
                    .price(&topo);
                r.value < r.rate * (r.duration() as f64 / 12.0) * price
            })
            .count();
        assert!(below > 100, "only {below} of 1000 requests bid below cost");
    }

    #[test]
    #[should_panic(expected = "at least two data centers")]
    fn tiny_topology_rejected() {
        let mut b = Topology::builder();
        b.add_node("only", metis_netsim::Region::Europe);
        let topo = b.build();
        generate(&topo, &WorkloadConfig::paper(1, 0));
    }
}
