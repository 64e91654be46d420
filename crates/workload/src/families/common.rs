//! Helpers shared by the generator families.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use metis_netsim::{NodeId, PathMetric, Topology};

use crate::generator::ValueModel;
use crate::request::{Request, RequestId};

/// Samples an index from cumulative weights `cum` (non-empty, ascending,
/// last entry positive): inverse-CDF with one uniform draw.
pub(crate) fn weighted_index(rng: &mut ChaCha12Rng, cum: &[f64]) -> usize {
    let total = cum[cum.len() - 1];
    let u: f64 = rng.gen::<f64>() * total;
    // partition_point is a binary search; ties broken toward the first
    // slot whose cumulative weight exceeds u.
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Cumulative sums of `weights`.
pub(crate) fn cumulative(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// All-pairs hop distances by BFS from every node. Unreachable pairs
/// (impossible on the strongly connected built-ins) fall back to the
/// node count, i.e. "far".
pub(crate) fn all_pairs_hops(topo: &Topology) -> Vec<Vec<u32>> {
    let n = topo.num_nodes();
    let far = n as u32;
    (0..n)
        .map(|s| {
            let mut dist = vec![far; n];
            dist[s] = 0;
            let mut queue = std::collections::VecDeque::from([NodeId(s as u32)]);
            while let Some(u) = queue.pop_front() {
                for &e in topo.out_edges(u) {
                    let v = topo.edge(e).to;
                    if dist[v.index()] == far {
                        dist[v.index()] = dist[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
            dist
        })
        .collect()
}

/// Lazily filled cheapest-path price table, as in the §V-A generator.
pub(crate) struct PriceCache {
    n: usize,
    cache: Vec<Option<f64>>,
}

impl PriceCache {
    pub(crate) fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        PriceCache {
            n,
            cache: vec![None; n * n],
        }
    }

    pub(crate) fn get(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> f64 {
        let idx = src.index() * self.n + dst.index();
        if self.cache[idx].is_none() {
            let p = metis_netsim::shortest_path(topo, src, dst, PathMetric::Price)
                .map(|p| p.price(topo))
                .unwrap_or(0.0);
            self.cache[idx] = Some(p);
        }
        self.cache[idx].unwrap()
    }
}

/// Derives a request's bid under `model`, consuming exactly one RNG draw
/// for the priced-path markup and none for the flat tariff.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent input of the bid; a struct would only rename them"
)]
pub(crate) fn value_of(
    rng: &mut ChaCha12Rng,
    model: &ValueModel,
    prices: &mut PriceCache,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    rate: f64,
    duration: usize,
    slots_per_cycle: usize,
) -> f64 {
    match *model {
        ValueModel::PricedPath { low, high } => {
            let markup = rng.gen_range(low..=high);
            rate * (duration as f64 / slots_per_cycle as f64) * prices.get(topo, src, dst) * markup
        }
        ValueModel::Flat { per_unit_slot } => rate * duration as f64 * per_unit_slot,
    }
}

/// Sorts requests by start slot (stable, so the seeded draw order breaks
/// ties) and reassigns sequential ids — the output-contract every family
/// shares.
pub(crate) fn finalize(mut requests: Vec<Request>) -> Vec<Request> {
    requests.sort_by_key(|r| r.start);
    for (i, r) in requests.iter_mut().enumerate() {
        r.id = RequestId(i as u32);
    }
    requests
}
