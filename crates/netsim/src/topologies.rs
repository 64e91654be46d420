//! The evaluation topologies of the paper: B4 and SUB-B4.
//!
//! The paper evaluates on Google's **B4** inter-DC WAN (12 data centers,
//! 19 bidirectional links; its Fig. 2) and on **SUB-B4**, the induced
//! sub-network on DC1–DC6 with 7 links. The exact adjacency in the paper's
//! figure is not machine-readable, so this module encodes the standard
//! 12-node/19-link B4 layout used across the inter-DC-WAN literature and
//! documents the link list explicitly; SUB-B4 is literally the induced
//! subgraph on the first six data centers, which by construction has the
//! 7 links the paper states.
//!
//! Prices follow the Cloudflare relative-regional-price table via
//! [`Region::price_factor`]: DC1–DC3 are in Asia, DC4–DC9 in North
//! America, DC10–DC12 in Europe. A link's per-unit price is
//! `BASE_PRICE · (factor(a) + factor(b)) / 2`.

use crate::graph::{NodeId, Region, Topology, TopologyBuilder};

/// Baseline price of one bandwidth unit (10 Gbps) per billing cycle on the
/// cheapest (intra-NA/EU) links, in abstract dollars.
pub const BASE_PRICE: f64 = 1.0;

/// Bidirectional links of the 12-node B4 model, as `(a, b)` 0-based pairs.
///
/// The induced subgraph on nodes `0..6` has exactly the 7 links of SUB-B4.
pub const B4_LINKS: [(u32, u32); 19] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 3),
    (3, 4),
    (3, 5),
    (4, 5),
    (4, 6),
    (5, 6),
    (5, 7),
    (6, 7),
    (6, 8),
    (7, 8),
    (7, 9),
    (8, 9),
    (8, 10),
    (9, 11),
    (10, 11),
    (8, 11),
];

fn region_of(node: u32) -> Region {
    match node {
        0..=2 => Region::Asia,
        3..=8 => Region::NorthAmerica,
        _ => Region::Europe,
    }
}

fn build(nodes: u32, links: &[(u32, u32)]) -> Topology {
    let mut b: TopologyBuilder = Topology::builder();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| b.add_node(format!("DC{}", i + 1), region_of(i)))
        .collect();
    for &(x, y) in links {
        b.add_regional_link(ids[x as usize], ids[y as usize], BASE_PRICE);
    }
    b.build()
}

/// Google's B4 inter-DC WAN: 12 data centers, 19 bidirectional links
/// (38 directed edges).
///
/// # Examples
///
/// ```
/// let topo = metis_netsim::topologies::b4();
/// assert_eq!(topo.num_nodes(), 12);
/// assert_eq!(topo.num_edges(), 38);
/// assert!(topo.is_strongly_connected());
/// ```
pub fn b4() -> Topology {
    build(12, &B4_LINKS)
}

/// SUB-B4: the induced sub-network of [`b4`] on DC1–DC6 (7 links,
/// 14 directed edges).
///
/// # Examples
///
/// ```
/// let topo = metis_netsim::topologies::sub_b4();
/// assert_eq!(topo.num_nodes(), 6);
/// assert_eq!(topo.num_edges(), 14);
/// ```
pub fn sub_b4() -> Topology {
    let links: Vec<(u32, u32)> = B4_LINKS
        .iter()
        .copied()
        .filter(|&(a, b)| a < 6 && b < 6)
        .collect();
    build(6, &links)
}

/// The Internet2/Abilene research backbone: 11 PoPs, 14 bidirectional
/// links, all North American. Not part of the paper's evaluation; useful
/// for robustness experiments on a different WAN shape.
///
/// # Examples
///
/// ```
/// let topo = metis_netsim::topologies::abilene();
/// assert_eq!(topo.num_nodes(), 11);
/// assert_eq!(topo.num_edges(), 28);
/// assert!(topo.is_strongly_connected());
/// ```
pub fn abilene() -> Topology {
    const NAMES: [&str; 11] = [
        "Seattle",
        "Sunnyvale",
        "Los Angeles",
        "Denver",
        "Kansas City",
        "Houston",
        "Chicago",
        "Indianapolis",
        "Atlanta",
        "Washington",
        "New York",
    ];
    const LINKS: [(u32, u32); 14] = [
        (0, 1),  // Seattle–Sunnyvale
        (0, 3),  // Seattle–Denver
        (1, 2),  // Sunnyvale–Los Angeles
        (1, 3),  // Sunnyvale–Denver
        (2, 5),  // Los Angeles–Houston
        (3, 4),  // Denver–Kansas City
        (4, 5),  // Kansas City–Houston
        (4, 7),  // Kansas City–Indianapolis
        (5, 8),  // Houston–Atlanta
        (6, 7),  // Chicago–Indianapolis
        (6, 10), // Chicago–New York
        (7, 8),  // Indianapolis–Atlanta
        (8, 9),  // Atlanta–Washington
        (9, 10), // Washington–New York
    ];
    let mut b = Topology::builder();
    let ids: Vec<NodeId> = NAMES
        .iter()
        .map(|n| b.add_node(*n, Region::NorthAmerica))
        .collect();
    for &(x, y) in &LINKS {
        b.add_regional_link(ids[x as usize], ids[y as usize], BASE_PRICE);
    }
    b.build()
}

/// A 22-node model of the GÉANT pan-European research network (36
/// bidirectional links, the layout commonly used in traffic-engineering
/// studies). All-European pricing.
///
/// # Examples
///
/// ```
/// let topo = metis_netsim::topologies::geant();
/// assert_eq!(topo.num_nodes(), 22);
/// assert_eq!(topo.num_edges(), 72);
/// assert!(topo.is_strongly_connected());
/// ```
pub fn geant() -> Topology {
    // 0:AT 1:BE 2:CH 3:CZ 4:DE 5:ES 6:FR 7:GR 8:HR 9:HU 10:IE 11:IL
    // 12:IT 13:LU 14:NL 15:NY(US peering) 16:PL 17:PT 18:SE 19:SI 20:SK 21:UK
    const LINKS: [(u32, u32); 36] = [
        (0, 3),
        (0, 4),
        (0, 9),
        (0, 19),
        (1, 4),
        (1, 14),
        (1, 6),
        (2, 4),
        (2, 6),
        (2, 12),
        (3, 4),
        (3, 16),
        (3, 20),
        (4, 12),
        (4, 14),
        (4, 18),
        (4, 21),
        (5, 6),
        (5, 12),
        (5, 17),
        (5, 21),
        (6, 13),
        (6, 21),
        (7, 12),
        (7, 0),
        (8, 9),
        (8, 19),
        (9, 20),
        (10, 21),
        (11, 12),
        (12, 21),
        (13, 4),
        (14, 21),
        (15, 21),
        (15, 18),
        (16, 4),
    ];
    const NAMES: [&str; 22] = [
        "AT", "BE", "CH", "CZ", "DE", "ES", "FR", "GR", "HR", "HU", "IE", "IL", "IT", "LU", "NL",
        "NY", "PL", "PT", "SE", "SI", "SK", "UK",
    ];
    let mut b = Topology::builder();
    let ids: Vec<NodeId> = NAMES
        .iter()
        .enumerate()
        .map(|(i, n)| {
            // NY peering point priced as North America; the rest Europe.
            let region = if i == 15 {
                Region::NorthAmerica
            } else {
                Region::Europe
            };
            b.add_node(*n, region)
        })
        .collect();
    for &(x, y) in &LINKS {
        b.add_regional_link(ids[x as usize], ids[y as usize], BASE_PRICE);
    }
    b.build()
}

/// A seeded random WAN: a ring over `n` nodes (guaranteeing strong
/// connectivity) plus `extra_links` random chords, with nodes assigned
/// round-robin to all five pricing regions.
///
/// Deterministic per `(n, extra_links, seed)`.
///
/// # Panics
///
/// Panics if `n < 3`.
///
/// # Examples
///
/// ```
/// let topo = metis_netsim::topologies::random_wan(9, 5, 7);
/// assert_eq!(topo.num_nodes(), 9);
/// assert!(topo.is_strongly_connected());
/// assert_eq!(topo, metis_netsim::topologies::random_wan(9, 5, 7));
/// ```
pub fn random_wan(n: u32, extra_links: usize, seed: u64) -> Topology {
    assert!(n >= 3, "need at least three nodes");
    const REGIONS: [Region; 5] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::Asia,
        Region::SouthAmerica,
        Region::Oceania,
    ];
    let mut b = Topology::builder();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(format!("DC{}", i + 1), REGIONS[i as usize % REGIONS.len()]))
        .collect();
    for i in 0..n as usize {
        b.add_regional_link(ids[i], ids[(i + 1) % n as usize], BASE_PRICE);
    }
    // Simple SplitMix64 stream; full determinism without pulling RNG
    // crates into this crate.
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut added = 0;
    let mut guard = 0;
    while added < extra_links && guard < extra_links * 20 + 100 {
        guard += 1;
        let a = (next() % n as u64) as usize;
        let c = (next() % n as u64) as usize;
        let neighbors = c == (a + 1) % n as usize || a == (c + 1) % n as usize;
        if a != c && !neighbors {
            b.add_regional_link(ids[a], ids[c], BASE_PRICE);
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::k_shortest_paths;

    #[test]
    fn b4_shape_matches_paper() {
        let t = b4();
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.num_edges(), 2 * 19);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn sub_b4_shape_matches_paper() {
        let t = sub_b4();
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_edges(), 2 * 7);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn sub_b4_is_induced_subgraph_of_b4() {
        let big = b4();
        let small = sub_b4();
        for e in small.edge_ids() {
            let edge = small.edge(e);
            let be = big
                .find_edge(edge.from, edge.to)
                .expect("SUB-B4 edge missing from B4");
            assert_eq!(big.price(be), edge.price, "price differs for {e}");
        }
    }

    #[test]
    fn prices_reflect_regions() {
        let t = b4();
        // Asia–Asia link (DC1–DC2) costs 6.5×; NA–NA (DC5–DC6) costs 1×.
        let asia = t
            .find_edge(NodeId(0), NodeId(1))
            .expect("DC1–DC2 link exists");
        let na = t
            .find_edge(NodeId(4), NodeId(5))
            .expect("DC5–DC6 link exists");
        assert!((t.price(asia) - 6.5 * BASE_PRICE).abs() < 1e-12);
        assert!((t.price(na) - BASE_PRICE).abs() < 1e-12);
        assert!(t.price(asia) > t.price(na));
    }

    #[test]
    fn multiple_paths_exist_between_all_pairs() {
        // The evaluation requires path diversity ("there are several
        // routing paths between two data centers").
        for t in [b4(), sub_b4()] {
            let mut pairs_with_choice = 0;
            let mut pairs = 0;
            for s in t.node_ids() {
                for d in t.node_ids() {
                    if s == d {
                        continue;
                    }
                    pairs += 1;
                    let ps = k_shortest_paths(&t, s, d, 3);
                    assert!(!ps.is_empty(), "{s}→{d} unreachable");
                    if ps.len() >= 2 {
                        pairs_with_choice += 1;
                    }
                }
            }
            assert!(
                pairs_with_choice * 10 >= pairs * 9,
                "fewer than 90% of pairs have alternative paths"
            );
        }
    }

    #[test]
    fn abilene_and_geant_are_sane() {
        let a = abilene();
        assert_eq!(a.num_nodes(), 11);
        assert_eq!(a.num_edges(), 28);
        assert!(a.is_strongly_connected());
        // All-NA: every link costs the base price.
        for e in a.edge_ids() {
            assert!((a.price(e) - BASE_PRICE).abs() < 1e-12);
        }

        let g = geant();
        assert_eq!(g.num_nodes(), 22);
        assert_eq!(g.num_edges(), 72);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn random_wan_is_deterministic_and_connected() {
        for seed in 0..5 {
            let t = random_wan(8, 6, seed);
            assert!(t.is_strongly_connected(), "seed {seed}");
            assert_eq!(t, random_wan(8, 6, seed));
            assert!(t.num_edges() >= 16, "ring plus chords");
        }
        assert_ne!(random_wan(8, 6, 1), random_wan(8, 6, 2));
    }

    #[test]
    #[should_panic(expected = "at least three nodes")]
    fn random_wan_too_small() {
        random_wan(2, 0, 0);
    }

    #[test]
    fn dot_export_contains_all_nodes() {
        let t = sub_b4();
        let dot = t.to_dot();
        for n in t.node_ids() {
            assert!(dot.contains(&t.node(n).name), "{} missing", t.node(n).name);
        }
        // 7 bidirectional links → 7 collapsed edges.
        assert_eq!(dot.matches(" -- ").count(), 7);
    }

    #[test]
    fn directed_pairs_have_symmetric_prices() {
        let t = b4();
        for e in t.edge_ids() {
            let edge = t.edge(e);
            let rev = t.find_edge(edge.to, edge.from).expect("reverse edge");
            assert_eq!(t.price(e), t.price(rev));
        }
    }
}
