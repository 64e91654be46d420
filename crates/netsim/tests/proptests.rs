//! Property tests for path enumeration and load accounting on random
//! topologies.

use proptest::prelude::*;

use metis_netsim::{
    ceil_units, k_shortest_paths, shortest_path, EdgeId, LoadMatrix, NodeId, Region, Topology,
};

/// Random connected topology: a ring plus chords, mixed regions.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..10,
        proptest::collection::vec((0usize..10, 0usize..10, 1.0f64..20.0), 0..8),
    )
        .prop_map(|(n, chords)| {
            let mut b = Topology::builder();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let region = match i % 3 {
                        0 => Region::NorthAmerica,
                        1 => Region::Asia,
                        _ => Region::Europe,
                    };
                    b.add_node(format!("DC{i}"), region)
                })
                .collect();
            for i in 0..n {
                b.add_link(ids[i], ids[(i + 1) % n], 1.0 + i as f64);
            }
            for (a, c, price) in chords {
                let (a, c) = (a % n, c % n);
                if a != c {
                    b.add_link(ids[a], ids[c], price);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_topologies_are_strongly_connected(topo in arb_topology()) {
        prop_assert!(topo.is_strongly_connected());
    }

    #[test]
    fn shortest_path_is_minimal_among_yen(topo in arb_topology(), k in 1usize..6) {
        let src = NodeId(0);
        let dst = NodeId((topo.num_nodes() - 1) as u32);
        let best = shortest_path(&topo, src, dst).unwrap();
        let all = k_shortest_paths(&topo, src, dst, k);
        prop_assert!(!all.is_empty());
        prop_assert!((all[0].price(&topo) - best.price(&topo)).abs() < 1e-9);
        // Sorted by cost, loopless, pairwise distinct, endpoints right.
        for w in all.windows(2) {
            prop_assert!(w[0].price(&topo) <= w[1].price(&topo) + 1e-9);
            prop_assert!(w[0].edges() != w[1].edges());
        }
        for p in &all {
            prop_assert_eq!(p.source(), src);
            prop_assert_eq!(p.dest(), dst);
            let mut nodes = p.nodes().to_vec();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), p.nodes().len(), "loop in path");
            prop_assert!(p.len() < topo.num_nodes());
        }
        prop_assert!(all.len() <= k);
    }

    #[test]
    fn yen_with_larger_k_extends_prefix(topo in arb_topology()) {
        let src = NodeId(0);
        let dst = NodeId(1);
        let small = k_shortest_paths(&topo, src, dst, 2);
        let large = k_shortest_paths(&topo, src, dst, 4);
        // Cost sequence of the smaller call is a prefix of the larger's.
        for (a, b) in small.iter().zip(&large) {
            prop_assert!((a.price(&topo) - b.price(&topo)).abs() < 1e-9);
        }
        prop_assert!(large.len() >= small.len());
    }

    #[test]
    fn load_peak_dominates_mean(
        spans in proptest::collection::vec(
            (0usize..4, 0usize..12, 0usize..12, 0.01f64..2.0), 1..20)
    ) {
        let mut load = LoadMatrix::new(4, 12);
        for (e, a, b, amt) in spans {
            let (start, end) = if a <= b { (a, b) } else { (b, a) };
            load.add(EdgeId(e as u32), start, end, amt);
        }
        for e in 0..4u32 {
            prop_assert!(load.peak(EdgeId(e)) + 1e-12 >= load.mean(EdgeId(e)));
        }
    }

    #[test]
    fn ceil_units_brackets_load(load in 0.0f64..100.0) {
        let u = ceil_units(load) as f64;
        prop_assert!(u + 1e-9 >= load, "charge covers the load");
        prop_assert!(u < load + 1.0 + 1e-6, "never more than one spare unit");
    }

    #[test]
    fn utilization_stats_within_bounds(
        loads in proptest::collection::vec(0.0f64..5.0, 3),
        caps in proptest::collection::vec(1.0f64..10.0, 3),
    ) {
        let mut m = LoadMatrix::new(3, 4);
        for (e, &l) in loads.iter().enumerate() {
            m.add(EdgeId(e as u32), 0, 3, l);
        }
        let u = m.utilization(&caps);
        prop_assert!(u.min <= u.mean + 1e-12 && u.mean <= u.max + 1e-12);
        prop_assert_eq!(u.links, 3);
    }
}
