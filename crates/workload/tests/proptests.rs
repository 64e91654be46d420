//! Property tests for the workload generator.

use proptest::prelude::*;

use metis_netsim::topologies;
use metis_workload::{generate, ValueModel, WorkloadConfig, DEFAULT_SLOTS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_requests_always_validate(
        k in 0usize..200,
        seed in any::<u64>(),
        slots in 1usize..24,
    ) {
        let topo = topologies::b4();
        let cfg = WorkloadConfig {
            num_requests: k,
            num_slots: slots,
            rate_gbps: (0.1, 5.0),
            value_model: ValueModel::default(),
            seed,
        };
        let reqs = generate(&topo, &cfg);
        prop_assert_eq!(reqs.len(), k);
        for r in &reqs {
            prop_assert_eq!(r.validate(topo.num_nodes(), slots), Ok(()));
        }
    }

    #[test]
    fn rates_respect_configured_range(
        seed in any::<u64>(),
        lo in 0.5f64..2.0,
        width in 0.0f64..5.0,
    ) {
        let topo = topologies::sub_b4();
        let hi = lo + width;
        let cfg = WorkloadConfig {
            num_requests: 64,
            num_slots: DEFAULT_SLOTS,
            rate_gbps: (lo, hi),
            value_model: ValueModel::Flat { per_unit_slot: 1.0 },
            seed,
        };
        for r in generate(&topo, &cfg) {
            let gbps = metis_netsim::units_to_gbps(r.rate);
            prop_assert!(gbps >= lo - 1e-9 && gbps <= hi + 1e-9);
        }
    }

    #[test]
    fn same_seed_same_workload(seed in any::<u64>()) {
        let topo = topologies::b4();
        let cfg = WorkloadConfig::paper(50, seed);
        prop_assert_eq!(generate(&topo, &cfg), generate(&topo, &cfg));
    }

    #[test]
    fn flat_values_match_formula(seed in any::<u64>(), tariff in 0.1f64..10.0) {
        let topo = topologies::sub_b4();
        let cfg = WorkloadConfig {
            num_requests: 32,
            num_slots: DEFAULT_SLOTS,
            rate_gbps: (0.1, 5.0),
            value_model: ValueModel::Flat { per_unit_slot: tariff },
            seed,
        };
        for r in generate(&topo, &cfg) {
            let expect = r.rate * r.duration() as f64 * tariff;
            prop_assert!((r.value - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn priced_values_are_positive_and_bounded(seed in any::<u64>()) {
        let topo = topologies::b4();
        let reqs = generate(&topo, &WorkloadConfig::paper(100, seed));
        for r in &reqs {
            prop_assert!(r.value > 0.0);
            // Bounded by max markup × full-cycle standalone fractional cost.
            let price = metis_netsim::shortest_path(&topo, r.src, r.dst)
                .unwrap()
                .price(&topo);
            let cap = r.rate * (r.duration() as f64 / 12.0) * price * 4.0 + 1e-9;
            prop_assert!(r.value <= cap, "value {} above cap {}", r.value, cap);
        }
    }
}
