//! Property-based tests over randomly generated topologies and
//! workloads: the invariants every scheduler must hold regardless of the
//! input's shape.

#![expect(
    clippy::float_cmp,
    reason = "FP-01 polices library code; tests assert exact expected values"
)]

use proptest::prelude::*;

use metis_suite::baselines::{amoeba, ecoflow, ecoflow_with, mincost, EcoflowCostModel};
use metis_suite::core::{
    maa, metis, online_metis, taa, LimiterRule, MaaOptions, MetisConfig, OnlineOptions,
    SpmInstance, TaaOptions,
};
use metis_suite::netsim::{
    ceil_units, units_to_gbps, EdgeId, LoadMatrix, Region, Topology, CEIL_EPS,
};
use metis_suite::workload::{
    generate, AuctionSpec, BurstSpec, DiurnalSpec, FamilySpec, GeoLocalitySpec, Horizon, HoseSpec,
    Request, RequestId, Scenario, TopologySpec, UniformSpec, ValueModel, WorkloadConfig,
    SCENARIO_VERSION,
};

/// A random strongly-connected topology: a ring over `n` nodes plus
/// `extra` random chords, with prices drawn from the region table.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..8,
        0usize..6,
        proptest::collection::vec(0u8..5, 0..6),
        any::<u64>(),
    )
        .prop_map(|(n, extra, chord_seeds, salt)| {
            let regions = [
                Region::NorthAmerica,
                Region::Europe,
                Region::Asia,
                Region::SouthAmerica,
                Region::Oceania,
            ];
            let mut b = Topology::builder();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    b.add_node(
                        format!("DC{}", i + 1),
                        regions[(i + salt as usize) % regions.len()],
                    )
                })
                .collect();
            for i in 0..n {
                b.add_regional_link(ids[i], ids[(i + 1) % n], 1.0);
            }
            for (k, &cs) in chord_seeds.iter().take(extra).enumerate() {
                let a = (cs as usize + k) % n;
                let c = (cs as usize + k + 2) % n;
                if a != c {
                    // Duplicate links are fine: they are parallel edges.
                    b.add_regional_link(ids[a], ids[c], 1.0);
                }
            }
            b.build()
        })
}

fn arb_instance() -> impl Strategy<Value = SpmInstance> {
    (arb_topology(), 1usize..40, any::<u64>(), 2usize..4).prop_map(|(topo, k, seed, paths)| {
        let cfg = WorkloadConfig {
            num_requests: k,
            num_slots: 12,
            rate_gbps: (0.1, 5.0),
            value_model: ValueModel::default(),
            seed,
        };
        let requests = generate(&topo, &cfg);
        SpmInstance::new(topo, requests, 12, paths)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn evaluation_identity_and_coverage(inst in arb_instance()) {
        let s = mincost(&inst);
        let ev = s.evaluate(&inst);
        prop_assert!((ev.profit - (ev.revenue - ev.cost)).abs() < 1e-9);
        prop_assert_eq!(ev.accepted, inst.num_requests());
        // Charged units always cover the peak.
        for e in inst.topology().edge_ids() {
            prop_assert!(ev.charged[e.index()] + 1e-9 >= ev.load.peak(e));
        }
    }

    #[test]
    fn maa_serves_everyone_and_respects_lp_bound(inst in arb_instance()) {
        let accepted = vec![true; inst.num_requests()];
        let m = maa(&inst, &accepted, &MaaOptions::default()).unwrap();
        prop_assert_eq!(m.schedule.num_accepted(), inst.num_requests());
        prop_assert!(m.evaluation.cost >= m.relaxation.cost - 1e-6);
    }

    #[test]
    fn taa_feasible_under_arbitrary_capacity(
        inst in arb_instance(),
        cap in prop_oneof![Just(0.0), 1.0f64..20.0],
    ) {
        let caps = vec![cap; inst.topology().num_edges()];
        let t = taa(&inst, &caps, &TaaOptions::default()).unwrap();
        prop_assert!(t.schedule.check_capacities(&inst, &caps).is_ok());
        prop_assert!(t.evaluation.revenue <= t.relaxation.revenue + 1e-6);
        if cap == 0.0 {
            prop_assert_eq!(t.schedule.num_accepted(), 0);
        }
    }

    #[test]
    fn amoeba_never_overloads(inst in arb_instance(), cap in 1.0f64..10.0) {
        let caps = vec![cap; inst.topology().num_edges()];
        let s = amoeba(&inst, &caps);
        prop_assert!(s.check_capacities(&inst, &caps).is_ok());
    }

    #[test]
    fn ecoflow_unit_charge_profit_nonnegative(inst in arb_instance()) {
        let ev = ecoflow_with(&inst, EcoflowCostModel::UnitCharge).evaluate(&inst);
        prop_assert!(ev.profit >= -1e-9);
    }

    #[test]
    fn ecoflow_models_are_deterministic_and_valid(inst in arb_instance()) {
        // The two cost models may route (and hence admit) differently —
        // neither dominates in acceptance count — but both must be
        // deterministic and produce consistent evaluations.
        for model in [EcoflowCostModel::Proportional, EcoflowCostModel::UnitCharge] {
            let a = ecoflow_with(&inst, model);
            let b = ecoflow_with(&inst, model);
            prop_assert_eq!(&a, &b);
            let ev = a.evaluate(&inst);
            prop_assert!((ev.profit - (ev.revenue - ev.cost)).abs() < 1e-9);
        }
        prop_assert_eq!(ecoflow(&inst), ecoflow_with(&inst, EcoflowCostModel::Proportional));
    }

    #[test]
    fn metis_profit_nonnegative_and_recorded(inst in arb_instance()) {
        let m = metis(&inst, &MetisConfig::with_theta(3)).unwrap();
        prop_assert!(m.evaluation.profit >= 0.0);
        // The recorded best dominates every completed solve.
        for t in m.round_trace.iter().filter(|t| t.completed) {
            prop_assert!(m.evaluation.profit >= t.profit - 1e-9);
        }
    }

    #[test]
    fn load_matrix_incremental_matches_rebuild(
        ops in proptest::collection::vec(
            (0usize..4, 0usize..12, 0usize..12, 0.01f64..3.0, any::<bool>()), 1..40),
    ) {
        const EDGES: usize = 4;
        const SLOTS: usize = 12;
        let mut live = LoadMatrix::new(EDGES, SLOTS);
        // Surviving add operations, in application order.
        let mut surviving: Vec<(usize, usize, usize, f64)> = Vec::new();
        for (e, a, b, amt, is_remove) in ops {
            let (start, end) = if a <= b { (a, b) } else { (b, a) };
            if is_remove && !surviving.is_empty() {
                // Undo a previously applied add instead of a fresh one.
                let (pe, ps, pend, pamt) = surviving.swap_remove(e % surviving.len());
                live.remove(EdgeId(pe as u32), ps, pend, pamt);
            } else {
                live.add(EdgeId(e as u32), start, end, amt);
                surviving.push((e, start, end, amt));
            }

            // Invariant A (exact): the cached peak is bit-identical to a
            // scan of the live cells, after every single operation.
            for edge in 0..EDGES {
                let id = EdgeId(edge as u32);
                let scan = (0..SLOTS)
                    .map(|t| live.get(id, t))
                    .fold(0.0_f64, f64::max);
                prop_assert_eq!(
                    live.peak(id).to_bits(),
                    scan.to_bits(),
                    "edge {} cache {} != scan {}",
                    edge,
                    live.peak(id),
                    scan
                );
                prop_assert_eq!(live.charged_units(id), ceil_units(scan));
            }
        }

        // Invariant B (tolerant): the final state matches a freshly
        // rebuilt matrix holding only the surviving adds. (Add/remove
        // pairs cancel only up to float rounding, hence the epsilon.)
        let mut rebuilt = LoadMatrix::new(EDGES, SLOTS);
        for &(e, start, end, amt) in &surviving {
            rebuilt.add(EdgeId(e as u32), start, end, amt);
        }
        for edge in 0..EDGES {
            let id = EdgeId(edge as u32);
            prop_assert!((live.peak(id) - rebuilt.peak(id)).abs() < 1e-9);
            prop_assert_eq!(live.charged_units(id), rebuilt.charged_units(id));
            for t in 0..SLOTS {
                prop_assert!((live.get(id, t) - rebuilt.get(id, t)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fits_never_admits_a_violation(
        ops in proptest::collection::vec(
            (0usize..2, 0usize..12, 0usize..12, 0.01f64..2.0), 1..30),
        cap in 0.5f64..6.0,
    ) {
        // Admission-control invariant relied on by TAA and Amoeba: only
        // add load that `fits`, and no cell ever exceeds the capacity
        // (beyond the documented CEIL_EPS slack).
        let mut load = LoadMatrix::new(2, 12);
        for (e, a, b, amt) in ops {
            let (start, end) = if a <= b { (a, b) } else { (b, a) };
            let id = EdgeId(e as u32);
            if load.fits(id, start, end, amt, cap) {
                load.add(id, start, end, amt);
            }
        }
        for e in 0..2u32 {
            let id = EdgeId(e);
            for t in 0..12 {
                prop_assert!(load.get(id, t) <= cap + CEIL_EPS);
            }
            prop_assert!(load.peak(id) <= cap + CEIL_EPS);
        }
    }

    #[test]
    fn schedule_load_is_additive(inst in arb_instance()) {
        // Load of a schedule equals the sum of per-request loads.
        let s = mincost(&inst);
        let combined = s.load(&inst);
        let mut total = 0.0;
        for r in inst.requests() {
            let j = s.path_choice(r.id).unwrap();
            let path = &inst.paths(r.id)[j];
            total += r.rate * path.edges().len() as f64 * r.duration() as f64;
        }
        let sum_cells: f64 = inst
            .topology()
            .edge_ids()
            .map(|e| (0..inst.num_slots()).map(|t| combined.get(e, t)).sum::<f64>())
            .sum();
        prop_assert!((sum_cells - total).abs() < 1e-6);
    }
}

/// Degenerate instances must run to completion — never panic, never lose
/// the profit ≥ 0 guarantee — through both the offline and online entry
/// points.
fn assert_degrades_gracefully(inst: &SpmInstance, label: &str) {
    let m =
        metis(inst, &MetisConfig::with_theta(3)).unwrap_or_else(|e| panic!("{label}: metis: {e}"));
    assert!(m.evaluation.profit >= 0.0, "{label}");
    assert!(m.incidents.is_empty(), "{label}: no faults were injected");
    for epochs in [1, 4] {
        let o = online_metis(
            inst,
            &OnlineOptions {
                epochs,
                metis: MetisConfig::with_theta(3),
            },
        )
        .unwrap_or_else(|e| panic!("{label}: online({epochs}): {e}"));
        assert!(o.evaluation.profit >= 0.0, "{label}: online({epochs})");
        let arrived: usize = o.epochs.iter().map(|e| e.arrived).sum();
        assert_eq!(arrived, inst.num_requests(), "{label}: online({epochs})");
    }
}

#[test]
fn degenerate_empty_workload() {
    // K = 0: nothing to schedule, profit exactly zero.
    let topo = topologies_sub_b4();
    let inst = SpmInstance::new(topo, Vec::new(), 12, 3);
    assert_degrades_gracefully(&inst, "K=0");
    let m = metis(&inst, &MetisConfig::with_theta(3)).unwrap();
    assert_eq!(m.evaluation.profit, 0.0);
    assert_eq!(m.evaluation.accepted, 0);
}

#[test]
fn degenerate_single_slot_cycle() {
    // T = 1: every request occupies the whole (one-slot) cycle, so peak
    // billing and per-slot load coincide.
    let topo = topologies_sub_b4();
    let cfg = WorkloadConfig {
        num_requests: 15,
        num_slots: 1,
        ..WorkloadConfig::paper(15, 3)
    };
    let requests = generate(&topo, &cfg);
    assert!(requests.iter().all(|r| r.start == 0 && r.end == 0));
    let inst = SpmInstance::new(topo, requests, 1, 3);
    assert_degrades_gracefully(&inst, "T=1");
}

#[test]
fn degenerate_zero_capacity_is_limiter_fixed_point() {
    // Every τ rule maps an all-zero budget to an all-zero budget, so the
    // alternation's "no capacity left" exit is a true fixed point rather
    // than an oscillation — and TAA at that point declines everything.
    let topo = topologies_sub_b4();
    let requests = generate(&topo, &WorkloadConfig::paper(10, 4));
    let inst = SpmInstance::new(topo, requests, 12, 3);
    let zeros = vec![0.0; inst.topology().num_edges()];
    let no_load = LoadMatrix::new(inst.topology().num_edges(), inst.num_slots());
    for rule in [
        LimiterRule::MinUtilization,
        LimiterRule::MaxPrice,
        LimiterRule::UniformShrink,
    ] {
        let tightened = rule.apply(inst.topology(), &no_load, &zeros);
        assert_eq!(tightened, zeros, "{rule:?} must keep the fixed point");
    }
    let t = taa(&inst, &zeros, &TaaOptions::default()).unwrap();
    assert_eq!(t.schedule.num_accepted(), 0);
    assert_degrades_gracefully(&inst, "zero-capacity");
}

#[test]
fn degenerate_single_request_single_path() {
    // Two nodes, one link, one request: the smallest non-trivial SPM.
    let mut b = Topology::builder();
    let n0 = b.add_node("a", Region::Europe);
    let n1 = b.add_node("b", Region::Europe);
    b.add_link(n0, n1, 2.0);
    let topo = b.build();
    let r = Request {
        id: RequestId(0),
        src: n0,
        dst: n1,
        start: 0,
        end: 5,
        rate: 0.5,
        value: 9.0,
    };
    let inst = SpmInstance::new(topo, vec![r], 12, 3);
    assert_eq!(inst.paths(RequestId(0)).len(), 1);
    assert_degrades_gracefully(&inst, "1x1");
    // The bid (9) covers the cost (one unit on each direction's billing:
    // 2 per unit here), so Metis should take it.
    let m = metis(&inst, &MetisConfig::with_theta(3)).unwrap();
    assert_eq!(m.evaluation.accepted, 1);
    assert!(m.evaluation.profit > 0.0);
}

fn topologies_sub_b4() -> Topology {
    metis_suite::netsim::topologies::sub_b4()
}

// ---------------------------------------------------------------------
// Scenario-generator invariants
// ---------------------------------------------------------------------

/// A valid rate range in Gbps: `lo < hi`, both positive and finite.
fn arb_rate_range() -> impl Strategy<Value = (f64, f64)> {
    (0.05f64..2.0, 0.1f64..8.0).prop_map(|(lo, width)| (lo, lo + width))
}

fn arb_scenario_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        Just(TopologySpec::B4),
        Just(TopologySpec::SubB4),
        Just(TopologySpec::Abilene),
        Just(TopologySpec::Geant),
        (3u32..10, 0usize..8, any::<u64>()).prop_map(|(nodes, extra_links, seed)| {
            TopologySpec::Random {
                nodes,
                extra_links,
                seed,
            }
        }),
    ]
}

/// Any valid scenario across all five generator families, with family
/// parameters swept over their full documented domains (locality and
/// strategic fraction over all of `[0, 1]`, multi-cycle horizons, bursts
/// on and off, explicit and degree-derived populations).
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (arb_scenario_topology(), 2usize..16, 1usize..4, any::<u64>()).prop_flat_map(
        |(topology, slots_per_cycle, cycles, seed)| {
            let nodes = topology.build().num_nodes();
            let horizon = Horizon {
                slots_per_cycle,
                cycles,
            };
            let num_slots = horizon.num_slots();
            let uniform = (1usize..40, arb_rate_range()).prop_map(|(num_requests, rate_gbps)| {
                FamilySpec::Uniform(UniformSpec {
                    num_requests,
                    rate_gbps,
                    value_model: ValueModel::default(),
                })
            });
            let geo = (
                1usize..40,
                arb_rate_range(),
                0.0f64..=1.0,
                proptest::option::of(proptest::collection::vec(0.1f64..10.0, nodes)),
            )
                .prop_map(|(num_requests, rate_gbps, locality, populations)| {
                    FamilySpec::GeoLocality(GeoLocalitySpec {
                        num_requests,
                        rate_gbps,
                        value_model: ValueModel::default(),
                        locality,
                        populations,
                    })
                });
            let diurnal = (
                1usize..40,
                arb_rate_range(),
                1.0f64..8.0,
                0..slots_per_cycle,
                proptest::option::of(
                    (0.0f64..=1.0, 1.0f64..6.0)
                        .prop_map(|(prob, multiplier)| BurstSpec { prob, multiplier }),
                ),
                proptest::option::of(1..=num_slots),
            )
                .prop_map(
                    move |(num_requests, rate_gbps, peak_to_trough, peak_slot, burst, max_dur)| {
                        FamilySpec::Diurnal(DiurnalSpec {
                            num_requests,
                            rate_gbps,
                            value_model: ValueModel::default(),
                            peak_to_trough,
                            peak_slot,
                            burst,
                            max_duration_slots: max_dur,
                        })
                    },
                );
            let auction = (
                1usize..40,
                arb_rate_range(),
                (0.2f64..2.0, 0.1f64..6.0),
                0.01f64..0.99,
                0.0f64..=1.0,
            )
                .prop_map(
                    |(num_requests, rate_gbps, (mlo, mw), epsilon, strategic_fraction)| {
                        FamilySpec::Auction(AuctionSpec {
                            num_requests,
                            rate_gbps,
                            markup: (mlo, mlo + mw),
                            epsilon,
                            strategic_fraction,
                        })
                    },
                );
            let hose = (
                1usize..8,
                2usize..=nodes.min(6),
                arb_rate_range(),
                0.1f64..5.0,
                (0.2f64..2.0, 0.1f64..4.0),
                proptest::option::of(1..=num_slots),
            )
                .prop_map(
                    move |(clusters, max_ep, hose_gbps, per_unit_slot, (mlo, mw), max_dur)| {
                        FamilySpec::Hose(HoseSpec {
                            clusters,
                            endpoints: (2, max_ep),
                            hose_gbps,
                            per_unit_slot,
                            markup: (mlo, mlo + mw),
                            max_duration_slots: max_dur,
                        })
                    },
                );
            let family = prop_oneof![uniform, geo, diurnal, auction, hose];
            family.prop_map(move |workload| Scenario {
                version: SCENARIO_VERSION,
                name: "prop".into(),
                description: None,
                topology: topology.clone(),
                horizon,
                seed,
                theta: 3,
                paths: 3,
                workload,
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The universal generator contract, over every family and the full
    /// parameter domain: no self-loops, finite positive rates and
    /// finite non-negative values, every reservation inside the horizon,
    /// rates inside the family's declared Gbps envelope, the stream
    /// sorted by start slot with sequential ids — and bit-identical on
    /// regeneration.
    #[test]
    fn scenario_generators_uphold_the_request_contract(scenario in arb_scenario()) {
        let topo = scenario.build_topology();
        let requests = scenario.generate(&topo);
        let (lo, hi) = scenario.workload.rate_range_gbps();
        let num_slots = scenario.num_slots();
        for (i, r) in requests.iter().enumerate() {
            // validate() covers src != dst, endpoint range, start <= end,
            // end < num_slots, NaN/±∞ and sign constraints on rate/value.
            prop_assert!(r.validate(topo.num_nodes(), num_slots).is_ok(),
                "{}: {:?}", r.validate(topo.num_nodes(), num_slots).unwrap_err(), r);
            prop_assert_eq!(r.id, RequestId(i as u32));
            let gbps = units_to_gbps(r.rate);
            prop_assert!(gbps >= lo - 1e-9 && gbps <= hi + 1e-9,
                "rate {} Gbps outside [{}, {}]", gbps, lo, hi);
        }
        prop_assert!(requests.windows(2).all(|w| w[0].start <= w[1].start));
        prop_assert_eq!(&requests, &scenario.generate(&topo));
    }

    /// Request counts follow the spec: point-to-point families emit
    /// exactly `num_requests`; hose clusters emit an uplink and a
    /// downlink per non-hub member.
    #[test]
    fn scenario_request_counts_match_the_spec(scenario in arb_scenario()) {
        let topo = scenario.build_topology();
        let n = scenario.generate(&topo).len();
        match &scenario.workload {
            FamilySpec::Uniform(s) => prop_assert_eq!(n, s.num_requests),
            FamilySpec::GeoLocality(s) => prop_assert_eq!(n, s.num_requests),
            FamilySpec::Diurnal(s) => prop_assert_eq!(n, s.num_requests),
            FamilySpec::Auction(s) => prop_assert_eq!(n, s.num_requests),
            FamilySpec::Hose(s) => {
                let (min_ep, max_ep) = s.endpoints;
                prop_assert!(n >= s.clusters * 2 * (min_ep - 1));
                prop_assert!(n <= s.clusters * 2 * (max_ep - 1));
            }
        }
    }
}

/// Hand-built adversarial case: a request whose two candidate paths share
/// one edge; whatever is chosen, accounting must stay consistent.
#[test]
fn shared_edge_paths_account_once() {
    let mut b = Topology::builder();
    let n0 = b.add_node("a", Region::Europe);
    let n1 = b.add_node("b", Region::Europe);
    let n2 = b.add_node("c", Region::Europe);
    b.add_link(n0, n1, 1.0);
    b.add_link(n1, n2, 1.0);
    b.add_link(n0, n2, 5.0);
    let topo = b.build();
    let r = Request {
        id: RequestId(0),
        src: n0,
        dst: n2,
        start: 0,
        end: 3,
        rate: 0.4,
        value: 10.0,
    };
    let inst = SpmInstance::new(topo, vec![r], 12, 3);
    let m = maa(&inst, &[true], &MaaOptions::default()).unwrap();
    // Cheapest route a→b→c costs 2 (one unit per link).
    assert!((m.evaluation.cost - 2.0).abs() < 1e-9);
}
