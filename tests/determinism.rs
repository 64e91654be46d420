//! End-to-end determinism: a fixed-seed Metis run must be bit-identical
//! across repeated runs and across worker-thread counts, with and without
//! warm-started LPs.
//!
//! Parallelism in the pipeline (MAA rounding trials, TAA candidate
//! scoring) is structured as indexed families of independent computations
//! reduced in index order, so the thread count can only change *when*
//! work happens, never *what* is computed.

use std::path::Path;

use metis_suite::core::{metis, MaaOptions, MetisConfig, ParallelConfig, SpmInstance};
use metis_suite::netsim::topologies;
use metis_suite::workload::{generate, Scenario, WorkloadConfig};

fn b4_instance(k: usize, seed: u64) -> SpmInstance {
    let topo = topologies::b4();
    let requests = generate(&topo, &WorkloadConfig::paper(k, seed));
    SpmInstance::new(topo, requests, 12, 3)
}

fn config(threads: usize, warm_start: bool) -> MetisConfig {
    MetisConfig {
        theta: 4,
        warm_start,
        parallel: ParallelConfig { threads },
        maa: MaaOptions {
            rounding_repeats: 6,
            seed: 2024,
        },
        ..MetisConfig::default()
    }
}

#[test]
fn metis_identical_across_thread_counts() {
    let inst = b4_instance(40, 7);
    for warm_start in [false, true] {
        let reference = metis(&inst, &config(1, warm_start)).unwrap();
        for threads in [2, 8] {
            let run = metis(&inst, &config(threads, warm_start)).unwrap();
            assert_eq!(
                run.schedule, reference.schedule,
                "schedule differs: warm_start = {warm_start}, threads = {threads}"
            );
            assert_eq!(
                run.evaluation, reference.evaluation,
                "evaluation differs: warm_start = {warm_start}, threads = {threads}"
            );
            assert_eq!(
                run.round_trace, reference.round_trace,
                "round trace differs: warm_start = {warm_start}, threads = {threads}"
            );
            assert_eq!(run.rounds, reference.rounds);
        }
    }
}

#[test]
fn metis_identical_across_repeated_runs() {
    let inst = b4_instance(40, 11);
    for warm_start in [false, true] {
        let a = metis(&inst, &config(2, warm_start)).unwrap();
        let b = metis(&inst, &config(2, warm_start)).unwrap();
        assert_eq!(a.schedule, b.schedule, "warm_start = {warm_start}");
        assert_eq!(a.evaluation, b.evaluation);
        assert_eq!(a.round_trace, b.round_trace);
    }
}

#[test]
fn scenario_files_reproduce_bit_identical_streams_and_profit() {
    // The on-disk scenario contract: loading the same file twice yields
    // equal `Scenario` values, the same seed yields a bit-identical
    // request stream (compared through `f64::to_bits`, not `==`), and
    // the solved profit is bit-identical across thread counts.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/diurnal_b4.json");
    let scenario = Scenario::load(&path).unwrap();
    assert_eq!(scenario, Scenario::load(&path).unwrap());

    let topo = scenario.build_topology();
    let first = scenario.generate(&topo);
    let second = scenario.generate(&topo);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            (a.src, a.dst, a.start, a.end),
            (b.src, b.dst, b.start, b.end)
        );
        assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "{}: rate drifted", a.id);
        assert_eq!(
            a.value.to_bits(),
            b.value.to_bits(),
            "{}: value drifted",
            a.id
        );
    }

    let inst = SpmInstance::new(topo, first, scenario.num_slots(), scenario.paths);
    let reference = metis(&inst, &config(1, false)).unwrap();
    for threads in [2, 8] {
        let run = metis(&inst, &config(threads, false)).unwrap();
        assert_eq!(
            run.evaluation.profit.to_bits(),
            reference.evaluation.profit.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(run.schedule, reference.schedule, "threads = {threads}");
    }
}

#[test]
fn scenario_seed_is_load_bearing() {
    // Changing only the seed must change the stream — guards against a
    // generator that silently ignores the file's seed.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/diurnal_b4.json");
    let scenario = Scenario::load(&path).unwrap();
    let reseeded = Scenario {
        seed: scenario.seed + 1,
        ..scenario.clone()
    };
    let topo = scenario.build_topology();
    assert_ne!(scenario.generate(&topo), reseeded.generate(&topo));
}

#[test]
fn auto_thread_count_changes_nothing() {
    // threads = 0 resolves to "all cores"; whatever that is on the host,
    // the result must match the serial run.
    let inst = b4_instance(25, 3);
    let serial = metis(&inst, &config(1, false)).unwrap();
    let auto = metis(&inst, &config(0, false)).unwrap();
    assert_eq!(auto.schedule, serial.schedule);
    assert_eq!(auto.round_trace, serial.round_trace);
}
