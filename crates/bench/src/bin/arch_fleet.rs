//! Experiment E17: **architecture-zoo fleet validation** — the
//! `DeviceSource` seam across flash, iid-width, SAR and pipeline
//! silicon, gated end to end.
//!
//! Part 1 runs `bist_mc::differential::run_arch_differential`: every
//! zoo paper preset × counter width, three runs per device × cell on
//! bit-identical streams — the full behavioural sweep (ground truth),
//! the sequenced behavioural path and the sequenced gate-accurate RTL
//! path. The two sequenced backends must latch **identical decisions
//! at identical sample indices** for every architecture (any
//! divergence exits 1, and so does an empty sweep): the paper's
//! architecture-agnostic claim, checked at the gate level. The
//! per-cell table and CSV come from `bist_bench::write_seq_cells`,
//! shared with `seq_fleet`.
//!
//! Part 2 screens one mixed zoo fleet (the architectures interleaved
//! by the zoo's seeded deal) through the sequenced pooled engine at 1
//! and 4 workers and demands bit-identical reports — which worker (or
//! architecture) a device lands on may never change its verdict. An
//! FNV-1a checksum over the reports is emitted as `report_checksum`
//! so two runs at different `BIST_WORKERS` can be diffed from their
//! JSON records alone.
//!
//! Each architecture's speed is fleetbench's to measure
//! (`generate.<arch>.devices_per_s`, `zoo_screen`).
//!
//! Knobs: `BIST_DEVICES` (differential devices, default 64),
//! `BIST_ZOO_DEVICES` (mixed fleet, default 200), `BIST_WORKERS`.

use bist_adc::spec::LinearitySpec;
use bist_adc::types::Resolution;
use bist_bench::{report_divergences, write_seq_cells, Fnv, Scenario, SEED};
use bist_core::config::BistConfig;
use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::Zoo;
use bist_mc::differential::run_arch_differential;

fn main() {
    let mut clean = true;
    Scenario::run("arch_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("arch_fleet: divergence or worker-determinism gate failed");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 64);
    let zoo_devices = sc.usize_knob("BIST_ZOO_DEVICES", 200);
    let workers = sc.workers();
    let policy = SequencerConfig::default();

    // --- Part 1: per-architecture differential ----------------------
    let diff = run_arch_differential(SEED, &policy, devices, workers);
    println!("arch differential  {diff}");
    write_seq_cells(
        sc,
        &diff,
        "E17 per-architecture differential: every architecture, both backends",
        "cell",
        "arch_fleet.csv",
    );
    report_divergences(&diff.divergences, "");

    // --- Part 2: mixed-zoo worker determinism -----------------------
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper operating point");
    let zoo = Zoo::paper().with_seed(SEED);
    let census = zoo.census(zoo_devices);
    println!(
        "mixed fleet of {zoo_devices}: census flash {} / iid {} / sar {} / pipeline {}",
        census[0], census[1], census[2], census[3]
    );
    let zoo_run = |w: usize| {
        Screener::new(Workload::static_ramp(config))
            .sequencer(policy)
            .workers(w)
            .run(zoo.fleet(zoo_devices))
            .into_iter()
            .map(|r| (r.device, r.verdict))
            .collect::<Vec<(usize, ScreenVerdict)>>()
    };
    let w1 = zoo_run(1);
    let w4 = zoo_run(4);
    let workers_identical = w1 == w4;
    if !workers_identical {
        println!("DIVERGENCE mixed-zoo reports differ between 1 and 4 workers");
    }
    let mut checksum = Fnv::default();
    checksum.fold_reports(&w1);

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", diff.comparisons);
    sc.metric_count("divergences", diff.divergences.len() as u64);
    sc.metric("early_stop_rate", diff.early_stop_rate());
    sc.metric("type_i_drift", diff.type_i_drift());
    sc.metric("type_ii_drift", diff.type_ii_drift());
    sc.metric_count("workers_identical", u64::from(workers_identical));
    sc.metric_count("report_checksum", checksum.finish());

    let clean = diff.is_clean() && workers_identical;
    if clean {
        println!("reading: every architecture in the zoo latches the identical early-stop");
        println!("decision on both backends, and the mixed fleet's reports are invariant in");
        println!("the worker count.");
    } else {
        println!(
            "FAIL: clean={} workers_identical={workers_identical}",
            diff.is_clean()
        );
    }
    clean
}
