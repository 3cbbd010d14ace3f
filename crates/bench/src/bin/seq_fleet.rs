//! Experiment E14: **sequenced early-stop fleet validation** — the
//! uncertainty-guided sequencer over both verdict backends, scored
//! against full-sweep ground truth.
//!
//! Part 1 runs `bist_mc::differential::run_seq_differential`: for every
//! device × cell (static counter-width × mismatch σ cells plus dynamic
//! resolution × mismatch σ cells), three runs consume bit-identical
//! code streams — the full sweep (ground truth), the sequenced
//! behavioural path and the sequenced gate-accurate RTL path. The two
//! sequenced backends must latch **identical decisions at identical
//! sample indices** (any divergence exits 1, which the CI perf-baseline
//! job relies on), and the sequenced decision is scored against the
//! full sweep for empirical type I/II drift (must stay within the
//! configured `alpha`/`beta` budgets) and samples-to-decision
//! reduction (must reach ≥ 2x on ground-truth-accepted devices).
//! Candidate cells rejected by config validation are reported as
//! skipped and excluded from every figure.
//!
//! Part 2 measures the wall-clock payoff: the same populations screened
//! full-sweep vs sequenced (behavioural backend), reporting devices/s
//! both ways and the speedup — the perf record
//! (`bench/out/seq_fleet.json`) feeds the run-over-run trajectory and
//! the committed `crates/bench/baseline/` gate.
//!
//! Knobs: `BIST_DEVICES` (default 400), `BIST_SEED`, `BIST_WORKERS`,
//! `BIST_SEQ_ALPHA_PPM` / `BIST_SEQ_BETA_PPM` (drift budgets in parts
//! per million, default 1000 = 1e-3), `BIST_SEQ_MIN_SAMPLES` (default
//! 256), `BIST_SEQ_CHECK_INTERVAL` (default 64).

use bist_adc::flash::FlashConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Resolution, Volts};
use bist_bench::{report_divergences, Scenario};
use bist_core::config::BistConfig;
use bist_core::dynamic::DynamicConfig;
use bist_core::pool;
use bist_core::report::Table;
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_mc::batch::Batch;
use bist_mc::differential::run_seq_differential;
use bist_mc::experiment::{DynExperiment, DynExperimentResult, Experiment};
use bist_mc::parallel::run_parallel;
use std::time::Instant;

fn main() {
    let mut clean = true;
    Scenario::run("seq_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("seq_fleet: sequencer divergence, drift-budget or reduction gate failed");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 400);
    let seed = sc.seed();
    let workers = sc.workers();
    let alpha = sc.usize_knob("BIST_SEQ_ALPHA_PPM", 1000) as f64 * 1e-6;
    let beta = sc.usize_knob("BIST_SEQ_BETA_PPM", 1000) as f64 * 1e-6;
    let policy = SequencerConfig {
        alpha,
        beta,
        min_samples: sc.usize_knob("BIST_SEQ_MIN_SAMPLES", 256) as u64,
        check_interval: sc.usize_knob("BIST_SEQ_CHECK_INTERVAL", 64) as u64,
    };
    if let Err(e) = policy.validate() {
        eprintln!("seq_fleet: invalid sequencer policy: {e}");
        return false;
    }

    // --- Part 1: the sequenced differential sweep -------------------
    let result = run_seq_differential(seed, &policy, devices, workers);
    println!("sequenced sweep  {result}");
    for cell in &result.skipped_cells {
        println!("skipped cell {}: {}", cell.scenario, cell.reason);
    }

    let mut table = Table::new(&[
        "scenario",
        "compared",
        "latch-exact",
        "early-stop %",
        "samp/dev full",
        "samp/dev seq",
        "reduction",
        "drift I",
        "drift II",
    ])
    .with_title("E14 sequenced differential: early-stop layer over both backends");
    let mut csv = Vec::new();
    for t in &result.per_scenario {
        let n = t.comparisons.max(1);
        table.row_owned(vec![
            t.scenario.to_string(),
            t.comparisons.to_string(),
            t.agreements.to_string(),
            format!("{:.0}", 100.0 * t.early_stops as f64 / n as f64),
            format!("{:.0}", t.full_samples as f64 / n as f64),
            format!("{:.0}", t.seq_samples as f64 / n as f64),
            format!("{:.2}x", t.reduction()),
            t.drift_i.to_string(),
            t.drift_ii.to_string(),
        ]);
        csv.push(vec![
            t.scenario.to_string(),
            t.comparisons.to_string(),
            t.agreements.to_string(),
            t.early_stops.to_string(),
            t.full_samples.to_string(),
            t.seq_samples.to_string(),
            t.drift_i.to_string(),
            t.drift_ii.to_string(),
        ]);
    }
    println!("{table}");
    report_divergences(&result.divergences, "");

    // --- Part 2: wall-clock payoff, full vs sequenced ---------------
    let static_speed = static_throughput(seed, devices, workers, &policy);
    let dyn_speed = dynamic_throughput(seed, devices, workers, &policy);
    println!(
        "throughput static (6-bit counter, σ0.21, {devices} devices): \
         full {:.0} dev/s, sequenced {:.0} dev/s ({:.2}x)",
        static_speed.full_dps,
        static_speed.seq_dps,
        static_speed.seq_dps / static_speed.full_dps.max(1e-9),
    );
    println!(
        "throughput dynamic (6-bit, σ0.16, {devices} devices): \
         full {:.0} dev/s, sequenced {:.0} dev/s ({:.2}x); \
         {} devices of an invalid candidate cell excluded from devices/s",
        dyn_speed.full_dps,
        dyn_speed.seq_dps,
        dyn_speed.seq_dps / dyn_speed.full_dps.max(1e-9),
        dyn_speed.invalid_planned,
    );

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", result.comparisons);
    sc.metric_count("divergences", result.divergences.len() as u64);
    sc.metric_count("skipped_cells", result.skipped_cells.len() as u64);
    sc.metric_count("invalid_planned", dyn_speed.invalid_planned);
    sc.metric("alpha", policy.alpha);
    sc.metric("beta", policy.beta);
    sc.metric("early_stop_rate", result.early_stop_rate());
    sc.metric("type_i_drift", result.type_i_drift());
    sc.metric("type_ii_drift", result.type_ii_drift());
    sc.metric("reduction_overall", result.reduction_overall());
    sc.metric("reduction_accepted", result.reduction_accepted());
    sc.metric("reduction_rejected", result.reduction_rejected());
    sc.metric("full_static_devices_per_s", static_speed.full_dps);
    sc.metric("seq_static_devices_per_s", static_speed.seq_dps);
    sc.metric("full_dyn_devices_per_s", dyn_speed.full_dps);
    sc.metric("seq_dyn_devices_per_s", dyn_speed.seq_dps);
    let path = sc.csv(
        "seq_fleet.csv",
        &[
            "scenario",
            "compared",
            "latch_exact",
            "early_stops",
            "full_samples",
            "seq_samples",
            "drift_i",
            "drift_ii",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());

    // The gates. Empty sweeps must not read as a pass; drift must stay
    // within the configured budgets — compared as event counts with
    // binomial slack (budget·n + 3·√(budget·n)), since the budgets
    // *price* occasional drift and a single in-budget event must not
    // fail a small smoke run; passing devices must on average decide in
    // less than half the full-sweep samples.
    let good: u64 = result.per_scenario.iter().map(|t| t.full_accepted).sum();
    let bad = result.comparisons - good;
    let drift_i: u64 = result.per_scenario.iter().map(|t| t.drift_i).sum();
    let drift_ii: u64 = result.per_scenario.iter().map(|t| t.drift_ii).sum();
    let allow =
        |budget: f64, n: u64| (budget * n as f64 + 3.0 * (budget * n as f64).sqrt()).ceil() as u64;
    let drift_ok = drift_i <= allow(policy.alpha, good) && drift_ii <= allow(policy.beta, bad);
    let reduction_ok = result.reduction_accepted() >= 2.0;
    let clean = result.comparisons > 0 && result.is_clean() && drift_ok && reduction_ok;
    if clean {
        println!("reading: both backends latch the identical early-stop decision on every");
        println!("device, the sequenced verdicts drift from full-sweep ground truth within");
        println!(
            "the configured budgets (I {drift_i}/{good} vs budget {:.0e}, II {drift_ii}/{bad} \
             vs {:.0e}), and passing",
            policy.alpha, policy.beta
        );
        println!(
            "devices decide {:.1}x sooner — the BIST's cheap-verdict promise, now on a",
            result.reduction_accepted()
        );
        println!("per-sample budget instead of a per-sweep one.");
    } else {
        println!(
            "reading: GATE FAILED — divergences {} / drift I {drift_i}/{good} \
             (allow {}) / drift II {drift_ii}/{bad} (allow {}) / \
             reduction on accepted {:.2}x (≥2x?)",
            result.divergences.len(),
            allow(policy.alpha, good),
            allow(policy.beta, bad),
            result.reduction_accepted()
        );
    }
    clean
}

struct Throughput {
    full_dps: f64,
    seq_dps: f64,
    invalid_planned: u64,
}

/// Full-sweep vs sequenced screening over the paper static batch.
fn static_throughput(
    seed: u64,
    devices: usize,
    workers: usize,
    policy: &SequencerConfig,
) -> Throughput {
    let batch = Batch::paper_simulation(seed ^ 0x5ef1, devices);
    let config = BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(6)
        .build()
        .expect("paper operating point");
    let experiment = Experiment::new(batch, config);
    let full = run_parallel(&experiment, workers);

    let start = Instant::now();
    let counts: Vec<u64> = pool::map_ranges(
        batch.size,
        workers,
        || Screener::new(Workload::static_ramp(config)).sequencer(*policy),
        |screener, from, to| {
            for i in from..to {
                let tf = batch.device(i);
                let out =
                    screener.screen_one(&tf, &mut batch.device_rng(i ^ 0x5eed_0000_0000_0000));
                std::hint::black_box(out.accepted());
            }
            (to - from) as u64
        },
    );
    let seq_elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let screened: u64 = counts.iter().sum();
    Throughput {
        full_dps: full.devices_per_second(),
        seq_dps: screened as f64 / seq_elapsed,
        invalid_planned: 0,
    }
}

/// Full-sweep vs sequenced dynamic screening, including a candidate
/// cell rejected by config validation — its planned devices are merged
/// as `skipped_invalid` and excluded from devices/s (the satellite fix
/// in `bist_mc::experiment` keeps sweeps with and without invalid
/// cells comparable).
fn dynamic_throughput(
    seed: u64,
    devices: usize,
    workers: usize,
    policy: &SequencerConfig,
) -> Throughput {
    let flash =
        FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_width_sigma_lsb(0.16);
    let mut full = DynExperimentResult::default();
    let mut config_for_seq = None;
    // The sweep grid: the paper cell plus an 8-bit Nyquist-folding
    // candidate the fixed-point register audit rejects.
    for (bits, cycles) in [(6u32, 1021u32), (8, 1024)] {
        let resolution = Resolution::new(bits).expect("valid resolution");
        match DynamicConfig::new(resolution, 4096, cycles) {
            Ok(config) => {
                let config = config.with_overdrive(0.0);
                let high = Volts(0.1 * resolution.code_count() as f64);
                let cell_flash =
                    FlashConfig::new(resolution, Volts(0.0), high).with_width_sigma_lsb(0.16);
                let exp = DynExperiment::new(seed ^ 0xd5ef, devices, cell_flash, config);
                full.merge(&exp.run(workers));
                config_for_seq.get_or_insert(config);
            }
            Err(_) => full.merge(&DynExperimentResult::skipped_invalid(devices as u64)),
        }
    }
    let config = config_for_seq.expect("at least one valid cell");

    let start = Instant::now();
    let counts: Vec<u64> = pool::map_ranges(
        devices,
        workers,
        || Screener::new(Workload::dynamic_sine(config)).sequencer(*policy),
        |screener, from, to| {
            for i in from..to {
                let adc = flash.sample(&mut bist_mc::batch::stream_rng(
                    seed ^ 0xd5ef,
                    &[0, i as u64],
                ));
                let out = screener.screen_one(
                    &adc,
                    &mut bist_mc::batch::stream_rng(seed ^ 0xd5ef, &[0xd1e_57a7, i as u64]),
                );
                std::hint::black_box(out.accepted());
            }
            (to - from) as u64
        },
    );
    let seq_elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let screened: u64 = counts.iter().sum();
    Throughput {
        // One valid cell by construction: devices/s covers exactly the
        // screened devices (the invalid cell's planned devices sit in
        // `full.invalid` and move nothing).
        full_dps: full.devices_per_second(),
        seq_dps: screened as f64 / seq_elapsed,
        invalid_planned: full.invalid,
    }
}
