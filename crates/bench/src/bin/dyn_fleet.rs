//! Experiment E13: **dynamic differential fleet validation** of the
//! behavioural↔RTL verdict seam for the §2 dynamic parameters judged
//! with fixed-point gates.
//!
//! Part 1 sweeps both dynamic verdict backends — the behavioural engine
//! fleets run (the streaming Goertzel bank fed from its stimulus table)
//! and the fixed-point `bist_rtl::DynBistTop` — over the same
//! coherent sine code streams for every device × converter resolution
//! (6/8 bit) × mismatch σ (0 / 0.16 / 0.21 LSB) × coherent-bin choice
//! (1021/997 cycles), demanding **decision-exact agreement**: the
//! per-limit pass/fail bits, sample count and completeness expectation
//! must be identical (the raw dB metrics may differ only by the RTL's
//! bounded fixed-point quantisation). **Any divergence fails the run**
//! (exit 1), which the CI smoke step relies on, and so does an empty
//! sweep. The cells are `bist_mc::differential::Cell::Dynamic` cells,
//! labelled `dynamic/…` in the table; the CSV columns carry their
//! fields.
//!
//! Part 2 screens a paper-point population (6-bit, σ = 0.21, 4096
//! samples × 1021 cycles, noiseless) through `Screener::run` on each
//! backend and compares the two device by device: the latch, plus
//! `dyn_decisions_agree`. No Part 1 cell is codable (each carries input
//! noise), so this is the check of the behavioural engine's coded group
//! kernel against RTL; a divergence here fails the run too. Its
//! divergences name the paper point as a `Cell::Dynamic`, and the JSON
//! record counts them as `fleet_divergences` of `fleet_devices`, next
//! to Part 1's `comparisons`/`divergences`. The RTL path's speed is
//! fleetbench's to measure (`rtl.*.devices_per_s`).
//!
//! Knobs: `BIST_DEVICES` (default 1000 → 12 000 device×scenario
//! comparisons), `BIST_WORKERS`.

use bist_adc::flash::FlashConfig;
use bist_adc::types::{Resolution, Volts};
use bist_bench::{report_divergences, Scenario, SEED};
use bist_core::backend::RtlBackend;
use bist_core::dynamic::DynamicConfig;
use bist_core::report::Table;
use bist_core::screener::{Screener, Workload};
use bist_core::source::{DeviceSource, SourceSpec};
use bist_mc::batch::stream_rng;
use bist_mc::differential::{backends_agree, run_dyn_differential, Cell, Divergence};

/// RNG-stream salt decorrelating the fleet's acquisition noise from its
/// device generation.
const ACQUISITION_SALT: u64 = 0xd1e_57a7;

fn main() {
    let mut clean = true;
    Scenario::run("dyn_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("dyn_fleet: behavioural↔RTL dynamic divergence detected — failing the run");
        std::process::exit(1);
    }
}

fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 1000);
    let workers = sc.workers();

    // --- Part 1: the dynamic differential sweep ---------------------
    let result = run_dyn_differential(SEED, devices, workers);
    println!("dynamic sweep  {result}");

    let mut table = Table::new(&["scenario", "compared", "decision-exact", "accepted"])
        .with_title("E13 differential: Goertzel bank vs fixed-point DynBistTop");
    let mut csv = Vec::new();
    for tally in &result.per_scenario {
        let Cell::Dynamic {
            resolution_bits,
            sigma_milli_lsb,
            cycles,
        } = tally.scenario
        else {
            unreachable!("the dynamic grid holds only dynamic cells")
        };
        table.row_owned(vec![
            tally.scenario.to_string(),
            tally.comparisons.to_string(),
            tally.agreements.to_string(),
            tally.full_accepted.to_string(),
        ]);
        csv.push(vec![
            resolution_bits.to_string(),
            format!("0.{sigma_milli_lsb:03}"),
            cycles.to_string(),
            tally.comparisons.to_string(),
            tally.agreements.to_string(),
            tally.full_accepted.to_string(),
        ]);
    }
    println!("{table}");
    report_divergences(&result.divergences, "");

    // --- Part 2: the coded fleet, backend vs backend, device by device
    let source = SourceSpec::from(
        FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4)).with_width_sigma_lsb(0.21),
    );
    let fleet = || {
        (0..devices as u64).map(move |i| {
            let adc = source.sample_transfer(&mut stream_rng(SEED, &[0, i]));
            (adc, stream_rng(SEED, &[ACQUISITION_SALT, i]))
        })
    };
    let workload = Workload::dynamic_sine(DynamicConfig::paper_default());
    let behavioral = Screener::new(workload).workers(workers).run(fleet());
    let rtl = Screener::new(workload)
        .backend(RtlBackend::new())
        .workers(workers)
        .run(fleet());
    let paper_point = Cell::Dynamic {
        resolution_bits: 6,
        sigma_milli_lsb: 210,
        cycles: 1021,
    };
    let fleet_divergences: Vec<_> = behavioral
        .iter()
        .zip(&rtl)
        .filter(|(b, r)| !backends_agree(&b.verdict, &r.verdict))
        .map(|(b, r)| Divergence {
            device: b.device,
            scenario: paper_point,
            behavioral: b.verdict,
            rtl: r.verdict,
        })
        .collect();
    let accepted = behavioral.iter().filter(|r| r.verdict.accepted()).count();
    let acceptance_rate = accepted as f64 / devices.max(1) as f64;
    println!(
        "fleet ({paper_point}, {devices} devices): {}/{devices} decision-exact; acceptance {:.1}%",
        devices - fleet_divergences.len(),
        100.0 * acceptance_rate,
    );
    report_divergences(&fleet_divergences, "fleet");

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", result.comparisons);
    sc.metric_count("divergences", result.divergences.len() as u64);
    sc.metric("agreement_rate", result.agreement_rate());
    sc.metric_count("fleet_devices", devices as u64);
    sc.metric_count("fleet_divergences", fleet_divergences.len() as u64);
    sc.metric("acceptance_rate", acceptance_rate);
    let path = sc.csv(
        "dyn_fleet.csv",
        &[
            "resolution_bits",
            "sigma_lsb",
            "cycles",
            "compared",
            "decision_exact",
            "accepted",
        ],
        &csv,
    );
    eprintln!("wrote {}", path.display());
    let clean = result.is_clean() && fleet_divergences.is_empty();
    if clean {
        println!("reading: the fixed-point dynamic datapath reaches the identical accept/reject");
        println!("decision on every device — §2's THD/noise-power test runs on-chip with \"simple");
        println!("digital functions\" and no loss of verdict fidelity.");
    } else {
        println!("reading: behavioural and RTL dynamic verdicts DIVERGED — see above.");
    }
    clean
}
