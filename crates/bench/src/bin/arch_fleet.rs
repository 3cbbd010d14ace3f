//! Experiment E17: **architecture-zoo fleet validation** — the
//! `DeviceSource` seam across flash, iid-width, SAR and pipeline
//! silicon, plus the per-architecture priors loop, gated end to end.
//!
//! Part 1 runs `bist_mc::differential::run_arch_differential`: every
//! zoo paper preset × counter width, three runs per device × cell on
//! bit-identical streams — the full behavioural sweep (ground truth),
//! the sequenced behavioural path and the sequenced gate-accurate RTL
//! path. The two sequenced backends must latch **identical decisions
//! at identical sample indices** for every architecture (any
//! divergence exits 1): the paper's architecture-agnostic claim,
//! checked at the gate level.
//!
//! Part 2 screens one mixed zoo fleet (the architectures interleaved
//! by the zoo's seeded deal) through the sequenced pooled engine at 1
//! and 4 workers and demands bit-identical reports — which worker (or
//! architecture) a device lands on may never change its verdict. An
//! FNV-1a checksum over the reports is emitted as `report_checksum`
//! so two runs at different `BIST_WORKERS` can be diffed from their
//! JSON records alone.
//!
//! Part 3 closes the priors loop: the part-1 tallies seed a
//! `bist_core::priors::PriorsBank`, and held-out per-architecture
//! fleets are screened under the base policy vs the bank's
//! architecture-conditioned policy. Gates: the tuned policy must
//! reduce mean samples-to-decision on **at least one** architecture,
//! and on **every** architecture its drift from full-sweep ground
//! truth must stay within a binomial allowance of the base policy's —
//! priors tighten the schedule, never the error budgets. Per-tuned-run
//! `<arch>_devices_per_s` figures feed the committed baseline gate.
//!
//! Knobs: `BIST_DEVICES` (differential devices, default 64),
//! `BIST_ZOO_DEVICES` (mixed fleet, default 200), `BIST_EVAL_DEVICES`
//! (held-out per-arch fleets, default 150), `BIST_SEED`,
//! `BIST_WORKERS`.

use bist_adc::spec::LinearitySpec;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::Resolution;
use bist_bench::{report_divergences, Fnv, Scenario};
use bist_core::config::BistConfig;
use bist_core::priors::PriorsBank;
use bist_core::report::Table;
use bist_core::screener::{ScreenVerdict, Screener, Workload};
use bist_core::sequencer::SequencerConfig;
use bist_core::source::{Architecture, SourceSpec, Zoo};
use bist_mc::batch::Batch;
use bist_mc::differential::run_arch_differential;
use std::time::Instant;

/// Held-out evaluation fleets draw from a different seed space than
/// the calibration sweep.
const EVAL_SEED_XOR: u64 = 0xa5c4_f1ee;
/// Noise-stream salt of the evaluation fleets.
const EVAL_NOISE_SALT: usize = 0x0a5c_0000_0000_0000;

fn main() {
    let mut clean = true;
    Scenario::run("arch_fleet", |sc| clean = run(sc));
    if !clean {
        eprintln!("arch_fleet: divergence, worker-determinism or priors gate failed");
        std::process::exit(1);
    }
}

fn eval_config() -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(5)
        .build()
        .expect("paper operating point")
}

/// Accumulated outcome of one sequenced screening pass.
struct Pass {
    accepted: Vec<bool>,
    samples: u64,
    early_stops: u64,
    elapsed: f64,
}

fn sequenced_pass(policy: SequencerConfig, fleet: &[TransferFunction], batch: &Batch) -> Pass {
    let start = Instant::now();
    let reports = Screener::new(Workload::static_ramp(eval_config()))
        .sequencer(policy)
        .run(
            fleet
                .iter()
                .enumerate()
                .map(|(i, tf)| (tf, batch.device_rng(i ^ EVAL_NOISE_SALT))),
        );
    let elapsed = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        accepted: Vec::with_capacity(fleet.len()),
        samples: 0,
        early_stops: 0,
        elapsed,
    };
    for r in &reports {
        let o = r.verdict.as_static().expect("static workload");
        pass.accepted.push(o.accepted());
        pass.samples += o.samples_consumed();
        pass.early_stops += u64::from(o.decision.stops());
    }
    pass
}

// bist-lint: hot-path — drift scoring over a full fleet: pure counting, no allocation
fn drift_counts(truth: &[bool], verdicts: &[bool]) -> (u64, u64, u64) {
    let mut good = 0u64;
    let mut drift_i = 0u64;
    let mut drift_ii = 0u64;
    for (&t, &v) in truth.iter().zip(verdicts) {
        good += u64::from(t);
        drift_i += u64::from(t && !v);
        drift_ii += u64::from(!t && v);
    }
    (good, drift_i, drift_ii)
}

#[allow(clippy::too_many_lines)]
fn run(sc: &mut Scenario) -> bool {
    let devices = sc.usize_knob("BIST_DEVICES", 64);
    let zoo_devices = sc.usize_knob("BIST_ZOO_DEVICES", 200);
    let eval_devices = sc.usize_knob("BIST_EVAL_DEVICES", 150);
    let seed = sc.seed();
    let workers = sc.workers();
    let policy = SequencerConfig::default();

    // --- Part 1: per-architecture differential ----------------------
    let diff = run_arch_differential(seed, &policy, devices, workers);
    println!("arch differential  {diff}");
    let mut table = Table::new(&[
        "cell",
        "compared",
        "latch-exact",
        "early-stop %",
        "samp/dev full",
        "samp/dev seq",
        "drift I",
        "drift II",
    ])
    .with_title("E17 per-architecture differential: every architecture, both backends");
    let mut csv = Vec::new();
    for t in &diff.per_scenario {
        let n = t.comparisons.max(1);
        table.row_owned(vec![
            t.scenario.to_string(),
            t.comparisons.to_string(),
            t.agreements.to_string(),
            format!("{:.0}", 100.0 * t.early_stops as f64 / n as f64),
            format!("{:.0}", t.full_samples as f64 / n as f64),
            format!("{:.0}", t.seq_samples as f64 / n as f64),
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
    report_divergences(&diff.divergences, "");

    // --- Part 2: mixed-zoo worker determinism -----------------------
    let zoo = Zoo::paper().with_seed(seed);
    let census = zoo.census(zoo_devices);
    println!(
        "mixed fleet of {zoo_devices}: census flash {} / iid {} / sar {} / pipeline {}",
        census[0], census[1], census[2], census[3]
    );
    let zoo_run = |w: usize| {
        Screener::new(Workload::static_ramp(eval_config()))
            .sequencer(policy)
            .workers(w)
            .run(zoo.fleet(zoo_devices))
            .into_iter()
            .map(|r| (r.device, r.verdict))
            .collect::<Vec<(usize, ScreenVerdict)>>()
    };
    let start = Instant::now();
    let w1 = zoo_run(1);
    let zoo_elapsed = start.elapsed().as_secs_f64();
    let w4 = zoo_run(4);
    let workers_identical = w1 == w4;
    if !workers_identical {
        println!("DIVERGENCE mixed-zoo reports differ between 1 and 4 workers");
    }
    let mut checksum = Fnv::default();
    checksum.fold_reports(&w1);

    // --- Part 3: the priors loop ------------------------------------
    let mut bank = PriorsBank::new(policy);
    diff.seed_priors(&mut bank);
    println!("{bank}");

    let mut improved = 0u32;
    let mut drift_ok = true;
    let allow =
        |budget: f64, n: u64| (budget * n as f64 + 3.0 * (budget * n as f64).sqrt()).ceil() as u64;
    let mut prior_table = Table::new(&[
        "arch",
        "yield",
        "samp/dev base",
        "samp/dev tuned",
        "saving",
        "drift I b/t",
        "drift II b/t",
        "tuned dev/s",
    ])
    .with_title("E17 priors: held-out fleets, base vs architecture-conditioned policy");
    for source in [
        SourceSpec::paper_flash(),
        SourceSpec::paper_iid(),
        SourceSpec::paper_sar(),
        SourceSpec::paper_pipeline(),
    ] {
        let arch = source_arch(source);
        let batch = Batch::of(source)
            .seed(seed ^ EVAL_SEED_XOR)
            .size(eval_devices);
        let fleet: Vec<TransferFunction> = (0..eval_devices).map(|i| batch.device(i)).collect();
        // Full-sweep ground truth (no sequencer), same noise streams.
        let truth: Vec<bool> = Screener::new(Workload::static_ramp(eval_config()))
            .run(
                fleet
                    .iter()
                    .enumerate()
                    .map(|(i, tf)| (tf, batch.device_rng(i ^ EVAL_NOISE_SALT))),
            )
            .into_iter()
            .map(|r| r.verdict.accepted())
            .collect();
        let base = sequenced_pass(policy, &fleet, &batch);
        let tuned_policy = bank.policy_for(arch);
        let tuned = sequenced_pass(tuned_policy, &fleet, &batch);

        let (good, base_i, base_ii) = drift_counts(&truth, &base.accepted);
        let (_, tuned_i, tuned_ii) = drift_counts(&truth, &tuned.accepted);
        let bad = eval_devices as u64 - good;
        let arch_drift_ok = tuned_i <= base_i + allow(policy.alpha, good)
            && tuned_ii <= base_ii + allow(policy.beta, bad);
        drift_ok &= arch_drift_ok;
        let base_mean = base.samples as f64 / eval_devices as f64;
        let tuned_mean = tuned.samples as f64 / eval_devices as f64;
        if tuned.samples < base.samples {
            improved += 1;
        }
        let dps = eval_devices as f64 / tuned.elapsed.max(1e-9);
        prior_table.row_owned(vec![
            arch.label().to_string(),
            format!("{:.2}", good as f64 / eval_devices as f64),
            format!("{base_mean:.0}"),
            format!("{tuned_mean:.0}"),
            format!("{:+.1}%", 100.0 * (tuned_mean - base_mean) / base_mean),
            format!("{base_i}/{tuned_i}"),
            format!("{base_ii}/{tuned_ii}"),
            format!("{dps:.0}"),
        ]);
        if !arch_drift_ok {
            println!(
                "DRIFT {}: tuned policy drifts past the base allowance \
                 (I {base_i}->{tuned_i}, II {base_ii}->{tuned_ii})",
                arch.label()
            );
        }
        let label = arch.label();
        sc.metric(&format!("{label}_base_mean_samples"), base_mean);
        sc.metric(&format!("{label}_tuned_mean_samples"), tuned_mean);
        sc.metric_count(&format!("{label}_tuned_drift_i"), tuned_i);
        sc.metric_count(&format!("{label}_tuned_drift_ii"), tuned_ii);
        sc.metric(&format!("{label}_devices_per_s"), dps);
        sc.metric(
            &format!("{label}_early_stop_rate"),
            tuned.early_stops as f64 / eval_devices as f64,
        );
    }
    println!("{prior_table}");

    sc.metric_count("devices", devices as u64);
    sc.metric_count("comparisons", diff.comparisons);
    sc.metric_count("divergences", diff.divergences.len() as u64);
    sc.metric("early_stop_rate", diff.early_stop_rate());
    sc.metric("type_i_drift", diff.type_i_drift());
    sc.metric("type_ii_drift", diff.type_ii_drift());
    sc.metric_count("priors_improved_archs", u64::from(improved));
    sc.metric_count("workers_identical", u64::from(workers_identical));
    sc.metric_count("report_checksum", checksum.finish());
    sc.metric(
        "zoo_devices_per_s",
        zoo_devices as f64 / zoo_elapsed.max(1e-9),
    );
    let path = sc.csv(
        "arch_fleet.csv",
        &[
            "cell",
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

    let clean =
        diff.comparisons > 0 && diff.is_clean() && workers_identical && improved >= 1 && drift_ok;
    if clean {
        println!("reading: every architecture in the zoo latches the identical early-stop");
        println!("decision on both backends, the mixed fleet's reports are invariant in the");
        println!(
            "worker count, and the priors bank buys a samples-to-decision saving on \
             {improved}/4"
        );
        println!("architectures without spending any extra type I/II drift — the sequencer's");
        println!("schedule now bends to the silicon, its budgets do not.");
    } else {
        println!(
            "FAIL: clean={} workers_identical={workers_identical} improved={improved} \
             drift_ok={drift_ok}",
            diff.is_clean()
        );
    }
    clean
}

fn source_arch(source: SourceSpec) -> Architecture {
    use bist_core::source::DeviceSource;
    source.architecture()
}
