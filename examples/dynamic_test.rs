//! Dynamic testing: §2 notes the BIST capture path also supports
//! "dynamic" tests where THD and noise power are the parameters. This
//! example drives a mismatched flash converter with a full-scale sine
//! and extracts THD/SNR/SINAD/ENOB three ways:
//!
//! 1. coherent FFT analysis of the captured codes,
//! 2. Goertzel bins only (the cheap on-chip-style computation),
//! 3. the streaming dynamic BIST subsystem (`bist_core::dynamic`) —
//!    the production path: no record buffer, pluggable behavioural/RTL
//!    verdict backends, and a pass/fail decision against limits.
//!
//! Run with: `cargo run --release --example dynamic_test`

use bist_adc::flash::FlashConfig;
use bist_adc::sampler::{acquire, SamplingConfig};
use bist_adc::signal::SineWave;
use bist_adc::types::{Resolution, Volts};
use bist_core::backend::RtlBackend;
use bist_core::dynamic::DynamicConfig;
use bist_core::screener::{Screener, Workload};
use bist_dsp::goertzel::goertzel_bin;
use bist_dsp::spectrum::{analyze_tone, fold_bin, ideal_sinad_db, ToneAnalysisConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(77);
    let device = FlashConfig::paper_device().sample(&mut rng);

    // Coherent capture: 4096 samples, 1021 cycles (mutually prime), a
    // slightly over-ranged full-scale sine so every code is exercised.
    let n = 4096usize;
    let fs = 1.0e6;
    let cycles = 1021u32;
    let f_in = SineWave::coherent_frequency(cycles, n, fs);
    let sine = SineWave::new(3.26, f_in, 0.0, Volts(3.2));
    let capture = acquire(&device, &sine, SamplingConfig::new(fs, n));
    let record: Vec<f64> = capture.normalized(Resolution::SIX_BIT.bits()).collect();

    // --- 1. FFT test -----------------------------------------------------
    let analysis = analyze_tone(&record, &ToneAnalysisConfig::default())?;
    println!("FFT test ({} samples, {} cycles):", n, cycles);
    println!("  {analysis}");
    println!(
        "  ideal 6-bit SINAD is {:.1} dB; mismatch costs {:.1} dB",
        ideal_sinad_db(6),
        ideal_sinad_db(6) - analysis.sinad_db
    );

    // --- 2. Goertzel (on-chip flavoured) ----------------------------------
    // Carrier and first four harmonics, six multiplies per sample total —
    // the kind of "simple digital function" the paper advocates.
    let carrier = goertzel_bin(&record, cycles as usize).norm_sqr();
    let mut harmonic_power = 0.0;
    print!("Goertzel harmonic powers:");
    for h in 2..=5 {
        let bin = fold_bin(cycles as usize * h, n);
        let p = goertzel_bin(&record, bin).norm_sqr();
        harmonic_power += p;
        print!(" H{h}: {:.1} dBc;", 10.0 * (p / carrier).log10());
    }
    println!();
    println!(
        "  THD (Goertzel) = {:.1} dB vs FFT {:.1} dB",
        10.0 * (harmonic_power / carrier).log10(),
        analysis.thd_db
    );

    // --- 3. The streaming dynamic BIST subsystem --------------------------
    // Same physics, production path through the one front door: a
    // `Screener` over the dynamic-sine workload streams the sine
    // through the lazy CodeStream into a Goertzel bank — no 4096-sample
    // record is ever materialised — and judges the verdict against
    // limits. Swapping `.backend(RtlBackend::new())` re-judges the
    // identical sweep with the gate-accurate fixed-point DynBistTop,
    // which must reach the identical decision.
    let config = DynamicConfig::paper_default();
    let mut screener = Screener::new(Workload::dynamic_sine(config));
    let behavioral = screener
        .screen_one(&device, &mut StdRng::seed_from_u64(99))
        .as_dynamic()
        .expect("dynamic workload")
        .verdict;
    println!("streaming dynamic BIST ({config}):");
    println!("  behavioral: {behavioral}");
    let mut screener = screener.backend(RtlBackend::new());
    let rtl = screener
        .screen_one(&device, &mut StdRng::seed_from_u64(99))
        .as_dynamic()
        .expect("dynamic workload")
        .verdict;
    println!("  rtl (fixed-point): {rtl}");
    assert_eq!(
        behavioral.checks, rtl.checks,
        "the two verdict backends must reach the same decisions"
    );

    Ok(())
}
