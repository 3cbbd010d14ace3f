//! Integration: the dynamic verdict path across all three layers — the
//! behavioural Goertzel bank (`bist-dsp`), the streaming subsystem and
//! backend seam (`bist-core`) and the fixed-point datapath
//! (`bist-rtl`) — must agree on real converter captures.
//!
//! Two contracts are pinned, property-based over random devices,
//! resolutions, mismatch levels and coherent-bin choices:
//!
//! * **Quantisation bound** — the fixed-point `DynBistTop` bin powers
//!   track the `f64` Goertzel bank to better than 1e-8 relative
//!   (carrier-referenced), i.e. micro-dB on every metric: the Q.30
//!   datapath is precise enough that no realistic limit can sit inside
//!   its error band.
//! * **Decision exactness** — judged through the backend seam, the
//!   behavioural and RTL verdicts reach identical per-limit decisions,
//!   sample counts and completeness on bit-identical code streams.
//!
//! A third, deterministic test pins the whole streaming verdict to the
//! materialised FFT analysis (`analyze_tone`) of the same capture.

use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::Adc as _;
use bist_adc::types::{Resolution, Volts};
use bist_core::backend::{BehavioralBackend, RtlBackend};
use bist_core::dynamic::{plan_sine, DynScratch, DynamicConfig};
use bist_core::screener::{Screener, Workload};
use bist_dsp::goertzel::GoertzelBank;
use bist_dsp::spectrum::{analyze_tone, ToneAnalysisConfig};
use bist_rtl::dyn_top::{DynBistTop, DynBistTopConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A mismatched flash device at the given resolution (0.1 V/LSB, like
/// the seed's 6-bit vehicle).
fn flash_device(bits: u32, sigma: f64, seed: u64) -> bist_adc::transfer::TransferFunction {
    let resolution = Resolution::new(bits).expect("test resolutions are valid");
    let high = Volts(0.1 * resolution.code_count() as f64);
    FlashConfig::new(resolution, Volts(0.0), high)
        .with_width_sigma_lsb(sigma)
        .sample(&mut StdRng::seed_from_u64(seed))
        .transfer()
        .expect("flash states its transfer")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fixed-point quantisation bound: on the identical code record,
    /// every power the RTL datapath reports stays within 1e-8
    /// (carrier-referenced) of the float bank, and the exact integer
    /// side channels match the float moments to representation error.
    #[test]
    fn fixed_point_powers_track_float_bank(
        bits in 5u32..=8,
        sigma_milli in 0u32..300,
        cycles_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cycles = [1021u32, 997, 509][cycles_ix];
        let n = 4096usize;
        let adc = flash_device(bits, sigma_milli as f64 / 1000.0, seed);
        let config = DynamicConfig::new(Resolution::new(bits).unwrap(), n, cycles)
            .unwrap()
            .with_overdrive(0.0);
        let (sine, sampling) = plan_sine(&adc, &config);
        let codes: Vec<_> = CodeStream::noiseless(&adc, &sine, sampling).collect();

        // Fixed-point datapath on the raw codes.
        let mut top = DynBistTop::new(DynBistTopConfig {
            adc_bits: bits,
            record_len: n,
            fundamental_bin: cycles as usize,
            harmonics: 5,
        });
        for &c in &codes {
            top.tick(u64::from(c.0));
        }
        for _ in 0..DynBistTop::DRAIN_TICKS {
            top.drain_tick();
        }
        let report = top.report();
        prop_assert!(report.complete);

        // Float bank on the same samples, in the RTL's half-LSB units.
        let mut bank = GoertzelBank::new(cycles as usize, n, 5);
        let offset = 1i64 << bits;
        for &c in &codes {
            bank.push((2 * i64::from(c.0) + 1 - offset) as f64);
        }
        let p = bank.powers();

        let tol = 1e-8 * p.carrier;
        prop_assert!(
            (report.carrier_power - p.carrier).abs() < tol,
            "carrier {} (rtl) vs {} (bank), bits {bits} σ 0.{sigma_milli:03} bin {cycles}",
            report.carrier_power, p.carrier
        );
        prop_assert!(
            (report.harmonic_power_by_order - p.harmonics_by_order).abs() < tol,
            "harmonics {} (rtl) vs {} (bank)",
            report.harmonic_power_by_order, p.harmonics_by_order
        );
        prop_assert!(
            (report.harmonic_power_distinct - p.harmonics_distinct).abs() < tol
        );
        // The integer side channels are exact; the float moments only
        // carry representation error.
        let mean = report.sum_half_lsb as f64 / n as f64;
        prop_assert!((mean * mean - p.dc).abs() < 1e-9 * (1.0 + p.dc));
        let total = report.sum_sq_half_lsb2 as f64 / n as f64;
        prop_assert!((total - p.total).abs() < 1e-9 * (1.0 + p.total));
    }

    /// Backend seam: behavioural and RTL dynamic verdicts reach the
    /// identical decisions (and micro-dB-close metrics) on random
    /// devices through the full stimulus→stream→verdict pipeline,
    /// noise included.
    #[test]
    fn backends_reach_identical_decisions(
        bits in 5u32..=8,
        sigma_milli in 0u32..300,
        noise_milli in 0u32..5,
        seed in 0u64..1000,
    ) {
        let adc = flash_device(bits, sigma_milli as f64 / 1000.0, seed);
        let config = DynamicConfig::new(Resolution::new(bits).unwrap(), 4096, 1021)
            .unwrap()
            .with_overdrive(0.0);
        let noise = NoiseConfig::noiseless().with_input_noise(noise_milli as f64 / 1000.0);
        let workload = Workload::dynamic_sine(config).with_noise(noise);
        let behavioral = Screener::new(workload)
            .screen_one(&adc, &mut StdRng::seed_from_u64(seed ^ 0xABCD))
            .as_dynamic()
            .expect("dynamic workload")
            .verdict;
        let rtl = Screener::new(workload)
            .backend(RtlBackend::new())
            .screen_one(&adc, &mut StdRng::seed_from_u64(seed ^ 0xABCD))
            .as_dynamic()
            .expect("dynamic workload")
            .verdict;
        prop_assert_eq!(behavioral.checks, rtl.checks);
        prop_assert_eq!(behavioral.samples, rtl.samples);
        prop_assert_eq!(behavioral.expected_samples, rtl.expected_samples);
        // Metric error bounds: a carrier-referenced power error ε ≈ 1e-9
        // amplifies to ≈ 4.3·ε·10^(SINAD/10) dB on SINAD (the
        // noise-and-distortion band is the small difference of large
        // numbers), ~1e-4 dB at the highest SINAD this sweep produces —
        // still micro-dB against any realistic limit placement.
        prop_assert!(
            (behavioral.sinad_db - rtl.sinad_db).abs() < 1e-3,
            "sinad {} vs {}", behavioral.sinad_db, rtl.sinad_db
        );
        prop_assert!(
            (behavioral.thd_db - rtl.thd_db).abs() < 5e-2,
            "thd {} vs {}", behavioral.thd_db, rtl.thd_db
        );
        prop_assert!(
            (behavioral.noise_power_lsb2 - rtl.noise_power_lsb2).abs()
                < 1e-4 * (1.0 + behavioral.noise_power_lsb2),
            "noise {} vs {}", behavioral.noise_power_lsb2, rtl.noise_power_lsb2
        );
    }
}

/// The truncated-record contract holds identically across the seam: a
/// stream that ends early is INCOMPLETE (never judged valid) on both
/// backends, with matching sample counts.
#[test]
fn truncated_records_incomplete_on_both_backends() {
    use bist_core::backend::Backend;
    let adc = flash_device(6, 0.16, 7);
    let config = DynamicConfig::paper_default();
    let (sine, sampling) = plan_sine(&adc, &config);
    let mut scratch = DynScratch::new();
    for keep in [0usize, 1, 4095] {
        let codes = || CodeStream::noiseless(&adc, &sine, sampling).take(keep);
        let b = BehavioralBackend
            .judge_dyn(&config, None, codes(), &mut scratch)
            .verdict;
        let r = RtlBackend::new()
            .judge_dyn(&config, None, codes(), &mut scratch)
            .verdict;
        assert!(!b.complete() && !b.accepted(), "keep {keep}: {b}");
        assert_eq!(b.checks, r.checks, "keep {keep}");
        assert_eq!(b.samples, keep as u64);
        assert_eq!(r.samples, keep as u64);
    }
}

/// The whole streaming verdict agrees with the materialised FFT: on
/// noiseless paper flash devices at σ_w 0, 0.16 and 0.21 LSB,
/// `judge_dyn`'s SINAD and THD match `analyze_tone` on the identical
/// capture to 1e-6 dB.
#[test]
fn streaming_verdict_matches_materialised_fft() {
    use bist_core::backend::Backend;
    let config = DynamicConfig::paper_default();
    let fft_config = ToneAnalysisConfig {
        fundamental_bin: Some(config.cycles() as usize),
        ..Default::default()
    };
    let mut scratch = DynScratch::new();
    for sigma in [0.0, 0.16, 0.21] {
        let flash = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(sigma);
        for seed in 0..4u64 {
            let adc = flash.sample(&mut StdRng::seed_from_u64(seed));
            let (sine, sampling) = plan_sine(&adc, &config);
            let codes = || CodeStream::noiseless(&adc, &sine, sampling);
            let verdict = BehavioralBackend
                .judge_dyn(&config, None, codes(), &mut scratch)
                .verdict;
            let record: Vec<f64> = codes()
                .capture()
                .normalized(config.resolution().bits())
                .collect();
            let fft = analyze_tone(&record, &fft_config)
                .expect("coherent record length is a power of two");
            assert!(
                (fft.sinad_db - verdict.sinad_db).abs() < 1e-6,
                "σ {sigma} seed {seed}: SINAD {} (fft) vs {} (stream)",
                fft.sinad_db,
                verdict.sinad_db
            );
            assert!(
                (fft.thd_db - verdict.thd_db).abs() < 1e-6,
                "σ {sigma} seed {seed}: THD {} (fft) vs {} (stream)",
                fft.thd_db,
                verdict.thd_db
            );
        }
    }
}
