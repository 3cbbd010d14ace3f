//! Property-based tests of the DSP substrate's mathematical invariants.

use bist_dsp::complex::Complex64;
use bist_dsp::fft::fft_in_place;
use bist_dsp::goertzel::{goertzel_bin, GoertzelBank};
use bist_dsp::integrate::{adaptive_simpson, integrate_with_knots};
use bist_dsp::special::{erfc, normal_cdf, normal_quantile};
use bist_dsp::spectrum::{analyze_tone, ToneAnalysisConfig};
use bist_dsp::stats::Running;
use bist_dsp::window::Window;
use proptest::prelude::*;

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0f64..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parseval: time-domain energy equals frequency-domain energy / N.
    #[test]
    fn fft_parseval(xs in arb_signal(128)) {
        let time: f64 = xs.iter().map(|x| x * x).sum();
        let mut data: Vec<Complex64> =
            xs.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut data).expect("128 is a power of two");
        let freq: f64 = data.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((time - freq).abs() < 1e-7 * (1.0 + time));
    }

    /// Goertzel equals the FFT bin for arbitrary signals and bins.
    #[test]
    fn goertzel_equals_fft(xs in arb_signal(64), k in 0usize..64) {
        let mut data: Vec<Complex64> =
            xs.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut data).expect("64 is a power of two");
        let g = goertzel_bin(&xs, k);
        prop_assert!((g - data[k]).abs() < 1e-7 * (1.0 + data[k].abs()));
    }

    /// The streaming Goertzel bank and the materialised FFT analysis
    /// agree to within 1e-9 dB on coherent quantized-sine records, over
    /// random amplitude, phase, fundamental bin and quantizer
    /// resolution — the contract that lets the dynamic verdict path
    /// replace `analyze_tone` sample-for-sample.
    #[test]
    fn goertzel_bank_matches_analyze_tone(
        log_n in 10u32..=12,
        bin_frac in 0.05f64..0.45,
        amplitude in 0.3f64..1.0,
        phase in 0.0f64..std::f64::consts::TAU,
        bits in 4u32..=8,
    ) {
        let n = 1usize << log_n;
        // An odd bin avoids harmonics folding exactly onto the carrier.
        let bin = ((bin_frac * n as f64) as usize) | 1;
        let levels = (1u32 << bits) as f64;
        let record: Vec<f64> = (0..n)
            .map(|i| {
                let v = amplitude
                    * (std::f64::consts::TAU * bin as f64 * i as f64 / n as f64 + phase).sin();
                let code = ((v + 1.0) / 2.0 * levels).floor().clamp(0.0, levels - 1.0);
                (code + 0.5) / levels - 0.5
            })
            .collect();
        let mut bank = GoertzelBank::new(bin, n, 5);
        for &x in &record {
            bank.push(x);
        }
        let stream = bank.powers().metrics();
        let fft = analyze_tone(
            &record,
            &ToneAnalysisConfig { fundamental_bin: Some(bin), ..Default::default() },
        )
        .expect("record length is a power of two");
        prop_assert!(
            (stream.sinad_db - fft.sinad_db).abs() < 1e-9,
            "SINAD {} (stream) vs {} (fft) at n={n} bin={bin} bits={bits}",
            stream.sinad_db, fft.sinad_db
        );
        prop_assert!(
            (stream.thd_db - fft.thd_db).abs() < 1e-9,
            "THD {} (stream) vs {} (fft) at n={n} bin={bin} bits={bits}",
            stream.thd_db, fft.thd_db
        );
        prop_assert!((stream.snr_db - fft.snr_db).abs() < 1e-9);
        prop_assert!((stream.enob - fft.enob).abs() < 1e-9);
    }

    /// Windows are bounded and their coherent gain matches their mean.
    #[test]
    fn window_gain_is_mean(n in 64usize..512) {
        for w in Window::ALL {
            let mean = (0..n).map(|i| w.value(i, n)).sum::<f64>() / n as f64;
            prop_assert!((mean - w.coherent_gain()).abs() < 0.05,
                "{w} at n={n}: mean {mean}");
        }
    }

    /// erf is odd and bounded: erfc stays in [0, 2] and reflects as
    /// erfc(x) + erfc(−x) = 2.
    #[test]
    fn erf_laws(x in -5.0f64..5.0) {
        prop_assert!((0.0..=2.0).contains(&erfc(x)));
        prop_assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12);
    }

    /// The normal quantile inverts the CDF across the full range.
    #[test]
    fn quantile_inverts_cdf(p in 1e-10f64..1.0) {
        prop_assume!(p < 1.0 - 1e-10);
        let z = normal_quantile(p);
        prop_assert!((normal_cdf(z) - p).abs() < 1e-9 * (1.0 + 1.0 / p.min(1.0 - p)));
    }

    /// Integration is additive over subintervals.
    #[test]
    fn integration_additive(a in -2.0f64..0.0, m in 0.0f64..1.0, b in 1.0f64..3.0) {
        let f = |x: f64| (x * 1.7).sin() + 0.3 * x * x;
        let whole = adaptive_simpson(f, a, b, 1e-12);
        let parts = adaptive_simpson(f, a, m, 1e-12) + adaptive_simpson(f, m, b, 1e-12);
        prop_assert!((whole - parts).abs() < 1e-9);
    }

    /// Knots never change the value of a smooth integral.
    #[test]
    fn knots_are_transparent(knots in prop::collection::vec(0.0f64..1.0, 0..6)) {
        let f = |x: f64| (3.0 * x).cos();
        let plain = adaptive_simpson(f, 0.0, 1.0, 1e-12);
        let knotted = integrate_with_knots(f, 0.0, 1.0, &knots, 1e-12);
        prop_assert!((plain - knotted).abs() < 1e-9);
    }

    /// Welford statistics match naive two-pass computation.
    #[test]
    fn running_matches_naive(xs in arb_signal(200)) {
        let r: Running = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (xs.len() - 1) as f64;
        prop_assert!((r.mean() - mean).abs() < 1e-10);
        prop_assert!((r.sample_variance() - var).abs() < 1e-9);
    }

    /// Merging Welford accumulators equals one pass, at any split point.
    #[test]
    fn running_merge_associative(xs in arb_signal(120), split in 1usize..119) {
        let mut a: Running = xs[..split].iter().copied().collect();
        let b: Running = xs[split..].iter().copied().collect();
        a.merge(&b);
        let whole: Running = xs.iter().copied().collect();
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-10);
        prop_assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }
}
