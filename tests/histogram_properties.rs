//! Integration: property-based checks that the histogram (code-density)
//! estimators recover the true static metrics of arbitrary transfer
//! functions — the foundation the reference measurement stands on.

use bist_adc::histogram::{ramp_linearity, CodeHistogram};
use bist_adc::metrics::{dnl, inl_from_dnl};
use bist_adc::sampler::SamplingConfig;
use bist_adc::signal::Ramp;
use bist_adc::stream::CodeStream;
use bist_adc::transfer::TransferFunction;
use bist_adc::types::{Resolution, Volts};
use proptest::prelude::*;

/// Strategy: a random 5-bit transfer function with widths in
/// [0.4, 1.6] LSB, normalised to mean width 1 (no missing codes; the
/// histogram test is *self-referencing* — DNL against the average code
/// width — so a common-mode gain error is invisible to it by design and
/// must be excluded for a sharp comparison against ideal-LSB DNL).
fn arb_transfer() -> impl Strategy<Value = TransferFunction> {
    prop::collection::vec(0.4f64..1.6, 30).prop_map(|mut widths| {
        let mean: f64 = widths.iter().sum::<f64>() / widths.len() as f64;
        for w in &mut widths {
            *w /= mean;
        }
        let res = Resolution::new(5).expect("5 bits is valid");
        let q = 0.1;
        let mut t = vec![q];
        for w in widths {
            let prev = *t.last().expect("non-empty");
            t.push(prev + w * q);
        }
        TransferFunction::from_transitions(res, Volts(0.0), Volts(3.2), t)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The ramp histogram recovers each inner-code DNL to within the
    /// count quantisation at ~200 samples/code.
    #[test]
    fn ramp_histogram_recovers_dnl(tf in arb_transfer()) {
        let samples_per_code = 200.0;
        let slope = 0.1 / samples_per_code * 1.0e6;
        let ramp = Ramp::new(Volts(-0.05), slope);
        let codes = CodeStream::noiseless(&tf, &ramp, SamplingConfig::new(1.0e6, (3.4 / slope * 1.0e6) as usize));
        let hist = CodeHistogram::from_codes(tf.resolution(), codes);
        let est = ramp_linearity(&hist).expect("full coverage");
        let truth = dnl(&tf);
        prop_assert_eq!(est.dnl.len(), truth.len());
        for (k, (e, t)) in est.dnl.iter().zip(&truth).enumerate() {
            // Mean-normalisation introduces a small common-mode shift;
            // allow quantisation + that shift.
            prop_assert!(
                (e.0 - t.0).abs() < 0.05,
                "code {}: est {} vs truth {}", k + 1, e.0, t.0
            );
        }
    }

    /// Accumulated-DNL INL from the histogram tracks the true INL.
    #[test]
    fn ramp_histogram_recovers_inl(tf in arb_transfer()) {
        let slope = 0.1 / 200.0 * 1.0e6;
        let ramp = Ramp::new(Volts(-0.05), slope);
        let codes = CodeStream::noiseless(&tf, &ramp, SamplingConfig::new(1.0e6, (3.4 / slope * 1.0e6) as usize));
        let hist = CodeHistogram::from_codes(tf.resolution(), codes);
        let est = ramp_linearity(&hist).expect("full coverage");
        let truth = inl_from_dnl(&dnl(&tf));
        for (k, (e, t)) in est.inl.iter().zip(&truth).enumerate() {
            prop_assert!(
                (e.0 - t.0).abs() < 0.3,
                "boundary {}: est {} vs truth {}", k + 1, e.0, t.0
            );
        }
    }

    /// Histograms of a monotone capture never place samples on a code
    /// whose true width is zero.
    #[test]
    fn histogram_total_equals_samples(tf in arb_transfer()) {
        let ramp = Ramp::new(Volts(-0.05), 100.0);
        let codes = CodeStream::noiseless(&tf, &ramp, SamplingConfig::new(1.0e6, 40_000));
        let hist = CodeHistogram::from_codes(tf.resolution(), codes);
        prop_assert_eq!(hist.counts().iter().sum::<u64>(), 40_000u64);
    }
}
