//! Property tests of the early-stop sequencer: backend
//! decision-exactness under the visibility protocol, the min-samples /
//! checkpoint-lattice invariants, and the empirical type I/II drift
//! budgets on seeded fleets drawn from the process model the
//! statistical rules are calibrated against.

use bist_adc::flash::FlashConfig;
use bist_adc::noise::NoiseConfig;
use bist_adc::spec::LinearitySpec;
use bist_adc::types::{Resolution, Volts};
use bist_adc::Adc;
use bist_core::backend::{Backend, BehavioralBackend, RtlBackend};
use bist_core::config::BistConfig;
use bist_core::dynamic::{DynamicConfig, DynamicVerdict};
use bist_core::harness::BistVerdict;
use bist_core::screener::{Screener, Workload};
use bist_core::sequencer::{SeqDecision, SeqOutcome, SequencerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn static_config(counter_bits: u32, deglitch: bool) -> BistConfig {
    BistConfig::builder(Resolution::SIX_BIT, LinearitySpec::paper_stringent())
        .counter_bits(counter_bits)
        .deglitch(deglitch)
        .build()
        .expect("paper operating points are valid")
}

/// One sequenced static sweep through the `Screener` front door with an
/// explicit backend — the narrowest harness for latch-point equivalence.
fn seq_static<B: Backend>(
    backend: B,
    adc: &impl Adc,
    config: &BistConfig,
    policy: SequencerConfig,
    noise: &NoiseConfig,
    seed: u64,
) -> SeqOutcome<BistVerdict> {
    let mut screener = Screener::new(Workload::static_ramp(*config).with_noise(*noise))
        .backend(backend)
        .sequencer(policy);
    *screener
        .screen_one(adc, &mut StdRng::seed_from_u64(seed))
        .as_static()
        .expect("static workload")
}

/// The unsequenced full static sweep the early stops are drifted against.
fn full_static(adc: &impl Adc, config: &BistConfig, noise: &NoiseConfig, seed: u64) -> BistVerdict {
    let mut screener = Screener::new(Workload::static_ramp(*config).with_noise(*noise));
    screener
        .screen_one(adc, &mut StdRng::seed_from_u64(seed))
        .as_static()
        .expect("static workload")
        .verdict
}

/// [`seq_static`]'s dynamic-record counterpart.
fn seq_dyn<B: Backend>(
    backend: B,
    adc: &impl Adc,
    config: &DynamicConfig,
    policy: SequencerConfig,
    noise: &NoiseConfig,
    seed: u64,
) -> SeqOutcome<DynamicVerdict> {
    let mut screener = Screener::new(Workload::dynamic_sine(*config).with_noise(*noise))
        .backend(backend)
        .sequencer(policy);
    *screener
        .screen_one(adc, &mut StdRng::seed_from_u64(seed))
        .as_dynamic()
        .expect("dynamic workload")
}

/// Asserts an early decision respects the policy's lattice: no stop
/// before `min_samples`, and every stop on a checkpoint.
fn assert_on_lattice(decision: SeqDecision, policy: &SequencerConfig, dynamic: bool) {
    if let SeqDecision::AcceptEarly(at) | SeqDecision::RejectEarly(at) = decision {
        assert!(
            at >= policy.min_samples,
            "decision at {at} violates min_samples {}",
            policy.min_samples
        );
        let anchor = if dynamic {
            // Dynamic checkpoints land on block boundaries.
            0
        } else {
            policy.min_samples
        };
        assert_eq!(
            (at - anchor) % policy.check_interval,
            0,
            "decision at {at} off the checkpoint lattice"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random flash devices, counter widths, deglitch and noise: both
    /// sequenced backends latch the identical decision at the identical
    /// sample index with identical verdict counters, and the policy's
    /// min-samples floor and checkpoint lattice are never violated.
    #[test]
    fn sequenced_backends_latch_identically_static(
        seed in 0u64..1_000_000,
        counter_bits in 4u32..=7,
        deglitch in any::<bool>(),
        noisy in any::<bool>(),
        min_samples in 64u64..512,
        check_interval in 16u64..128,
    ) {
        let config = static_config(counter_bits, deglitch);
        let policy = SequencerConfig {
            min_samples,
            check_interval,
            ..Default::default()
        };
        let noise = if noisy {
            NoiseConfig::noiseless().with_transition_noise(0.004)
        } else {
            NoiseConfig::noiseless()
        };
        let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(seed));
        let b = seq_static(BehavioralBackend, &adc, &config, policy, &noise, seed ^ 0xabc);
        let r = seq_static(RtlBackend::new(), &adc, &config, policy, &noise, seed ^ 0xabc);
        prop_assert_eq!(b.decision, r.decision);
        prop_assert_eq!(b.verdict, r.verdict);
        prop_assert_eq!(b.accepted(), r.accepted());
        assert_on_lattice(b.decision, &policy, false);
    }

    /// Same contract on the dynamic workload: the sequencer owns its
    /// statistic, so the decision is backend-independent, and on an
    /// early stop both backends report the same consumed-sample count.
    #[test]
    fn sequenced_backends_latch_identically_dynamic(
        seed in 0u64..1_000_000,
        sigma_milli in 0u32..300,
        min_samples in 128u64..768,
    ) {
        let config = DynamicConfig::paper_default();
        let policy = SequencerConfig {
            min_samples,
            check_interval: 64,
            ..Default::default()
        };
        let adc = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(sigma_milli as f64 / 1000.0)
            .sample(&mut StdRng::seed_from_u64(seed));
        let noise = NoiseConfig::noiseless().with_input_noise(0.002);
        let b = seq_dyn(BehavioralBackend, &adc, &config, policy, &noise, seed ^ 0xdef);
        let r = seq_dyn(RtlBackend::new(), &adc, &config, policy, &noise, seed ^ 0xdef);
        prop_assert_eq!(b.decision, r.decision);
        prop_assert_eq!(b.accepted(), r.accepted());
        prop_assert_eq!(b.samples_consumed(), r.samples_consumed());
        assert_on_lattice(b.decision, &policy, true);
    }

    /// A sweep that never reaches `min_samples` worth of checkpoints
    /// must run to completion and reproduce the plain full-sweep
    /// verdict bit-for-bit on both backends.
    #[test]
    fn late_min_samples_reduces_to_full_sweep(
        seed in 0u64..100_000,
        counter_bits in 4u32..=7,
    ) {
        let config = static_config(counter_bits, false);
        let policy = SequencerConfig {
            min_samples: 10_000_000,
            ..Default::default()
        };
        let adc = FlashConfig::paper_device().sample(&mut StdRng::seed_from_u64(seed));
        let noise = NoiseConfig::noiseless();
        let full = full_static(&adc, &config, &noise, seed);
        for run_rtl in [false, true] {
            let out = if run_rtl {
                seq_static(RtlBackend::new(), &adc, &config, policy, &noise, seed)
            } else {
                seq_static(BehavioralBackend, &adc, &config, policy, &noise, seed)
            };
            prop_assert_eq!(out.decision, SeqDecision::Continue);
            prop_assert_eq!(out.verdict, full);
        }
    }
}

/// Empirical drift harness: screens a seeded fleet with the sequencer
/// and counts disagreements with the full-sweep verdict. Two persistent
/// screeners — one sequenced, one not — reuse their scratches across
/// the fleet exactly like a production screening loop.
fn static_drift(
    policy: &SequencerConfig,
    sigma: f64,
    devices: usize,
    seed: u64,
) -> (u64, u64, u64) {
    use bist_core::analytic::WidthDistribution;
    use bist_mc_free::iid_transfer;
    let config = static_config(6, false);
    let dist = WidthDistribution::new(1.0, sigma);
    let mut full_screener = Screener::new(Workload::static_ramp(config));
    let mut seq_screener = Screener::new(Workload::static_ramp(config)).sequencer(*policy);
    let (mut good, mut drift_i, mut drift_ii) = (0u64, 0u64, 0u64);
    for i in 0..devices {
        let tf = iid_transfer(&dist, &mut StdRng::seed_from_u64(seed ^ (i as u64) << 3));
        let full = full_screener
            .screen_one(&tf, &mut StdRng::seed_from_u64(seed ^ 0x77))
            .as_static()
            .expect("static workload")
            .verdict;
        let out = *seq_screener
            .screen_one(&tf, &mut StdRng::seed_from_u64(seed ^ 0x77))
            .as_static()
            .expect("static workload");
        if let SeqDecision::AcceptEarly(at) | SeqDecision::RejectEarly(at) = out.decision {
            assert!(at >= policy.min_samples, "min_samples violated");
        }
        if full.accepted() {
            good += 1;
            drift_i += u64::from(!out.accepted());
        } else {
            drift_ii += u64::from(out.accepted());
        }
    }
    (good, drift_i, drift_ii)
}

/// Minimal iid-width device builder (duplicated from `bist-mc`, which
/// this crate cannot depend on without a cycle).
mod bist_mc_free {
    use bist_adc::transfer::TransferFunction;
    use bist_adc::types::{Resolution, Volts};
    use bist_core::analytic::WidthDistribution;
    use rand::Rng;

    pub fn iid_transfer<R: Rng>(dist: &WidthDistribution, rng: &mut R) -> TransferFunction {
        let q = 0.1;
        let n = Resolution::SIX_BIT.transition_count() as usize;
        let mut t = Vec::with_capacity(n);
        t.push(q);
        for _ in 1..n {
            let g: f64 = {
                // Box-Muller-ish via two uniforms (accuracy is
                // irrelevant — any fixed law works for the drift test).
                let u: f64 = rng.gen_range(1e-12..1.0);
                let v: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                (-2.0 * u.ln()).sqrt() * v.cos()
            };
            let w = (dist.mean() + dist.sigma() * g).max(0.0);
            t.push(t.last().unwrap() + w * q);
        }
        TransferFunction::from_transitions(Resolution::SIX_BIT, Volts(0.0), Volts(6.4), t)
    }
}

#[test]
fn empirical_static_drift_within_budgets() {
    // A fleet from the calibrated process model: the sequenced decision
    // may disagree with the full sweep at most alpha (on good devices)
    // / beta (on bad devices), with binomial slack for the finite
    // sample. At the default 1e-3 budgets and 400 devices the expected
    // drift count is < 1, so "within budget" means essentially zero.
    let policy = SequencerConfig::default();
    for sigma in [0.1, 0.21] {
        let (good, drift_i, drift_ii) = static_drift(&policy, sigma, 400, 97);
        let bad = 400 - good;
        let allow = |budget: f64, n: u64| {
            (budget * n as f64 + 3.0 * (budget * n as f64).sqrt()).ceil() as u64
        };
        assert!(
            drift_i <= allow(policy.alpha, good),
            "σ {sigma}: type I drift {drift_i}/{good} exceeds alpha {}",
            policy.alpha
        );
        assert!(
            drift_ii <= allow(policy.beta, bad),
            "σ {sigma}: type II drift {drift_ii}/{bad} exceeds beta {}",
            policy.beta
        );
    }
}

#[test]
fn empirical_dynamic_drift_within_budgets() {
    let policy = SequencerConfig {
        min_samples: 256,
        ..Default::default()
    };
    let config = DynamicConfig::paper_default();
    let mut full_screener = Screener::new(Workload::dynamic_sine(config));
    let mut seq_screener = Screener::new(Workload::dynamic_sine(config)).sequencer(policy);
    let (mut good, mut bad, mut drift_i, mut drift_ii) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..300u64 {
        // σ spread straddling the acceptance boundary.
        let sigma = 0.05 + 0.40 * (i as f64 / 300.0);
        let adc = FlashConfig::new(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
            .with_width_sigma_lsb(sigma)
            .sample(&mut StdRng::seed_from_u64(1000 + i));
        let full = full_screener
            .screen_one(&adc, &mut StdRng::seed_from_u64(2000 + i))
            .as_dynamic()
            .expect("dynamic workload")
            .verdict;
        let out = *seq_screener
            .screen_one(&adc, &mut StdRng::seed_from_u64(2000 + i))
            .as_dynamic()
            .expect("dynamic workload");
        if full.accepted() {
            good += 1;
            drift_i += u64::from(!out.accepted());
        } else {
            bad += 1;
            drift_ii += u64::from(out.accepted());
        }
    }
    assert!(
        good > 50 && bad > 50,
        "sweep must straddle the boundary ({good}/{bad})"
    );
    let allow =
        |budget: f64, n: u64| (budget * n as f64 + 3.0 * (budget * n as f64).sqrt()).ceil() as u64;
    assert!(
        drift_i <= allow(policy.alpha, good),
        "type I drift {drift_i}/{good}"
    );
    assert!(
        drift_ii <= allow(policy.beta, bad),
        "type II drift {drift_ii}/{bad}"
    );
}
