//! Noise sources applied during acquisition.
//!
//! §3 of the paper lists the error sources it excludes from the theory:
//! input-ramp noise, sampling **jitter** (variation of the sample
//! instants) and comparator **transition noise** (which makes the LSB
//! toggle near an edge). This module models all three so the simulator
//! can quantify their effect and exercise the deglitch filter.

use crate::dist::Normal;
use rand::Rng;

/// Noise configuration for an acquisition run.
///
/// All values default to zero (the noiseless theory of §3).
///
/// # Examples
///
/// ```
/// use bist_adc::noise::NoiseConfig;
///
/// let noise = NoiseConfig::noiseless()
///     .with_input_noise(0.001)
///     .with_jitter(1e-9);
/// assert_eq!(noise.jitter_seconds(), 1e-9);
/// assert!(!noise.is_noiseless());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseConfig {
    /// RMS input-referred voltage noise (volts) added to every sample.
    input_noise_v: f64,
    /// RMS aperture jitter (seconds) perturbing each sample instant.
    jitter_s: f64,
    /// RMS comparator transition noise (volts). Modelled as an extra
    /// input-referred noise that is drawn independently per conversion —
    /// the mechanism that makes the LSB toggle when the input sits on a
    /// transition.
    transition_noise_v: f64,
}

impl NoiseConfig {
    /// No noise at all — the idealised sampling process of §3.
    pub fn noiseless() -> Self {
        NoiseConfig::default()
    }

    /// Sets the RMS input noise in volts.
    ///
    /// # Panics
    ///
    /// Panics if `rms` is negative.
    pub fn with_input_noise(mut self, rms: f64) -> Self {
        assert!(rms >= 0.0, "noise must be non-negative");
        self.input_noise_v = rms;
        self
    }

    /// Sets the RMS aperture jitter in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `rms` is negative.
    pub fn with_jitter(mut self, rms: f64) -> Self {
        assert!(rms >= 0.0, "jitter must be non-negative");
        self.jitter_s = rms;
        self
    }

    /// Sets the RMS comparator transition noise in volts.
    ///
    /// # Panics
    ///
    /// Panics if `rms` is negative.
    pub fn with_transition_noise(mut self, rms: f64) -> Self {
        assert!(rms >= 0.0, "noise must be non-negative");
        self.transition_noise_v = rms;
        self
    }

    /// RMS jitter in seconds.
    pub fn jitter_seconds(&self) -> f64 {
        self.jitter_s
    }

    /// Whether every noise source is zero.
    pub fn is_noiseless(&self) -> bool {
        self.input_noise_v == 0.0 && self.jitter_s == 0.0 && self.transition_noise_v == 0.0
    }

    /// Perturbs a sample instant by jitter.
    pub fn perturb_time<R: Rng + ?Sized>(&self, t: f64, rng: &mut R) -> f64 {
        if self.jitter_s == 0.0 {
            t
        } else {
            t + Normal::new(0.0, self.jitter_s).sample(rng)
        }
    }

    /// Perturbs a sampled voltage by input and transition noise.
    pub fn perturb_voltage<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> f64 {
        let total = (self.input_noise_v.powi(2) + self.transition_noise_v.powi(2)).sqrt();
        if total == 0.0 {
            v
        } else {
            v + Normal::new(0.0, total).sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dsp::stats::Running;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_is_identity() {
        let n = NoiseConfig::noiseless();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(n.is_noiseless());
        assert_eq!(n.perturb_time(1.5, &mut rng), 1.5);
        assert_eq!(n.perturb_voltage(0.7, &mut rng), 0.7);
    }

    #[test]
    fn input_noise_has_configured_rms() {
        let n = NoiseConfig::noiseless().with_input_noise(0.01);
        let mut rng = StdRng::seed_from_u64(2);
        let mut acc = Running::new();
        for _ in 0..100_000 {
            acc.push(n.perturb_voltage(0.0, &mut rng));
        }
        assert!((acc.std_dev() - 0.01).abs() < 5e-4, "sd {}", acc.std_dev());
        assert!(acc.mean().abs() < 5e-4);
    }

    #[test]
    fn input_and_transition_noise_add_in_power() {
        let n = NoiseConfig::noiseless()
            .with_input_noise(0.003)
            .with_transition_noise(0.004);
        let mut rng = StdRng::seed_from_u64(3);
        let mut acc = Running::new();
        for _ in 0..100_000 {
            acc.push(n.perturb_voltage(0.0, &mut rng));
        }
        // 3-4-5 triangle: combined RMS = 0.005.
        assert!((acc.std_dev() - 0.005).abs() < 3e-4, "sd {}", acc.std_dev());
    }

    #[test]
    fn jitter_perturbs_time_only() {
        let n = NoiseConfig::noiseless().with_jitter(1e-6);
        let mut rng = StdRng::seed_from_u64(4);
        let mut acc = Running::new();
        for _ in 0..50_000 {
            acc.push(n.perturb_time(1.0, &mut rng) - 1.0);
        }
        assert!((acc.std_dev() - 1e-6).abs() < 5e-8);
        assert_eq!(n.perturb_voltage(2.0, &mut rng), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_panics() {
        NoiseConfig::noiseless().with_input_noise(-1.0);
    }
}
