//! Random distributions used by the mismatch models.
//!
//! Only `rand`'s uniform primitives are in the approved dependency set,
//! so the Gaussian sampler (Marsaglia polar method) lives here.

use rand::Rng;

/// A normal (Gaussian) distribution sampler.
///
/// # Examples
///
/// ```
/// use bist_adc::dist::Normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let n = Normal::new(1.0, 0.21);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation. A `sigma` of zero yields the constant `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(
            mean.is_finite() && sigma.is_finite(),
            "parameters must be finite"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Normal { mean, sigma }
    }

    /// Draws one sample using the Marsaglia polar method.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.mean;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.sigma * u * factor;
            }
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
    fn moments_match_parameters() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = Normal::new(2.0, 0.5);
        let mut acc = Running::new();
        for _ in 0..200_000 {
            acc.push(n.sample(&mut rng));
        }
        assert!((acc.mean() - 2.0).abs() < 0.01, "mean {}", acc.mean());
        assert!((acc.std_dev() - 0.5).abs() < 0.01, "sd {}", acc.std_dev());
    }

    #[test]
    fn tail_fractions_are_gaussian() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = Normal::new(0.0, 1.0);
        let total = 200_000;
        let beyond_2: usize = (0..total)
            .filter(|_| n.sample(&mut rng).abs() > 2.0)
            .count();
        let frac = beyond_2 as f64 / total as f64;
        // 2σ two-sided tail = 4.55 %
        assert!((frac - 0.0455).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn zero_sigma_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = Normal::new(3.5, 0.0);
        for _ in 0..10 {
            assert_eq!(n.sample(&mut rng), 3.5);
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_panics() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_mean_panics() {
        Normal::new(f64::NAN, 1.0);
    }

    #[test]
    fn accessors() {
        let n = Normal::new(1.0, 2.0);
        assert_eq!(n.mean, 1.0);
        assert_eq!(n.sigma, 2.0);
    }
}
