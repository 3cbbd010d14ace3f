//! Proportion estimation with confidence intervals.
//!
//! Monte-Carlo error rates are binomial proportions; the Wilson score
//! interval behaves well even for the small counts of a 364-device batch
//! and for near-zero rates (Table 2's ppm regime).

use bist_dsp::special::normal_quantile;
use std::fmt;

/// A binomial proportion estimate with its Wilson score interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    successes: u64,
    trials: u64,
}

impl Proportion {
    /// Creates the estimate from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "successes ({successes}) exceed trials ({trials})"
        );
        Proportion { successes, trials }
    }

    /// Number of successes.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The point estimate; `None` for zero trials.
    pub fn point(&self) -> Option<f64> {
        if self.trials == 0 {
            None
        } else {
            Some(self.successes as f64 / self.trials as f64)
        }
    }

    /// The Wilson score interval at the given confidence (e.g. 0.95).
    /// Returns `None` for zero trials.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is not in `(0, 1)`.
    pub fn wilson(&self, confidence: f64) -> Option<(f64, f64)> {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        if self.trials == 0 {
            return None;
        }
        let z = normal_quantile(0.5 + confidence / 2.0);
        let n = self.trials as f64;
        let p = self.successes as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        Some(((center - half).max(0.0), (center + half).min(1.0)))
    }

    /// Whether the 95 % interval contains `p`.
    pub fn consistent_with(&self, p: f64) -> bool {
        match self.wilson(0.95) {
            Some((lo, hi)) => (lo..=hi).contains(&p),
            None => false,
        }
    }
}

impl fmt::Display for Proportion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.point(), self.wilson(0.95)) {
            (Some(p), Some((lo, hi))) => {
                write!(
                    f,
                    "{p:.4} [{lo:.4}, {hi:.4}] ({}/{})",
                    self.successes, self.trials
                )
            }
            _ => write!(f, "-/0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimate() {
        let p = Proportion::new(30, 100);
        assert_eq!(p.point(), Some(0.3));
        assert_eq!(Proportion::new(0, 0).point(), None);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_successes_than_trials_panics() {
        Proportion::new(5, 4);
    }

    #[test]
    fn wilson_contains_truth_for_fair_coin() {
        let p = Proportion::new(50, 100);
        let (lo, hi) = p.wilson(0.95).unwrap();
        assert!(lo < 0.5 && hi > 0.5);
        assert!(hi - lo < 0.22);
    }

    #[test]
    fn wilson_zero_successes_has_positive_width() {
        // Even 0/100 leaves room for small p (unlike the Wald interval).
        let p = Proportion::new(0, 100);
        let (lo, hi) = p.wilson(0.95).unwrap();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
    }

    #[test]
    fn wilson_narrows_with_n() {
        let wide = Proportion::new(10, 100).wilson(0.95).unwrap();
        let narrow = Proportion::new(1000, 10_000).wilson(0.95).unwrap();
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
    }

    #[test]
    fn consistent_with_checks_interval() {
        let p = Proportion::new(13, 100); // the paper's measured 0.13
        assert!(p.consistent_with(0.13));
        assert!(!p.consistent_with(0.5));
    }

    #[test]
    #[should_panic(expected = "confidence must be in (0,1)")]
    fn bad_confidence_panics() {
        Proportion::new(1, 2).wilson(1.0);
    }

    #[test]
    fn display_shows_counts() {
        let p = Proportion::new(3, 10);
        assert!(p.to_string().contains("3/10"));
    }
}
