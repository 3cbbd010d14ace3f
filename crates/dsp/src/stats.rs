//! Descriptive statistics used throughout the reproduction: running
//! moments (Welford).
//!
//! The paper's verification hinges on code-width statistics such as the
//! standard deviation (0.16–0.21 LSB from circuit simulation). These
//! helpers let tests confirm that the behavioural flash model actually
//! produces those statistics.

use std::fmt;

/// Numerically stable running mean/variance accumulator (Welford).
///
/// # Examples
///
/// ```
/// use bist_dsp::stats::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.count(), 8);
/// assert!((r.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n−1`); 0 when fewer than 2.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

impl fmt::Display for Running {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} max={:.6}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

impl Extend<f64> for Running {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Running {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut r = Running::new();
        r.extend(iter);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_empty() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.sample_variance(), 0.0);
    }

    #[test]
    fn running_single_value() {
        let mut r = Running::new();
        r.push(42.0);
        assert_eq!(r.mean(), 42.0);
        assert_eq!(r.sample_variance(), 0.0);
        assert_eq!(r.min, 42.0);
        assert_eq!(r.max, 42.0);
    }

    #[test]
    fn running_matches_naive() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let r: Running = xs.iter().copied().collect();
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let naive_var =
            xs.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((r.mean() - naive_mean).abs() < 1e-10);
        assert!((r.sample_variance() - naive_var).abs() < 1e-8);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut a = Running::new();
        let mut b = Running::new();
        a.extend(xs[..200].iter().copied());
        b.extend(xs[200..].iter().copied());
        a.merge(&b);
        let full: Running = xs.iter().copied().collect();
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - full.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Running = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&Running::new());
        assert_eq!(a, before);
        let mut empty = Running::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_running() {
        let r: Running = [1.0, 2.0].into_iter().collect();
        assert!(r.to_string().contains("n=2"));
    }
}
