//! Descriptive statistics used throughout the reproduction: running
//! moments (Welford) and sample correlation.
//!
//! The paper's verification hinges on code-width statistics: the standard
//! deviation (0.16–0.21 LSB from circuit simulation) and the inter-code
//! correlation `ρ = −1/(N−1)` (Eq. 10). These helpers let tests confirm
//! that the behavioural flash model actually produces those statistics.

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

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
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

/// Sample mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample standard deviation of a slice (0 for n < 2).
pub fn std_dev(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<Running>().std_dev()
}

/// Average pairwise correlation between distinct positions of repeated
/// vector observations.
///
/// `samples` is a collection of equal-length vectors (e.g. the code-width
/// vector of each Monte-Carlo device). The estimator averages the
/// correlation over all distinct position pairs `(i, j)`, `i < j` — this
/// is what Eq. 10 of the paper predicts to be `−1/(N−1)` for flash
/// converters.
///
/// Returns 0 if there are fewer than 2 samples or fewer than 2 positions.
pub fn mean_pairwise_correlation(samples: &[Vec<f64>]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let dim = samples[0].len();
    if dim < 2 {
        return 0.0;
    }
    assert!(
        samples.iter().all(|s| s.len() == dim),
        "all sample vectors must have equal length"
    );
    // Column means/variances.
    let n = samples.len() as f64;
    let mut means = vec![0.0; dim];
    for s in samples {
        for (m, &v) in means.iter_mut().zip(s) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut vars = vec![0.0; dim];
    for s in samples {
        for ((v, &x), &m) in vars.iter_mut().zip(s).zip(&means) {
            let d = x - m;
            *v += d * d;
        }
    }
    // Average covariance over pairs via the identity
    // Σ_{i≠j} cov_ij = Var(Σ_i x_i) - Σ_i var_ii (all unnormalised).
    let mut var_of_sum = 0.0;
    let sum_means: f64 = means.iter().sum();
    for s in samples {
        let d = s.iter().sum::<f64>() - sum_means;
        var_of_sum += d * d;
    }
    let sum_vars: f64 = vars.iter().sum();
    let off_diag_cov_total = var_of_sum - sum_vars;
    let mean_var = sum_vars / dim as f64;
    if mean_var == 0.0 {
        return 0.0;
    }
    let pairs = (dim * (dim - 1)) as f64;
    (off_diag_cov_total / pairs) / mean_var
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
        assert_eq!(r.min(), 42.0);
        assert_eq!(r.max(), 42.0);
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
    fn correlation_of_anticorrelated() {
        // Two positions observed three times, moving in opposite directions.
        let samples = [vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        assert!((mean_pairwise_correlation(&samples) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_degenerate_inputs() {
        assert_eq!(mean_pairwise_correlation(&[vec![1.0, 2.0]]), 0.0);
        assert_eq!(mean_pairwise_correlation(&[vec![1.0], vec![2.0]]), 0.0);
        let constant = [vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(mean_pairwise_correlation(&constant), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn correlation_length_mismatch_panics() {
        mean_pairwise_correlation(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn pairwise_correlation_iid_near_zero() {
        // Deterministic pseudo-random iid columns (splitmix64): expect ≈ 0.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let samples: Vec<Vec<f64>> = (0..400).map(|_| (0..8).map(|_| next()).collect()).collect();
        let rho = mean_pairwise_correlation(&samples);
        assert!(rho.abs() < 0.05, "rho = {rho}");
    }

    #[test]
    fn pairwise_correlation_sum_constrained() {
        // Columns constrained to a fixed sum have rho = -1/(N-1) — the
        // flash-ladder structure of Eq. 10 (here N = 4, rho = -1/3).
        let dim = 4;
        let samples: Vec<Vec<f64>> = (0..2000)
            .map(|s| {
                let mut v: Vec<f64> = (0..dim)
                    .map(|d| (((s * dim + d) as f64 * 78.233).sin() * 12543.123).fract())
                    .collect();
                let m = v.iter().sum::<f64>() / dim as f64;
                for x in &mut v {
                    *x -= m; // enforce fixed (zero) sum
                }
                v
            })
            .collect();
        let rho = mean_pairwise_correlation(&samples);
        assert!((rho + 1.0 / 3.0).abs() < 0.05, "rho = {rho}");
    }

    #[test]
    fn display_running() {
        let r: Running = [1.0, 2.0].into_iter().collect();
        assert!(r.to_string().contains("n=2"));
    }
}
