//! The benchmark's statistics: quantiles, the reportable-percentile
//! rule, ppm arithmetic and rate slices. Kept free of I/O so every rule
//! is unit-tested below.

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of nothing");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) so spreads agree with any tool built on it.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let (n, m) = (4usize, ld + 1);
    let mut cuts = [0.0; 3];
    for (k, cut) in cuts.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    cuts
}

/// Interquartile range as a share of the median — the steadiness
/// figure a benchmark bound is checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The percentile ladder timings are reported on.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile on [`PERCENTILES`] that leaves at least ten
/// samples beyond it in `n` samples, or `None` below the median's
/// requirement (twenty samples).
pub fn reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile of `values` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let s = sorted(values);
    assert!(!s.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median over consecutive `window`-sample windows of each
/// window's `p`-th percentile. A host stall delays every sample due
/// during it, so it lands in one window instead of shifting the whole
/// run's percentile. A final window shorter than half of `window`
/// joins the one before it.
///
/// # Panics
///
/// Panics on an empty slice or a zero window.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> f64 {
    assert!(window > 0, "windows need at least one sample");
    let mut windows: Vec<&[f64]> = values.chunks(window).collect();
    if windows.len() > 1 && windows[windows.len() - 1].len() < window / 2 {
        let tail = windows.pop().expect("more than one window").len();
        let last = windows.len() - 1;
        let start = last * window;
        windows[last] = &values[start..start + window + tail];
    }
    let per_window: Vec<f64> = windows.iter().map(|w| percentile(w, p)).collect();
    median(&per_window)
}

/// `count` per million of `screened`; zero when nothing was screened
/// (no devices, no escapes).
pub fn ppm(count: u64, screened: u64) -> f64 {
    if screened == 0 {
        0.0
    } else {
        count as f64 * 1e6 / screened as f64
    }
}

/// The Jeffreys estimate of a rate, `(count + 1/2) / (screened + 1)`,
/// per million: the posterior mean under the Jeffreys prior. Unlike
/// [`ppm`] it is never zero for a non-empty fleet, so a bound stated as
/// a share of it still means something when no escape was seen; for
/// hundreds of events it is within a fraction of a percent of [`ppm`].
/// Zero when nothing was screened.
pub fn jeffreys_ppm(count: u64, screened: u64) -> f64 {
    if screened == 0 {
        0.0
    } else {
        (count as f64 + 0.5) * 1e6 / (screened as f64 + 1.0)
    }
}

/// Groups consecutive `(work, seconds)` batches into slices of at least
/// `min_slice_s` seconds and returns each slice's work per second. A
/// trailing remainder shorter than `min_slice_s` joins the last slice,
/// so no timed work is dropped; with less than one slice in total the
/// whole run is one slice.
pub fn slice_rates(batches: &[(u64, f64)], min_slice_s: f64) -> Vec<f64> {
    let mut slices: Vec<(u64, f64)> = Vec::new();
    let mut open = (0u64, 0.0f64);
    for &(work, secs) in batches {
        open.0 += work;
        open.1 += secs;
        if open.1 >= min_slice_s {
            slices.push(open);
            open = (0, 0.0);
        }
    }
    if open.1 > 0.0 {
        match slices.last_mut() {
            Some(last) => {
                last.0 += open.0;
                last.1 += open.1;
            }
            None => slices.push(open),
        }
    }
    slices
        .into_iter()
        .map(|(work, secs)| work as f64 / secs)
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("benchmark statistics never see NaN")
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "median of nothing")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0; 10]), 0.0);
    }

    #[test]
    fn reportable_percentile_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(99), Some(50.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(999), Some(90.0));
        assert_eq!(reportable_percentile(1_000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        assert_eq!(reportable_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.9), 5.0);
    }

    #[test]
    fn windowed_percentiles_confine_a_stall_to_its_window() {
        let mut v: Vec<f64> = (0..40).map(|i| f64::from(i % 10)).collect();
        // A stall: one window's samples all come in late.
        for x in &mut v[10..20] {
            *x += 1000.0;
        }
        assert_eq!(windowed_percentile(&v, 10, 90.0), 8.0);
        assert!(percentile(&v, 90.0) > 1000.0);
        // A 4-sample tail (< half a window) joins the last window.
        let v: Vec<f64> = (0..24).map(f64::from).collect();
        assert_eq!(windowed_percentile(&v, 10, 100.0), (9.0 + 23.0) / 2.0);
        assert_eq!(windowed_percentile(&[3.0, 1.0], 10, 50.0), 1.0);
    }

    #[test]
    fn ppm_edge_cases() {
        assert_eq!(ppm(0, 0), 0.0, "nothing screened");
        assert_eq!(ppm(0, 12_345), 0.0, "all good");
        assert_eq!(ppm(1, 1), 1e6);
        assert_eq!(ppm(3, 1_000_000), 3.0);
        assert!((ppm(1, 3) - 333_333.333_333_333_3).abs() < 1e-6);
    }

    #[test]
    fn jeffreys_ppm_edge_cases() {
        assert_eq!(jeffreys_ppm(0, 0), 0.0, "nothing screened");
        assert_eq!(jeffreys_ppm(0, 1), 250_000.0, "one good device");
        let all_good = jeffreys_ppm(0, 7_679);
        assert_eq!(all_good, 65.104_166_666_666_67, "all good stays above zero");
        assert!(all_good > 0.0);
        assert_eq!(jeffreys_ppm(9, 9), 1e6 * 9.5 / 10.0, "all bad");
        let close = jeffreys_ppm(623, 12_288) / ppm(623, 12_288);
        assert!((close - 1.0).abs() < 1e-3, "many events: {close}");
    }

    #[test]
    fn slices_merge_short_batches_and_keep_the_tail() {
        let batches = [(10, 0.4), (10, 0.4), (10, 0.4), (10, 0.4), (5, 0.1)];
        // 3 batches reach 1.2 s; the 0.5 s tail joins that slice.
        let rates = slice_rates(&batches, 1.0);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 45.0 / 1.7).abs() < 1e-12);
        let rates = slice_rates(&batches, 0.5);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 20.0 / 0.8).abs() < 1e-12);
        assert!((rates[1] - 25.0 / 0.9).abs() < 1e-12);
        assert!(slice_rates(&[], 1.0).is_empty());
        assert_eq!(slice_rates(&[(4, 0.5)], 1.0), [8.0]);
    }
}
