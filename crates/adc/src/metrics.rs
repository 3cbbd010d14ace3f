//! Static linearity metrics computed directly from a transfer function:
//! DNL, INL, offset error, gain error, missing codes and monotonicity.
//!
//! These are the "static" parameters of the paper's §2. Computed from the
//! *true* transition levels they constitute the ground truth that the
//! BIST (which only observes sampled counts) is judged against.

use crate::transfer::TransferFunction;
use crate::types::Lsb;
use std::fmt;

/// Differential non-linearity per inner code, in LSB:
/// `DNL[k] = (W[k] − q)/q` for codes `1..=2ⁿ−2`.
///
/// # Examples
///
/// ```
/// use bist_adc::metrics::dnl;
/// use bist_adc::transfer::TransferFunction;
/// use bist_adc::types::{Resolution, Volts};
///
/// let tf = TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4));
/// assert!(dnl(&tf).iter().all(|d| d.0.abs() < 1e-9));
/// ```
pub fn dnl(tf: &TransferFunction) -> Vec<Lsb> {
    tf.code_widths_lsb()
        .into_iter()
        .map(|w| Lsb(w.0 - 1.0))
        .collect()
}

/// Integral non-linearity at each transition, in LSB, endpoint-corrected:
/// the deviation of `T[k]` from the straight line through the first and
/// last transitions.
///
/// Returns one value per transition (`k = 1..=2ⁿ−1`); the endpoint
/// correction forces the first and last entries to zero.
pub fn inl(tf: &TransferFunction) -> Vec<Lsb> {
    let t = tf.transitions();
    let n = t.len();
    if n < 2 {
        return vec![Lsb(0.0); n];
    }
    let first = t[0];
    let last = t[n - 1];
    let q_eff = (last - first) / (n - 1) as f64;
    t.iter()
        .enumerate()
        .map(|(i, &x)| Lsb((x - (first + i as f64 * q_eff)) / q_eff))
        .collect()
}

/// INL computed by accumulating DNL (the way the paper's on-chip block
/// does it: *"The INL of each transition is determined from the DNL test
/// by successively adding the determined DNL values of each code"*).
///
/// Returns one value per inner-code boundary: entry `k` is
/// `Σ_{j=1..=k} DNL[j]`, the INL at transition `k+1` relative to
/// transition 1 assuming an ideal LSB.
pub fn inl_from_dnl(dnl_values: &[Lsb]) -> Vec<Lsb> {
    let mut acc = 0.0;
    dnl_values
        .iter()
        .map(|d| {
            acc += d.0;
            Lsb(acc)
        })
        .collect()
}

/// Offset error in LSB: deviation of the first transition from its ideal
/// position (`low + 1·q`).
pub fn offset_error(tf: &TransferFunction) -> Lsb {
    let q = tf.lsb_size().0;
    let ideal_first = tf.low().0 + q;
    Lsb((tf.transitions()[0] - ideal_first) / q)
}

/// Gain error in LSB: deviation of the *span* of the transfer (first to
/// last transition) from the ideal span of `2ⁿ − 2` LSB.
pub fn gain_error(tf: &TransferFunction) -> Lsb {
    let q = tf.lsb_size().0;
    let t = tf.transitions();
    let span = t[t.len() - 1] - t[0];
    let ideal_span = (t.len() - 1) as f64 * q;
    Lsb((span - ideal_span) / q)
}

/// Indices (inner codes) whose width is below `threshold` LSB —
/// effectively missing codes. The conventional threshold is a width of
/// 0 (DNL = −1), but histogram tests often use a small positive value.
pub fn missing_codes(tf: &TransferFunction, threshold: Lsb) -> Vec<u32> {
    tf.code_widths_lsb()
        .iter()
        .enumerate()
        .filter(|(_, w)| w.0 <= threshold.0)
        .map(|(i, _)| i as u32 + 1)
        .collect()
}

/// Summary of the static linearity of one converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticSummary {
    /// Worst-case |DNL| over the inner codes, in LSB.
    pub peak_dnl: Lsb,
    /// Worst-case |INL| (endpoint-corrected), in LSB.
    pub peak_inl: Lsb,
    /// Offset error in LSB.
    pub offset: Lsb,
    /// Gain error in LSB.
    pub gain: Lsb,
    /// Number of missing codes (width ≤ 0).
    pub missing: usize,
}

impl StaticSummary {
    /// Computes the summary for a transfer function.
    pub fn of(tf: &TransferFunction) -> Self {
        let d = dnl(tf);
        let i = inl(tf);
        let peak = |xs: &[Lsb]| Lsb(xs.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max));
        StaticSummary {
            peak_dnl: peak(&d),
            peak_inl: peak(&i),
            offset: offset_error(tf),
            gain: gain_error(tf),
            missing: missing_codes(tf, Lsb(0.0)).len(),
        }
    }
}

impl fmt::Display for StaticSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DNL {:.3} LSB, INL {:.3} LSB, offset {:.3} LSB, gain {:.3} LSB, {} missing",
            self.peak_dnl.0, self.peak_inl.0, self.offset.0, self.gain.0, self.missing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Resolution, Volts};

    fn ideal() -> TransferFunction {
        TransferFunction::ideal(Resolution::SIX_BIT, Volts(0.0), Volts(6.4))
    }

    fn with_widths(widths_lsb: &[f64]) -> TransferFunction {
        // Build an (n+?)-code transfer with given inner-code widths.
        let n_codes = widths_lsb.len() + 2;
        let bits = (n_codes as f64).log2().ceil() as u32;
        let res = Resolution::new(bits.max(2)).unwrap();
        let q = 0.1;
        let mut t = vec![q];
        for &w in widths_lsb {
            t.push(t.last().unwrap() + w * q);
        }
        while t.len() < res.transition_count() as usize {
            t.push(t.last().unwrap() + q);
        }
        TransferFunction::from_transitions(res, Volts(0.0), Volts(q * res.code_count() as f64), t)
    }

    #[test]
    fn ideal_has_zero_metrics() {
        let s = StaticSummary::of(&ideal());
        assert!(s.peak_dnl.0 < 1e-9);
        assert!(s.peak_inl.0 < 1e-9);
        assert!(s.offset.0.abs() < 1e-9);
        assert!(s.gain.0.abs() < 1e-9);
        assert_eq!(s.missing, 0);
    }

    #[test]
    fn dnl_of_known_widths() {
        let tf = with_widths(&[1.0, 1.5, 0.5, 1.0]);
        let d = dnl(&tf);
        assert!((d[0].0 - 0.0).abs() < 1e-9);
        assert!((d[1].0 - 0.5).abs() < 1e-9);
        assert!((d[2].0 + 0.5).abs() < 1e-9);
    }

    #[test]
    fn inl_from_dnl_accumulates() {
        let d = vec![Lsb(0.1), Lsb(-0.2), Lsb(0.3)];
        let i = inl_from_dnl(&d);
        assert!((i[0].0 - 0.1).abs() < 1e-12);
        assert!((i[1].0 + 0.1).abs() < 1e-12);
        assert!((i[2].0 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn endpoint_inl_zero_at_ends() {
        let tf = with_widths(&[1.2, 0.8, 1.1, 0.9]);
        let i = inl(&tf);
        assert!(i[0].0.abs() < 1e-9);
        assert!(i.last().unwrap().0.abs() < 1e-9);
    }

    #[test]
    fn inl_detects_bow() {
        // A transfer with a parabolic bow: INL peaks mid-range.
        let res = Resolution::new(6).unwrap();
        let q = 0.1;
        let n = res.transition_count() as usize;
        let t: Vec<f64> = (1..=n)
            .map(|k| {
                let x = k as f64 / n as f64;
                k as f64 * q + 4.0 * 0.05 * x * (1.0 - x) // 0.5 LSB peak bow
            })
            .collect();
        let tf = TransferFunction::from_transitions(res, Volts(0.0), Volts(6.4), t);
        let i = inl(&tf);
        let peak = i.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max);
        assert!((peak - 0.5).abs() < 0.05, "peak {peak}");
        // Peak near the middle.
        let mid = i[n / 2].0.abs();
        assert!((mid - peak).abs() < 0.05);
    }

    #[test]
    fn offset_error_detects_shift() {
        let tf = ideal().with_offset(Volts(0.05));
        assert!((offset_error(&tf).0 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gain_error_detects_scale() {
        let tf = ideal().with_gain(1.01);
        // Span stretches by 1 %: 62 ideal LSB * 0.01 = 0.62 LSB.
        assert!((gain_error(&tf).0 - 0.62).abs() < 1e-6);
        // Offset error also moves (first transition scaled).
        assert!((offset_error(&tf).0 - 0.01).abs() < 1e-6);
    }

    #[test]
    fn missing_codes_found() {
        let tf = with_widths(&[1.0, 0.0, 1.0]);
        let missing = missing_codes(&tf, Lsb(0.0));
        assert_eq!(missing, vec![2]);
        let s = StaticSummary::of(&tf);
        assert_eq!(s.missing, 1);
        assert!((s.peak_dnl.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inl_from_dnl_matches_direct_inl_shape() {
        // For a zero-offset, zero-gain-error transfer the accumulated-DNL
        // INL equals the uncorrected INL at interior transitions.
        let tf = with_widths(&[1.1, 0.9, 1.05, 0.95]);
        let acc = inl_from_dnl(&dnl(&tf));
        // Direct deviation of T[k+1] from T[1] + k ideal LSB:
        let q = tf.lsb_size().0;
        let t = tf.transitions();
        for (k, a) in acc.iter().enumerate().take(4) {
            let direct = (t[k + 1] - t[0] - (k + 1) as f64 * q) / q;
            assert!((a.0 - direct).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn summary_display() {
        let s = StaticSummary::of(&ideal());
        assert!(s.to_string().contains("DNL"));
    }
}
