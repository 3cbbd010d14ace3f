//! Static linearity metrics computed directly from a transfer function:
//! DNL and INL.
//!
//! These are the "static" parameters of the paper's §2. Computed from the
//! *true* transition levels they constitute the ground truth that the
//! BIST (which only observes sampled counts) is judged against.

use crate::transfer::TransferFunction;
use crate::types::Lsb;

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
        let tf = ideal();
        let d = dnl(&tf);
        assert!(d.iter().chain(&inl_from_dnl(&d)).all(|x| x.0.abs() < 1e-9));
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
        let i = inl_from_dnl(&dnl(&tf));
        let peak = i.iter().map(|x| x.0.abs()).fold(0.0f64, f64::max);
        assert!((peak - 0.5).abs() < 0.05, "peak {peak}");
        // Peak near the middle.
        let mid = i[n / 2].0.abs();
        assert!((mid - peak).abs() < 0.05);
    }

    #[test]
    fn missing_codes_found() {
        // A zero-width code reads DNL = −1; no other code deviates.
        let tf = with_widths(&[1.0, 0.0, 1.0]);
        let d = dnl(&tf);
        assert!((d[1].0 + 1.0).abs() < 1e-9);
        assert!(d
            .iter()
            .enumerate()
            .all(|(k, x)| k == 1 || x.0.abs() < 1e-9));
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
}
