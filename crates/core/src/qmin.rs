//! Partial-BIST planning: Eqs. 1–2 of the paper.
//!
//! In the partial BIST of Figure 2 the bits `1..=q` are processed
//! off-chip while bits `q+1..n` are verified on-chip. For the output
//! codes to be reconstructable from bit `q` alone, bit `q`'s waveform
//! must be sampled at least twice per period (Shannon): for a sawtooth
//! sweeping all `2ⁿ` codes at `f_stimulus`, bit `q` completes a period
//! every `2^q` codes, so
//!
//! ```text
//! q_min = ceil( log2( 2^(n+1) · f_stimulus / f_sample  +  NL ) )      (Eq. 1)
//! NL    = min( DNL · 2^(q_min − 1),  2 · INL )                        (Eq. 2)
//! ```
//!
//! `NL` is the linearity headroom: converter non-linearity can locally
//! compress a `2^(q−1)`-code half-period, raising the local frequency of
//! bit `q`. The two equations are mutually dependent; [`QminPlan::q_min`]
//! solves them by fixed-point iteration (monotone and bounded, so it
//! terminates). The 1997 text is partly corrupted in archival scans; this
//! reconstruction follows the Shannon argument the paper states and
//! reproduces its qualitative behaviour (q → 1 for slow stimuli, q → n
//! near Nyquist-rate sweeps).

use bist_adc::types::Resolution;
use std::fmt;

/// Planner for the minimum number of off-chip bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QminPlan {
    resolution: Resolution,
    dnl_spec_lsb: f64,
    inl_spec_lsb: f64,
}

impl QminPlan {
    /// Creates a planner for a converter with the given DNL/INL
    /// specification (in LSB).
    ///
    /// # Panics
    ///
    /// Panics if either spec is negative.
    pub fn new(resolution: Resolution, dnl_spec_lsb: f64, inl_spec_lsb: f64) -> Self {
        assert!(dnl_spec_lsb >= 0.0, "DNL spec must be non-negative");
        assert!(inl_spec_lsb >= 0.0, "INL spec must be non-negative");
        QminPlan {
            resolution,
            dnl_spec_lsb,
            inl_spec_lsb,
        }
    }

    /// The linearity term of Eq. 2 for a candidate `q`.
    pub fn nl(&self, q: u32) -> f64 {
        let dnl_term = self.dnl_spec_lsb * (1u64 << q.saturating_sub(1)) as f64;
        let inl_term = 2.0 * self.inl_spec_lsb;
        dnl_term.min(inl_term)
    }

    /// Solves Eqs. 1–2: the minimum number of LSBs that must be
    /// observed off-chip for a sawtooth at `f_stimulus` sampled at
    /// `f_sample`.
    ///
    /// Returns `None` when even `q = n` does not satisfy the bound (the
    /// stimulus is too fast to test the converter at all).
    ///
    /// # Panics
    ///
    /// Panics if either frequency is not positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use bist_adc::types::Resolution;
    /// use bist_core::qmin::QminPlan;
    ///
    /// let plan = QminPlan::new(Resolution::SIX_BIT, 0.5, 1.0);
    /// // A very slow ramp needs only the LSB: full static BIST.
    /// assert_eq!(plan.q_min(1.0, 1_000_000.0), Some(1));
    /// // Faster stimuli need more off-chip bits.
    /// assert!(plan.q_min(50_000.0, 1_000_000.0) > Some(1));
    /// ```
    pub fn q_min(&self, f_stimulus: f64, f_sample: f64) -> Option<u32> {
        assert!(f_stimulus > 0.0, "stimulus frequency must be positive");
        assert!(f_sample > 0.0, "sample frequency must be positive");
        let n = self.resolution.bits();
        let speed = (1u64 << (n + 1)) as f64 * f_stimulus / f_sample;
        // Fixed point: q = max(1, ceil(log2(speed + NL(q)))).
        let mut q = 1u32;
        for _ in 0..=n + 2 {
            let arg = speed + self.nl(q);
            let next = if arg <= 1.0 {
                1
            } else {
                arg.log2().ceil().max(1.0) as u32
            };
            if next == q {
                return if q <= n { Some(q) } else { None };
            }
            q = next;
        }
        if q <= n {
            Some(q)
        } else {
            None
        }
    }

    /// The highest stimulus frequency (relative to `f_sample`) testable
    /// with `q` off-chip bits: inverts Eq. 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is 0 or exceeds the resolution.
    pub fn max_stimulus_ratio(&self, q: u32) -> f64 {
        assert!(q >= 1 && q <= self.resolution.bits(), "q must be 1..=n");
        let n = self.resolution.bits();
        let headroom = (1u64 << q) as f64 - self.nl(q);
        (headroom / (1u64 << (n + 1)) as f64).max(0.0)
    }
}

impl fmt::Display for QminPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q_min plan for {} (DNL {} LSB, INL {} LSB)",
            self.resolution, self.dnl_spec_lsb, self.inl_spec_lsb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_plan() -> QminPlan {
        QminPlan::new(Resolution::SIX_BIT, 0.5, 1.0)
    }

    #[test]
    fn slow_stimulus_needs_only_lsb() {
        // The paper's central claim: "At low test signal frequencies only
        // the least significant bit needs to be monitored".
        let plan = paper_plan();
        assert_eq!(plan.q_min(0.1, 1e6), Some(1));
        assert_eq!(plan.q_min(1.0, 1e6), Some(1));
    }

    #[test]
    fn q_min_is_monotone_in_stimulus_frequency() {
        let plan = paper_plan();
        let mut last = 0;
        for exp in -6..=-1 {
            let ratio = 10f64.powi(exp);
            if let Some(q) = plan.q_min(ratio * 1e6, 1e6) {
                assert!(q >= last, "ratio {ratio}: q {q} < {last}");
                last = q;
            }
        }
        assert!(last > 1, "fast stimuli should need more bits");
    }

    #[test]
    fn too_fast_stimulus_is_untestable() {
        let plan = paper_plan();
        // Stimulus at half the sample rate sweeps codes far too fast.
        assert_eq!(plan.q_min(5e5, 1e6), None);
    }

    #[test]
    fn full_resolution_boundary() {
        let plan = paper_plan();
        // Just inside the q = n ratio the plan returns n.
        let r = plan.max_stimulus_ratio(6);
        assert!(r > 0.0);
        assert_eq!(plan.q_min(r * 0.99 * 1e6, 1e6), Some(6));
    }

    #[test]
    fn nl_term_selects_minimum() {
        let plan = paper_plan();
        // For small q: DNL·2^{q-1} = 0.5 < 2·INL = 2 → DNL term wins.
        assert!((plan.nl(1) - 0.5).abs() < 1e-12);
        // For larger q the INL bound caps it.
        assert!((plan.nl(4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_ratio_inverts_q_min() {
        let plan = paper_plan();
        for q in 1..=5 {
            let r = plan.max_stimulus_ratio(q);
            // Slightly below the boundary, q suffices.
            let got = plan.q_min(r * 0.98 * 1e6, 1e6).unwrap();
            assert!(got <= q, "q {q}: got {got}");
            // Slightly above, it no longer does.
            let above = plan.q_min((r * 1.2 + 1e-9) * 1e6, 1e6);
            assert!(above.is_none() || above.unwrap() > q, "q {q}: {above:?}");
        }
    }

    #[test]
    fn ideal_converter_pure_shannon() {
        // With zero NL the bound is pure Shannon: q_min = ceil(log2(
        // 2^{n+1}·ratio)).
        let plan = QminPlan::new(Resolution::SIX_BIT, 0.0, 0.0);
        // ratio 2^-7 → 2^{7}·2^{-7} = 1 → q = 1.
        assert_eq!(plan.q_min(1e6 / 128.0, 1e6), Some(1));
        // ratio 2^-4: arg = 8 → q = 3.
        assert_eq!(plan.q_min(1e6 / 16.0, 1e6), Some(3));
    }

    #[test]
    fn sweep_produces_rows() {
        let plan = paper_plan();
        let rows = [1e-6, 1e-3, 0.5].map(|ratio| plan.q_min(ratio * 1e6, 1e6));
        assert_eq!(rows[0], Some(1));
        assert_eq!(rows[2], None);
    }

    #[test]
    #[should_panic(expected = "stimulus frequency must be positive")]
    fn zero_frequency_panics() {
        paper_plan().q_min(0.0, 1e6);
    }

    #[test]
    fn display_mentions_resolution() {
        assert!(paper_plan().to_string().contains("6-bit"));
    }
}
