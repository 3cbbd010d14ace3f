//! Signed saturating accumulator for the on-chip INL computation.
//!
//! §2: *"The INL of each transition is determined from the DNL test by
//! successively adding the determined DNL values of each code."* In
//! hardware the DNL of a code, in counter units, is `count − i_ideal`;
//! accumulating those signed residuals across the ramp yields the INL in
//! counter units. The accumulator saturates symmetrically: once the INL
//! bound is blown the exact value no longer matters, only the fail.

use std::fmt;

/// A signed accumulator with symmetric saturation at `±(2^(width−1)−1)`.
///
/// # Examples
///
/// ```
/// use bist_rtl::accumulator::Accumulator;
///
/// let mut acc = Accumulator::new(6); // range ±31
/// acc.add(20);
/// assert_eq!(acc.add(20), 31); // saturated
/// assert!(acc.saturated());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accumulator {
    value: i64,
    limit: i64,
    saturated: bool,
}

impl Accumulator {
    /// A zeroed accumulator of `width` bits (two's complement).
    ///
    /// # Panics
    ///
    /// Panics if `width` is less than 2 or exceeds 63.
    pub fn new(width: u32) -> Self {
        assert!((2..=63).contains(&width), "width must be 2..=63");
        Accumulator {
            value: 0,
            limit: (1i64 << (width - 1)) - 1,
            saturated: false,
        }
    }

    /// Adds a signed residual, saturating at the width limits.
    /// Returns the updated value.
    pub fn add(&mut self, delta: i64) -> i64 {
        let next = self.value.saturating_add(delta);
        if next > self.limit {
            self.value = self.limit;
            self.saturated = true;
        } else if next < -self.limit {
            self.value = -self.limit;
            self.saturated = true;
        } else {
            self.value = next;
        }
        self.value
    }

    /// Whether saturation has occurred since the last clear.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Clears the value and the saturation flag.
    pub fn clear(&mut self) {
        self.value = 0;
        self.saturated = false;
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.value,
            if self.saturated { " (sat)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_signed() {
        let mut a = Accumulator::new(8);
        assert_eq!(a.add(5), 5);
        assert_eq!(a.add(-8), -3);
        assert_eq!(a.value, -3);
        assert!(!a.saturated());
    }

    #[test]
    fn saturates_positive_and_negative() {
        let mut a = Accumulator::new(4); // ±7
        a.add(100);
        assert_eq!(a.value, 7);
        assert!(a.saturated());
        a.clear();
        a.add(-100);
        assert_eq!(a.value, -7);
        assert!(a.saturated());
    }

    #[test]
    fn stays_saturated_flag_until_clear() {
        let mut a = Accumulator::new(4);
        a.add(100);
        a.add(-3);
        assert!(a.saturated(), "flag is sticky");
        a.clear();
        assert!(!a.saturated());
        assert_eq!(a.value, 0);
    }

    #[test]
    fn limit_matches_width() {
        assert_eq!(Accumulator::new(6).limit, 31);
        assert_eq!(Accumulator::new(2).limit, 1);
    }

    #[test]
    #[should_panic(expected = "width must be 2..=63")]
    fn width_one_panics() {
        Accumulator::new(1);
    }

    #[test]
    fn extreme_delta_no_overflow() {
        let mut a = Accumulator::new(63);
        a.add(i64::MAX);
        a.add(i64::MAX);
        assert_eq!(a.value, a.limit);
    }

    #[test]
    fn display_shows_saturation() {
        let mut a = Accumulator::new(3);
        a.add(50);
        assert!(a.to_string().contains("sat"));
    }
}
