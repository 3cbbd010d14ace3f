//! The pass/fail window comparator of Figure 4.
//!
//! At each LSB transition the sample count for the just-finished code is
//! compared against the limits `i_min` and `i_max` derived from the DNL
//! specification (Eqs. 3–4): `i < i_min` means the code was too narrow,
//! `i > i_max` too wide. This is a purely combinational block.

use crate::logic::Bus;
use std::fmt;

/// Outcome of a window comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowVerdict {
    /// `i_min ≤ count ≤ i_max`.
    Pass,
    /// `count < i_min` — code too narrow (DNL below lower limit).
    TooNarrow,
    /// `count > i_max` — code too wide (DNL above upper limit).
    TooWide,
}

impl WindowVerdict {
    /// Whether the verdict is a pass.
    pub fn is_pass(&self) -> bool {
        matches!(self, WindowVerdict::Pass)
    }
}

impl fmt::Display for WindowVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WindowVerdict::Pass => "pass",
            WindowVerdict::TooNarrow => "too narrow",
            WindowVerdict::TooWide => "too wide",
        };
        f.write_str(s)
    }
}

/// Combinational window comparator with programmable limits.
///
/// The comparator itself accepts any limits; reachability of the
/// ceiling is the datapath's concern —
/// [`LsbProcessorConfig::validate`](crate::datapath::LsbProcessorConfig::validate)
/// rejects configurations whose `i_max` exceeds the counter capacity
/// `2^k` (the counter stores `count − 1`), so a saturated counter is
/// always genuinely "too wide".
///
/// # Examples
///
/// ```
/// use bist_rtl::window_compare::{WindowComparator, WindowVerdict};
///
/// // 4-bit counter, paper's stringent spec at Δs = 0.091 LSB:
/// // i_min = 6, i_max = 16 (the full capacity of a counter that
/// // stores count − 1).
/// let cmp = WindowComparator::new(6, 16);
/// assert_eq!(cmp.compare(5), WindowVerdict::TooNarrow);
/// assert_eq!(cmp.compare(10), WindowVerdict::Pass);
/// assert_eq!(cmp.compare(17), WindowVerdict::TooWide);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowComparator {
    i_min: u64,
    i_max: u64,
}

impl WindowComparator {
    /// Creates a comparator accepting counts in `i_min..=i_max`.
    ///
    /// # Panics
    ///
    /// Panics if `i_min > i_max`.
    pub fn new(i_min: u64, i_max: u64) -> Self {
        assert!(
            i_min <= i_max,
            "i_min ({i_min}) must not exceed i_max ({i_max})"
        );
        WindowComparator { i_min, i_max }
    }

    /// Classifies a raw count.
    pub fn compare(&self, count: u64) -> WindowVerdict {
        if count < self.i_min {
            WindowVerdict::TooNarrow
        } else if count > self.i_max {
            WindowVerdict::TooWide
        } else {
            WindowVerdict::Pass
        }
    }

    /// Classifies a counter value, treating a saturated/overflowed count
    /// as "too wide" (the width could not be measured but certainly
    /// exceeded the window).
    pub fn compare_bus(&self, count: Bus, overflowed: bool) -> WindowVerdict {
        if overflowed {
            WindowVerdict::TooWide
        } else {
            self.compare(count.value())
        }
    }
}

impl fmt::Display for WindowComparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window [{}, {}]", self.i_min, self.i_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_inclusive() {
        let c = WindowComparator::new(6, 16);
        assert_eq!(c.compare(6), WindowVerdict::Pass);
        assert_eq!(c.compare(16), WindowVerdict::Pass);
        assert_eq!(c.compare(5), WindowVerdict::TooNarrow);
        assert_eq!(c.compare(17), WindowVerdict::TooWide);
    }

    #[test]
    fn degenerate_window_single_count() {
        let c = WindowComparator::new(10, 10);
        assert!(c.compare(10).is_pass());
        assert!(!c.compare(9).is_pass());
        assert!(!c.compare(11).is_pass());
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_window_panics() {
        WindowComparator::new(5, 4);
    }

    #[test]
    fn overflow_is_too_wide() {
        let c = WindowComparator::new(1, 100);
        let full = Bus::new(4, 15);
        assert_eq!(c.compare_bus(full, true), WindowVerdict::TooWide);
        assert_eq!(c.compare_bus(full, false), WindowVerdict::Pass);
    }

    #[test]
    fn zero_count_too_narrow_unless_allowed() {
        let c = WindowComparator::new(1, 5);
        assert_eq!(c.compare(0), WindowVerdict::TooNarrow);
        let c0 = WindowComparator::new(0, 5);
        assert!(c0.compare(0).is_pass());
    }

    #[test]
    fn accessors_and_display() {
        let c = WindowComparator::new(6, 16);
        assert_eq!(c.i_min, 6);
        assert_eq!(c.i_max, 16);
        assert_eq!(c.to_string(), "window [6, 16]");
        assert_eq!(WindowVerdict::TooNarrow.to_string(), "too narrow");
    }
}
