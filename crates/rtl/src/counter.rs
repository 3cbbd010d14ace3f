//! The n-bit sample counter — the central cost/accuracy knob of the
//! paper.
//!
//! §2: *"The number of samples that can be taken per code is determined
//! by the size of the counter used in the LSB-processing block. The
//! larger the counter the more samples can be taken per code and the more
//! accurate the test will be."* The counter saturates rather than wraps
//! (a wrapped count would alias a grossly wide code onto a passing one)
//! and raises a sticky overflow flag.

use crate::logic::Bus;
use std::fmt;

/// An n-bit up-counter with enable, synchronous clear and saturation.
///
/// # Examples
///
/// ```
/// use bist_rtl::counter::Counter;
///
/// let mut c = Counter::new(4);
/// for _ in 0..20 {
///     c.tick(true, false);
/// }
/// assert_eq!(c.value().value(), 15); // saturated
/// assert!(c.overflowed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    value: Bus,
    overflow: bool,
}

impl Counter {
    /// A zeroed counter of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn new(width: u32) -> Self {
        Counter {
            value: Bus::zero(width),
            overflow: false,
        }
    }

    /// Clocks the counter.
    ///
    /// `clear` takes priority over `enable` (synchronous clear-on-use:
    /// the LSB monitor clears at each transition, then counts). Returns
    /// the registered (pre-update) value, which is what a downstream
    /// comparator sees during this cycle.
    pub fn tick(&mut self, enable: bool, clear: bool) -> Bus {
        let old = self.value;
        if clear {
            self.value = Bus::zero(self.value.width());
            self.overflow = false;
        } else if enable {
            if self.value.is_max() {
                self.overflow = true;
            } else {
                self.value = self.value.wrapping_add(1);
            }
        }
        old
    }

    /// The current count.
    pub fn value(&self) -> Bus {
        self.value
    }

    /// Whether the counter has hit its ceiling since the last clear.
    pub fn overflowed(&self) -> bool {
        self.overflow
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.value,
            if self.overflow { " (ovf)" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_when_enabled() {
        let mut c = Counter::new(4);
        c.tick(true, false);
        c.tick(true, false);
        c.tick(false, false);
        assert_eq!(c.value().value(), 2);
    }

    #[test]
    fn tick_returns_previous_value() {
        let mut c = Counter::new(4);
        assert_eq!(c.tick(true, false).value(), 0);
        assert_eq!(c.tick(true, false).value(), 1);
    }

    #[test]
    fn clear_takes_priority() {
        let mut c = Counter::new(4);
        for _ in 0..5 {
            c.tick(true, false);
        }
        c.tick(true, true);
        assert_eq!(c.value().value(), 0);
    }

    #[test]
    fn saturates_and_flags() {
        let mut c = Counter::new(3);
        for _ in 0..7 {
            c.tick(true, false);
        }
        assert_eq!(c.value().value(), 7);
        assert!(!c.overflowed());
        c.tick(true, false);
        assert_eq!(c.value().value(), 7);
        assert!(c.overflowed());
    }

    #[test]
    fn clear_resets_overflow() {
        let mut c = Counter::new(2);
        for _ in 0..5 {
            c.tick(true, false);
        }
        assert!(c.overflowed());
        c.tick(false, true);
        assert!(!c.overflowed());
        assert_eq!(c.value().value(), 0);
    }

    #[test]
    fn paper_counter_sizes() {
        // The paper sweeps 4..=7-bit counters; max counts 15..=127.
        for bits in 4..=7 {
            let c = Counter::new(bits);
            assert_eq!(c.value().max_value(), (1 << bits) - 1);
        }
    }

    #[test]
    fn display_shows_overflow() {
        let mut c = Counter::new(1);
        c.tick(true, false);
        c.tick(true, false);
        assert!(c.to_string().contains("ovf"));
    }
}
