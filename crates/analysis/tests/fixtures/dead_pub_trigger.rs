//! Fixture: `pub` items that nothing outside themselves names must fire.

/// Named only by its own doctest, which is prose to the rule:
///
/// ```
/// assert_eq!(fixture::only_in_doctest(), 1);
/// ```
pub fn only_in_doctest() -> u32 {
    1
}

/// Named only by this file's `#[cfg(test)]` module and its own impl.
#[derive(Debug)]
pub struct OnlyInTests {
    value: u32,
}

impl OnlyInTests {
    /// Named only by the tests, too.
    pub fn new() -> OnlyInTests {
        OnlyInTests { value: 2 }
    }
}

/// Named only inside its own body.
pub fn countdown(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        countdown(n - 1)
    }
}

/// Named only in a string literal and a comment (`IN_PROSE`).
pub const IN_PROSE: &str = "IN_PROSE";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_them() {
        assert_eq!(OnlyInTests::new().value, 2);
    }
}
