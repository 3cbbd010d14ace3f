//! Fixture: `pub` items something else names, and the rule's scope.

/// Named by a sibling item (`scaled`).
pub const SCALE: f64 = 2.0;

/// Named by another file (the second source the test indexes).
#[derive(Debug, Default)]
pub struct Meter {
    reading: f64,
}

impl Meter {
    /// Named by its own impl: `reset` calls it.
    pub fn set(&mut self, v: f64) {
        self.reading = scaled(v);
    }

    /// Named by another file.
    pub fn reset(&mut self) {
        self.set(0.0);
    }
}

fn scaled(x: f64) -> f64 {
    x * SCALE
}

impl std::fmt::Display for Meter {
    // Trait-impl methods belong to the trait's surface.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reading)
    }
}

/// Restricted visibility is out of scope.
pub(crate) fn crate_only() {}

// bist-lint: allow(dead-pub) — fixture demonstrating suppression
pub fn kept_on_purpose() {}

#[cfg(test)]
mod tests {
    /// Items in test code are out of scope.
    pub fn test_helper() {}
}
