//! Fixture: a type that nothing names but a same-named enum variant
//! must fire.

/// Shares its name with `Error::Histogram`, which is all that names it.
#[derive(Debug)]
pub struct Histogram {
    bins: Vec<u64>,
}

/// Named by `code_of`, so only the type above fires.
#[derive(Debug)]
pub enum Error {
    /// Defines the variant, not a use of the type.
    Histogram(u32),
    #[doc(hidden)]
    Spectrum,
}

fn code_of(e: &Error) -> u32 {
    match e {
        Error::Histogram(code) => *code,
        Error::Spectrum => 0,
    }
}

impl Error {
    /// Called through `Self::Histogram`, a path to the variant.
    pub fn histogram(code: u32) -> Self {
        Self::Histogram(code_of(&Self::Spectrum) + code)
    }
}

fn make() -> Error {
    Error::histogram(1)
}
