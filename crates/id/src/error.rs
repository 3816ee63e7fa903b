use std::error::Error;
use std::fmt;

/// Errors produced when constructing identifier spaces or parsing identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IdError {
    /// The base `b` is outside the supported range `2..=16`.
    InvalidBase(u16),
    /// The digit count `d` is outside the supported range `1..=MAX_DIGITS`.
    InvalidDigitCount(usize),
    /// A parsed string had the wrong number of digits for the space.
    WrongLength {
        /// Number of digits the space expects.
        expected: usize,
        /// Number of digits found in the input.
        found: usize,
    },
    /// A character could not be interpreted as a digit in the space's base.
    InvalidDigit {
        /// The offending character.
        ch: char,
        /// The base of the space.
        base: u16,
    },
    /// A raw digit value was `>= base`.
    DigitOutOfRange {
        /// The offending digit value.
        digit: u8,
        /// The base of the space.
        base: u16,
    },
    /// An integer value does not fit in the identifier space.
    ValueOutOfRange {
        /// The offending value.
        value: u128,
    },
}

impl fmt::Display for IdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdError::InvalidBase(b) => write!(f, "base {b} is not in 2..=16"),
            IdError::InvalidDigitCount(d) => {
                write!(f, "digit count {d} is not in 1..={}", crate::MAX_DIGITS)
            }
            IdError::WrongLength { expected, found } => {
                write!(f, "expected {expected} digits, found {found}")
            }
            IdError::InvalidDigit { ch, base } => {
                write!(f, "character {ch:?} is not a digit in base {base}")
            }
            IdError::DigitOutOfRange { digit, base } => {
                write!(f, "digit value {digit} is not less than base {base}")
            }
            IdError::ValueOutOfRange { value } => {
                write!(f, "value {value} does not fit in the identifier space")
            }
        }
    }
}

impl Error for IdError {}
