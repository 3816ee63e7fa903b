//! Identifier space for hypercube (suffix) routing.
//!
//! This crate implements the identifier machinery of the PRR-style hypercube
//! routing scheme used by Liu & Lam's join protocol (ICDCS 2003): fixed-length
//! identifiers of `d` digits in base `b` (`2 ≤ b ≤ 16`, so a digit packs in
//! a nibble), *suffix* arithmetic (digits are counted from the right, the
//! 0th digit being the rightmost), longest common suffix computation, and
//! deterministic or hash-based identifier generation.
//!
//! # Examples
//!
//! ```
//! use hyperring_id::{IdSpace, NodeId};
//!
//! let space = IdSpace::new(4, 5)?; // base 4, 5 digits — the paper's Figure 1
//! let x: NodeId = space.parse_id("21233")?;
//! let y: NodeId = space.parse_id("31033")?;
//! // 21233 and 31033 share the suffix "33" (2 digits).
//! assert_eq!(x.csuf_len(&y), 2);
//! assert_eq!(x.digit(0), 3); // rightmost digit
//! assert_eq!(x.digit(4), 2); // leftmost digit
//! # Ok::<(), hyperring_id::IdError>(())
//! ```

#![deny(unsafe_code)] // one exception: the SHA-extension call in sha1
#![warn(missing_docs)]

mod error;
mod id;
mod sha1;
mod space;
mod suffix;

pub use error::IdError;
pub use id::{Digits, IdBuildHasher, IdHasher, NodeId, MAX_DIGITS};
pub use sha1::{sha1, Sha1};
pub use space::IdSpace;
pub use suffix::Suffix;
