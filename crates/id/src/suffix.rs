use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{NodeId, MAX_DIGITS};

/// A digit string `ω` interpreted as an identifier *suffix*.
///
/// Suffixes are the currency of the paper's C-set machinery: suffix sets
/// `V_ω`, C-sets `C_{l·ω}`, and notification sets are all indexed by
/// suffixes. Like [`NodeId`], digits are stored rightmost-first, so
/// `digits_lsd()[0]` is the last digit of the suffix.
///
/// The paper writes `j ∘ ω` for digit `j` concatenated on the *left* of
/// suffix `ω`; that operation is [`Suffix::extend_left`].
///
/// # Examples
///
/// ```
/// use hyperring_id::{IdSpace, Suffix};
/// let space = IdSpace::new(8, 5)?;
/// let x = space.parse_id("10261")?;
/// let w = x.suffix(2); // "61"
/// assert_eq!(w.to_string(), "61");
/// let lw = w.extend_left(2); // "261"
/// assert!(x.has_suffix(&lw));
/// # Ok::<(), hyperring_id::IdError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Suffix {
    len: u8,
    digits: [u8; MAX_DIGITS],
}

impl Suffix {
    /// The empty suffix (every identifier has it).
    pub fn empty() -> Self {
        Suffix {
            len: 0,
            digits: [0u8; MAX_DIGITS],
        }
    }

    /// Creates a suffix from digits given rightmost-first.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_DIGITS`] digits are given.
    pub fn from_digits_lsd(digits: &[u8]) -> Self {
        assert!(
            digits.len() <= MAX_DIGITS,
            "suffix length {} exceeds {}",
            digits.len(),
            MAX_DIGITS
        );
        let mut buf = [0u8; MAX_DIGITS];
        buf[..digits.len()].copy_from_slice(digits);
        Suffix {
            len: digits.len() as u8,
            digits: buf,
        }
    }

    /// Number of digits in the suffix (the paper's `|ω|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether this is the empty suffix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Digits in rightmost-first order.
    #[inline]
    pub fn digits_lsd(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    /// The `i`-th digit from the right.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        assert!(i < self.len as usize, "suffix digit index {i} out of range");
        self.digits[i]
    }

    /// The paper's `j ∘ ω`: digit `j` concatenated on the left.
    ///
    /// # Panics
    ///
    /// Panics if the suffix is already [`MAX_DIGITS`] long.
    pub fn extend_left(&self, j: u8) -> Suffix {
        assert!(
            (self.len as usize) < MAX_DIGITS,
            "cannot extend a suffix of maximum length"
        );
        let mut out = *self;
        out.digits[out.len as usize] = j;
        out.len += 1;
        out
    }

    /// Drops the leftmost digit, yielding the parent suffix in a C-set tree.
    ///
    /// Returns `None` for the empty suffix.
    pub fn parent(&self) -> Option<Suffix> {
        if self.len == 0 {
            None
        } else {
            Some(Suffix::from_digits_lsd(
                &self.digits[..self.len as usize - 1],
            ))
        }
    }

    /// Whether `other` is a suffix of `self` (i.e. `self` ends with `other`).
    pub fn ends_with(&self, other: &Suffix) -> bool {
        other.len <= self.len && self.digits[..other.len as usize] == *other.digits_lsd()
    }

    /// Whether the given identifier ends with this suffix.
    #[inline]
    pub fn matches(&self, id: &NodeId) -> bool {
        id.has_suffix(self)
    }
}

impl Default for Suffix {
    fn default() -> Self {
        Suffix::empty()
    }
}

impl PartialEq for Suffix {
    fn eq(&self, other: &Self) -> bool {
        self.digits_lsd() == other.digits_lsd()
    }
}

impl Eq for Suffix {}

impl Hash for Suffix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digits_lsd().hash(state);
    }
}

impl PartialOrd for Suffix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Suffix {
    /// Orders by length, then right-to-left digit order; a total order good
    /// enough for deterministic iteration of suffix-keyed maps.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.digits_lsd().cmp(other.digits_lsd()))
    }
}

impl fmt::Display for Suffix {
    /// Prints digits most-significant first; the empty suffix prints as `ε`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return write!(f, "ε");
        }
        for i in (0..self.len as usize).rev() {
            let d = self.digits[i];
            let ch = match d {
                0..=9 => (b'0' + d) as char,
                10..=15 => (b'a' + (d - 10)) as char,
                _ => '?',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Suffix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Suffix({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sfx(digits_msd: &[u8]) -> Suffix {
        let lsd: Vec<u8> = digits_msd.iter().rev().copied().collect();
        Suffix::from_digits_lsd(&lsd)
    }

    #[test]
    fn extend_left_builds_cset_suffixes() {
        // Paper Figure 2: V_1 -> C_61 -> C_261 -> C_0261 -> C_10261.
        let s1 = sfx(&[1]);
        let s61 = s1.extend_left(6);
        let s261 = s61.extend_left(2);
        let s0261 = s261.extend_left(0);
        let s10261 = s0261.extend_left(1);
        assert_eq!(s61.to_string(), "61");
        assert_eq!(s261.to_string(), "261");
        assert_eq!(s0261.to_string(), "0261");
        assert_eq!(s10261.to_string(), "10261");
        assert_eq!(s10261.len(), 5);
    }

    #[test]
    fn parent_inverts_extend_left() {
        let s = sfx(&[2, 6, 1]);
        assert_eq!(s.extend_left(0).parent(), Some(s));
        assert_eq!(Suffix::empty().parent(), None);
        assert_eq!(sfx(&[7]).parent(), Some(Suffix::empty()));
    }

    #[test]
    fn ends_with_is_reflexive_and_respects_nesting() {
        let long = sfx(&[0, 2, 6, 1]);
        let short = sfx(&[6, 1]);
        assert!(long.ends_with(&short));
        assert!(long.ends_with(&long));
        assert!(long.ends_with(&Suffix::empty()));
        assert!(!short.ends_with(&long));
        assert!(!long.ends_with(&sfx(&[5, 1])));
    }

    #[test]
    fn empty_suffix_displays_epsilon() {
        assert_eq!(Suffix::empty().to_string(), "ε");
        assert!(Suffix::empty().is_empty());
        assert_eq!(Suffix::default(), Suffix::empty());
    }

    #[test]
    fn matches_ids() {
        let x = crate::NodeId::from_digits_lsd(&[1, 6, 2, 0, 1]); // "10261"
        assert!(sfx(&[2, 6, 1]).matches(&x));
        assert!(!sfx(&[0, 6, 1]).matches(&x));
    }
}
