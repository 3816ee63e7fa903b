use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Suffix;

/// Maximum number of digits an identifier may have.
///
/// `d = 40`, `b = 16` (a 160-bit SHA-1 identifier) — the largest configuration
/// evaluated in the paper — fits comfortably.
pub const MAX_DIGITS: usize = 64;

/// A fixed-length node (or object) identifier of `d` digits in base `b`.
///
/// Digits are indexed **from the right**: `digit(0)` is the rightmost digit,
/// as in the paper's notation `x[i]`. The value is `Copy` and cheap to pass
/// around; the base is carried by [`IdSpace`](crate::IdSpace), not by the
/// identifier itself.
///
/// # Examples
///
/// ```
/// use hyperring_id::IdSpace;
/// let space = IdSpace::new(8, 5)?;
/// let x = space.parse_id("10261")?;
/// assert_eq!(x.digit(0), 1);
/// assert_eq!(x.digit(2), 2);
/// assert_eq!(x.to_string(), "10261");
/// # Ok::<(), hyperring_id::IdError>(())
/// ```
#[derive(Clone, Copy)]
pub struct NodeId {
    /// Number of digits (`d`).
    len: u8,
    /// `digits[i]` is the i-th digit from the right; zero from `len` up
    /// (`from_digits_lsd` is the only constructor), which `eq` relies on.
    digits: [u8; MAX_DIGITS],
}

impl NodeId {
    /// Creates an identifier from digits given **rightmost first**.
    ///
    /// This is a low-level constructor; prefer
    /// [`IdSpace::id_from_digits`](crate::IdSpace::id_from_digits), which also
    /// validates digits against the base.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is empty or longer than [`MAX_DIGITS`].
    pub fn from_digits_lsd(digits: &[u8]) -> Self {
        assert!(
            !digits.is_empty() && digits.len() <= MAX_DIGITS,
            "digit count {} out of range 1..={}",
            digits.len(),
            MAX_DIGITS
        );
        let mut buf = [0u8; MAX_DIGITS];
        buf[..digits.len()].copy_from_slice(digits);
        NodeId {
            len: digits.len() as u8,
            digits: buf,
        }
    }

    /// Number of digits `d` in this identifier.
    #[inline]
    pub fn digit_count(&self) -> usize {
        self.len as usize
    }

    /// The `i`-th digit **from the right** (the paper's `x[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.digit_count()`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        assert!(
            i < self.len as usize,
            "digit index {i} out of range for {}-digit id",
            self.len
        );
        self.digits[i]
    }

    /// Digits in rightmost-first order.
    #[inline]
    pub fn digits_lsd(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    /// Length of the longest common suffix of `self` and `other` in digits
    /// (the paper's `|csuf(x, y)|`).
    ///
    /// For identifiers of equal length this is at most `d`, and equals `d`
    /// exactly when the identifiers are equal.
    #[inline]
    pub fn csuf_len(&self, other: &NodeId) -> usize {
        let n = usize::min(self.len as usize, other.len as usize);
        let mut k = 0;
        while k < n && self.digits[k] == other.digits[k] {
            k += 1;
        }
        k
    }

    /// The longest common suffix of `self` and `other` as a [`Suffix`].
    pub fn csuf(&self, other: &NodeId) -> Suffix {
        Suffix::from_digits_lsd(&self.digits[..self.csuf_len(other)])
    }

    /// The suffix of `self` consisting of its rightmost `k` digits.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.digit_count()`.
    pub fn suffix(&self, k: usize) -> Suffix {
        assert!(
            k <= self.len as usize,
            "suffix length {k} exceeds digit count {}",
            self.len
        );
        Suffix::from_digits_lsd(&self.digits[..k])
    }

    /// Whether this identifier ends with `suffix`.
    #[inline]
    pub fn has_suffix(&self, suffix: &Suffix) -> bool {
        let k = suffix.len();
        k <= self.len as usize && self.digits[..k] == *suffix.digits_lsd()
    }

    /// Writes the identifier as `Display` prints it — most-significant
    /// digit first, digits as `0-9a-z` — into `buf`, and returns the
    /// written prefix. For callers that hash or compare the rendering and
    /// cannot afford a `String` per identifier.
    pub fn write_ascii<'a>(&self, buf: &'a mut [u8; MAX_DIGITS]) -> &'a str {
        let n = self.len as usize;
        for (out, &d) in buf.iter_mut().zip(self.digits[..n].iter().rev()) {
            *out = match d {
                0..=9 => b'0' + d,
                10..=35 => b'a' + (d - 10),
                _ => b'?',
            };
        }
        std::str::from_utf8(&buf[..n]).expect("ASCII digits")
    }

    /// Numeric value of the identifier for base `base`, if it fits in `u128`.
    ///
    /// Useful in tests and for small identifier spaces; returns `None` when
    /// `base^d` overflows `u128`.
    pub fn to_value(&self, base: u16) -> Option<u128> {
        let mut acc: u128 = 0;
        for i in (0..self.len as usize).rev() {
            acc = acc.checked_mul(base as u128)?;
            acc = acc.checked_add(self.digits[i] as u128)?;
        }
        Some(acc)
    }
}

impl PartialEq for NodeId {
    /// Compares the whole fixed-size arrays — the padding is zero on both
    /// sides — which the compiler inlines as a few wide compares, where
    /// two `len`-long slices would go through a `memcmp` call.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.digits == other.digits
    }
}

impl Eq for NodeId {}

impl Hash for NodeId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digits_lsd().hash(state);
    }
}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeId {
    /// Orders identifiers by numeric value (most-significant digit first).
    fn cmp(&self, other: &Self) -> Ordering {
        self.len.cmp(&other.len).then_with(|| {
            for i in (0..self.len as usize).rev() {
                match self.digits[i].cmp(&other.digits[i]) {
                    Ordering::Equal => continue,
                    non_eq => return non_eq,
                }
            }
            Ordering::Equal
        })
    }
}

impl fmt::Display for NodeId {
    /// Prints digits most-significant first, e.g. `21233`, using `0-9a-z`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.write_ascii(&mut [0u8; MAX_DIGITS]))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(digits_msd: &[u8]) -> NodeId {
        let lsd: Vec<u8> = digits_msd.iter().rev().copied().collect();
        NodeId::from_digits_lsd(&lsd)
    }

    #[test]
    fn digit_indexing_is_right_to_left() {
        // Paper: the 0th digit is the rightmost.
        let x = id(&[2, 1, 2, 3, 3]); // "21233"
        assert_eq!(x.digit(0), 3);
        assert_eq!(x.digit(1), 3);
        assert_eq!(x.digit(2), 2);
        assert_eq!(x.digit(3), 1);
        assert_eq!(x.digit(4), 2);
    }

    #[test]
    fn csuf_of_paper_examples() {
        // 21233 and 31033 share suffix "33".
        assert_eq!(id(&[2, 1, 2, 3, 3]).csuf_len(&id(&[3, 1, 0, 3, 3])), 2);
        // 10261 and 00261 share suffix "0261".
        assert_eq!(id(&[1, 0, 2, 6, 1]).csuf_len(&id(&[0, 0, 2, 6, 1])), 4);
        // Identical ids share all digits.
        assert_eq!(id(&[1, 0, 2, 6, 1]).csuf_len(&id(&[1, 0, 2, 6, 1])), 5);
        // Nothing in common.
        assert_eq!(id(&[1, 2]).csuf_len(&id(&[2, 1])), 0);
    }

    #[test]
    fn csuf_is_symmetric() {
        let a = id(&[4, 7, 0, 5, 1]);
        let b = id(&[1, 0, 2, 6, 1]);
        assert_eq!(a.csuf_len(&b), b.csuf_len(&a));
        assert_eq!(a.csuf_len(&b), 1); // both end in 1
    }

    #[test]
    fn suffix_and_has_suffix() {
        let x = id(&[1, 0, 2, 6, 1]);
        let s = x.suffix(3); // "261"
        assert!(x.has_suffix(&s));
        assert!(id(&[0, 0, 2, 6, 1]).has_suffix(&s));
        assert!(!id(&[1, 0, 3, 6, 1]).has_suffix(&s));
        assert!(x.has_suffix(&x.suffix(0)));
        assert!(x.has_suffix(&x.suffix(5)));
    }

    #[test]
    fn display_most_significant_first() {
        assert_eq!(id(&[2, 1, 2, 3, 3]).to_string(), "21233");
        assert_eq!(id(&[0, 0, 2, 6, 1]).to_string(), "00261");
        let hex = id(&[15, 0, 10]);
        assert_eq!(hex.to_string(), "f0a");
        assert_eq!(hex.write_ascii(&mut [0u8; MAX_DIGITS]), "f0a");
        assert_eq!(id(&[35, 36, 0]).to_string(), "z?0");
    }

    #[test]
    fn ordering_is_numeric() {
        let a = id(&[0, 9, 9]);
        let b = id(&[1, 0, 0]);
        assert!(a < b);
        assert_eq!(a.to_value(10), Some(99));
        assert_eq!(b.to_value(10), Some(100));
    }

    #[test]
    fn to_value_detects_overflow() {
        let x = NodeId::from_digits_lsd(&[1; 40]);
        assert!(x.to_value(16).is_none()); // 16^40 > u128::MAX
        let y = NodeId::from_digits_lsd(&[1; 31]);
        assert!(y.to_value(16).is_some());
    }

    #[test]
    #[should_panic(expected = "digit index")]
    fn digit_out_of_range_panics() {
        let _ = id(&[1, 2, 3]).digit(3);
    }

    #[test]
    fn equality_and_hash_are_value_based() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(id(&[1, 2, 3]));
        assert!(set.contains(&id(&[1, 2, 3])));
        assert!(!set.contains(&id(&[1, 2, 4])));
        // Same leading digits, different length: not equal.
        assert_ne!(id(&[0, 1, 2, 3]), id(&[1, 2, 3]));
        assert_ne!(id(&[1, 2, 3, 0]), id(&[1, 2, 3]));
    }
}
