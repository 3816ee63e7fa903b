use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::Suffix;

/// Maximum number of digits an identifier may have.
///
/// `d = 40`, `b = 16` (a 160-bit SHA-1 identifier) — the largest configuration
/// evaluated in the paper — fits comfortably.
pub const MAX_DIGITS: usize = 64;

/// Bytes of packed digit storage in a [`NodeId`].
const BYTES: usize = 32;

/// A fixed-length node (or object) identifier of `d` digits in base `b`.
///
/// Digits are indexed **from the right**: `digit(0)` is the rightmost digit,
/// as in the paper's notation `x[i]`. The value is `Copy` and cheap to pass
/// around; the base is carried by [`IdSpace`](crate::IdSpace), not by the
/// identifier itself.
///
/// An identifier is 33 bytes: a digit count and 32 bytes of digits in the
/// layout the wire codec sends — least-significant digit first, two digits
/// a byte, low nibble first. Every digit is below 16 (a base is at most
/// 16). Unused bytes are zero, so equality, hashing, the common-suffix
/// length and numeric order all work on the bytes as they are.
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
/// assert_eq!(x.as_bytes(), [0x61, 0x02, 0x01]);
/// # Ok::<(), hyperring_id::IdError>(())
/// ```
#[derive(Clone, Copy)]
pub struct NodeId {
    /// Digit count `d`.
    len: u8,
    /// The digits, packed as the type's documentation says; zero past the
    /// used bytes, which `eq`, `cmp` and `csuf_len` rely on.
    bytes: [u8; BYTES],
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
    /// Panics if `digits` is empty or longer than [`MAX_DIGITS`], or if a
    /// digit is above 15.
    pub fn from_digits_lsd(digits: &[u8]) -> Self {
        let d = digits.len();
        assert!(
            d != 0 && d <= MAX_DIGITS,
            "digit count {d} out of range 1..={MAX_DIGITS}"
        );
        let mut bytes = [0u8; BYTES];
        for (i, &x) in digits.iter().enumerate() {
            assert!(x < 16, "digit {x} above 15");
            bytes[i / 2] |= x << (4 * (i & 1));
        }
        NodeId {
            len: d as u8,
            bytes,
        }
    }

    /// An identifier of `d` digits from the nibbles
    /// [`from_digits_lsd`](Self::from_digits_lsd) would pack them into:
    /// `bytes` zero past the last digit.
    pub(crate) fn from_nibbles(d: usize, bytes: [u8; BYTES]) -> Self {
        debug_assert!(d != 0 && d <= MAX_DIGITS);
        debug_assert!(d.is_multiple_of(2) || bytes[d / 2] >> 4 == 0);
        debug_assert!(bytes[d.div_ceil(2)..].iter().all(|&x| x == 0));
        NodeId {
            len: d as u8,
            bytes,
        }
    }

    /// Rebuilds an identifier from its packed bytes
    /// ([`as_bytes`](Self::as_bytes)) and digit count. Returns `None`
    /// unless `bytes` is exactly the packing of some `digit_count`-digit
    /// identifier: `⌈d/2⌉` bytes with a zero padding nibble.
    pub fn from_bytes(digit_count: usize, bytes: &[u8]) -> Option<Self> {
        let d = digit_count;
        let used = d.div_ceil(2);
        if d == 0 || used > BYTES || bytes.len() != used {
            return None;
        }
        if d % 2 == 1 && bytes[used - 1] >> 4 != 0 {
            return None;
        }
        let mut out = [0u8; BYTES];
        out[..used].copy_from_slice(bytes);
        Some(NodeId {
            len: d as u8,
            bytes: out,
        })
    }

    /// Number of digits `d` in this identifier.
    #[inline]
    pub fn digit_count(&self) -> usize {
        self.len as usize
    }

    /// The packed digits: `⌈d/2⌉` bytes of nibbles, the identifier's wire
    /// encoding.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.digit_count().div_ceil(2)]
    }

    /// Word `i` of the packed digits, little-endian: a higher word, and a
    /// higher bit within a word, holds a more significant digit.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.bytes[8 * i..8 * i + 8]);
        u64::from_le_bytes(w)
    }

    /// The `i`-th digit **from the right** (the paper's `x[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.digit_count()`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        assert!(
            i < self.digit_count(),
            "digit index {i} out of range for {}-digit id",
            self.digit_count()
        );
        self.nth(i)
    }

    /// [`digit`](Self::digit) for an `i` the caller keeps below the digit
    /// count.
    #[inline]
    fn nth(&self, i: usize) -> u8 {
        (self.bytes[i / 2] >> (4 * (i & 1))) & 0x0f
    }

    /// The rightmost `n` digits unpacked one a byte, the rest of the
    /// buffer zero.
    fn unpack(&self, n: usize) -> [u8; MAX_DIGITS] {
        let mut out = [0u8; MAX_DIGITS];
        for (i, x) in out[..n].iter_mut().enumerate() {
            *x = self.nth(i);
        }
        out
    }

    /// Digits in rightmost-first order, unpacked one a byte.
    #[inline]
    pub fn digits_lsd(&self) -> Digits {
        let len = self.digit_count();
        Digits {
            len: len as u8,
            buf: self.unpack(len),
        }
    }

    /// Length of the longest common suffix of `self` and `other` in digits
    /// (the paper's `|csuf(x, y)|`).
    ///
    /// For identifiers of equal length this is at most `d`, and equals `d`
    /// exactly when the identifiers are equal.
    #[inline]
    pub fn csuf_len(&self, other: &NodeId) -> usize {
        let n = usize::min(self.digit_count(), other.digit_count());
        for w in 0..BYTES / 8 {
            let x = self.word(w) ^ other.word(w);
            if x != 0 {
                let bit = 64 * w + x.trailing_zeros() as usize;
                return usize::min(n, bit / 4);
            }
        }
        n
    }

    /// The longest common suffix of `self` and `other` as a [`Suffix`].
    pub fn csuf(&self, other: &NodeId) -> Suffix {
        self.suffix(self.csuf_len(other))
    }

    /// The suffix of `self` consisting of its rightmost `k` digits.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.digit_count()`.
    pub fn suffix(&self, k: usize) -> Suffix {
        assert!(
            k <= self.digit_count(),
            "suffix length {k} exceeds digit count {}",
            self.digit_count()
        );
        Suffix::from_digits_lsd(&self.unpack(k)[..k])
    }

    /// Whether this identifier ends with `suffix`.
    #[inline]
    pub fn has_suffix(&self, suffix: &Suffix) -> bool {
        let k = suffix.len();
        k <= self.digit_count() && (0..k).all(|i| self.nth(i) == suffix.digit(i))
    }

    /// Writes the identifier as `Display` prints it — most-significant
    /// digit first, digits as `0-9a-f` — into `buf`, and returns the
    /// written prefix. For callers that hash or compare the rendering and
    /// cannot afford a `String` per identifier.
    pub fn write_ascii<'a>(&self, buf: &'a mut [u8; MAX_DIGITS]) -> &'a str {
        let n = self.digit_count();
        for (j, out) in buf[..n].iter_mut().enumerate() {
            *out = match self.nth(n - 1 - j) {
                d @ 0..=9 => b'0' + d,
                d => b'a' + (d - 10),
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
        for i in (0..self.digit_count()).rev() {
            acc = acc.checked_mul(base as u128)?;
            acc = acc.checked_add(self.nth(i) as u128)?;
        }
        Some(acc)
    }
}

impl PartialEq for NodeId {
    /// Compares the digit count and all 32 bytes — the padding is zero on
    /// both sides — which the compiler inlines as two wide compares.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.bytes == other.bytes
    }
}

impl Eq for NodeId {}

impl Hash for NodeId {
    /// Hashes the digit count and the used bytes: equal identifiers have
    /// both equal.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.len);
        state.write(self.as_bytes());
    }
}

/// A fixed hasher for maps keyed by [`NodeId`]: a multiply-xor fold of what
/// an identifier hashes (its digit count, then [`NodeId::as_bytes`]) a
/// 64-bit word at a time, where `RandomState` runs SipHash-1-3. It has no
/// seed, so a map whose keys an outside party picks could be made to
/// collide. Use it for maps whose keys the program inserted; a lookup of
/// any identifier cannot lengthen their probes.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use hyperring_id::{IdBuildHasher, IdSpace};
///
/// let space = IdSpace::new(16, 8)?;
/// let mut at: HashMap<_, usize, IdBuildHasher> = HashMap::default();
/// at.insert(space.parse_id("0012abcd")?, 7);
/// assert_eq!(at[&space.parse_id("0012abcd")?], 7);
/// # Ok::<(), hyperring_id::IdError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            self.fold(tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.fold(u64::from(b));
    }

    /// The high half, where the multiplies mixed every input bit, folded
    /// onto the low half, which a map's bucket index reads.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// [`IdHasher`] for a map: `HashMap<NodeId, V, IdBuildHasher>`.
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeId {
    /// Orders identifiers by digit count, then by numeric value
    /// (most-significant digit first).
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.digit_count();
        n.cmp(&other.digit_count()).then_with(|| {
            (0..BYTES / 8)
                .rev()
                .map(|w| self.word(w).cmp(&other.word(w)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }
}

impl fmt::Display for NodeId {
    /// Prints digits most-significant first, e.g. `21233`, using `0-9a-f`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.write_ascii(&mut [0u8; MAX_DIGITS]))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({self})")
    }
}

/// An identifier's digits unpacked one a byte, rightmost first: what
/// [`NodeId::digits_lsd`] returns. Dereferences to `[u8]`.
#[derive(Clone, Copy)]
pub struct Digits {
    len: u8,
    buf: [u8; MAX_DIGITS],
}

impl Deref for Digits {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl fmt::Debug for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
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
        assert_eq!(*x.digits_lsd(), [3, 3, 2, 1, 2]);
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
    fn csuf_crosses_words() {
        // 40 nibbles span three words; the ids differ only in digit 37.
        let mut xs = [5u8; 40];
        let a = NodeId::from_digits_lsd(&xs);
        xs[37] = 6;
        assert_eq!(a.csuf_len(&NodeId::from_digits_lsd(&xs)), 37);
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
    #[should_panic(expected = "digit 16 above 15")]
    fn digit_above_15_panics() {
        let _ = NodeId::from_digits_lsd(&[0, 16, 0]);
    }

    #[test]
    fn bytes_round_trip_and_reject_other_packings() {
        for xs in [&[3u8, 3, 2, 1, 2][..], &[1; 64], &[15, 0, 9], &[0, 1]] {
            let x = NodeId::from_digits_lsd(xs);
            assert_eq!(NodeId::from_bytes(xs.len(), x.as_bytes()), Some(x));
        }
        // Non-zero padding nibble, wrong length, no digits, too many.
        assert_eq!(NodeId::from_bytes(3, &[0x21, 0x13]), None);
        assert_eq!(NodeId::from_bytes(3, &[0x21]), None);
        assert_eq!(NodeId::from_bytes(0, &[]), None);
        assert_eq!(NodeId::from_bytes(66, &[0; 33]), None);
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
