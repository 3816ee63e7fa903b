use std::collections::HashSet;

use rand::Rng;

use crate::{IdBuildHasher, IdError, NodeId, Suffix, MAX_DIGITS};

/// Configuration of an identifier space: digits of base `b`, `d` digits per
/// identifier.
///
/// The paper's evaluation uses `b = 16` with `d = 8` (32-bit identifiers) and
/// `d = 40` (160-bit identifiers); its running examples use `b = 4, d = 5`
/// (Figure 1) and `b = 8, d = 5` (Figure 2). Bases run from 2 to 16, so a
/// digit fits a nibble of a [`NodeId`] and prints as one of `0-9a-f`; an
/// identifier has at most [`MAX_DIGITS`] digits.
///
/// # Examples
///
/// ```
/// use hyperring_id::IdSpace;
/// use rand::SeedableRng;
///
/// let space = IdSpace::new(16, 8)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = space.random_id(&mut rng);
/// assert_eq!(x.digit_count(), 8);
/// assert!(x.digits_lsd().iter().all(|&d| d < 16));
/// # Ok::<(), hyperring_id::IdError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpace {
    base: u16,
    digits: u8,
}

impl IdSpace {
    /// Creates a space of `digits` digits in base `base`.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::InvalidBase`] unless `2 <= base <= 16`, and
    /// [`IdError::InvalidDigitCount`] unless `1 <= digits <= MAX_DIGITS`.
    pub fn new(base: u16, digits: usize) -> Result<Self, IdError> {
        if !(2..=16).contains(&base) {
            return Err(IdError::InvalidBase(base));
        }
        if digits == 0 || digits > MAX_DIGITS {
            return Err(IdError::InvalidDigitCount(digits));
        }
        Ok(IdSpace {
            base,
            digits: digits as u8,
        })
    }

    /// The digit base `b`.
    #[inline]
    pub fn base(&self) -> u16 {
        self.base
    }

    /// The number of digits `d` per identifier.
    #[inline]
    pub fn digit_count(&self) -> usize {
        self.digits as usize
    }

    /// Total number of identifiers `b^d`, if it fits in `u128`.
    pub fn capacity(&self) -> Option<u128> {
        let mut acc: u128 = 1;
        for _ in 0..self.digits {
            acc = acc.checked_mul(self.base as u128)?;
        }
        Some(acc)
    }

    /// Validates that `id` belongs to this space (digit count and digit
    /// values).
    pub fn contains(&self, id: &NodeId) -> bool {
        // Every id's digits are below 16.
        id.digit_count() == self.digit_count()
            && (self.base == 16
                || (0..self.digit_count()).all(|i| (id.digit(i) as u16) < self.base))
    }

    /// Builds an identifier from digits given **rightmost first**.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::WrongLength`] or [`IdError::DigitOutOfRange`] when
    /// the digits do not describe an identifier of this space.
    pub fn id_from_digits(&self, digits_lsd: &[u8]) -> Result<NodeId, IdError> {
        if digits_lsd.len() != self.digit_count() {
            return Err(IdError::WrongLength {
                expected: self.digit_count(),
                found: digits_lsd.len(),
            });
        }
        for &d in digits_lsd {
            if d as u16 >= self.base {
                return Err(IdError::DigitOutOfRange {
                    digit: d,
                    base: self.base,
                });
            }
        }
        Ok(NodeId::from_digits_lsd(digits_lsd))
    }

    /// Parses an identifier written most-significant digit first, e.g.
    /// `"21233"` for `b = 4, d = 5`.
    ///
    /// Digits `10..=15` are written `a..=f` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`IdError::WrongLength`] or [`IdError::InvalidDigit`] on
    /// malformed input.
    pub fn parse_id(&self, s: &str) -> Result<NodeId, IdError> {
        let mut digits = Vec::with_capacity(self.digit_count());
        for ch in s.chars().rev() {
            let d = match ch {
                '0'..='9' => ch as u8 - b'0',
                'a'..='z' => ch as u8 - b'a' + 10,
                'A'..='Z' => ch as u8 - b'A' + 10,
                _ => {
                    return Err(IdError::InvalidDigit {
                        ch,
                        base: self.base,
                    })
                }
            };
            if d as u16 >= self.base {
                return Err(IdError::InvalidDigit {
                    ch,
                    base: self.base,
                });
            }
            digits.push(d);
        }
        self.id_from_digits(&digits)
    }

    /// Parses a suffix written most-significant digit first; `""` is the
    /// empty suffix.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::InvalidDigit`] on malformed input or
    /// [`IdError::WrongLength`] if the suffix is longer than `d`.
    pub fn parse_suffix(&self, s: &str) -> Result<Suffix, IdError> {
        if s.chars().count() > self.digit_count() {
            return Err(IdError::WrongLength {
                expected: self.digit_count(),
                found: s.chars().count(),
            });
        }
        let mut digits = Vec::with_capacity(s.len());
        for ch in s.chars().rev() {
            let d = match ch {
                '0'..='9' => ch as u8 - b'0',
                'a'..='z' => ch as u8 - b'a' + 10,
                'A'..='Z' => ch as u8 - b'A' + 10,
                _ => {
                    return Err(IdError::InvalidDigit {
                        ch,
                        base: self.base,
                    })
                }
            };
            if d as u16 >= self.base {
                return Err(IdError::InvalidDigit {
                    ch,
                    base: self.base,
                });
            }
            digits.push(d);
        }
        Ok(Suffix::from_digits_lsd(&digits))
    }

    /// Builds the identifier whose numeric value is `value`.
    ///
    /// # Errors
    ///
    /// Returns [`IdError::ValueOutOfRange`] if `value >= b^d` (or `b^d`
    /// overflows `u128` and cannot be checked — spaces that large should use
    /// [`IdSpace::random_id`] or [`IdSpace::id_from_hash`] instead).
    pub fn id_from_value(&self, value: u128) -> Result<NodeId, IdError> {
        if let Some(cap) = self.capacity() {
            if value >= cap {
                return Err(IdError::ValueOutOfRange { value });
            }
        }
        let mut digits = vec![0u8; self.digit_count()];
        let mut v = value;
        for d in digits.iter_mut() {
            *d = (v % self.base as u128) as u8;
            v /= self.base as u128;
        }
        if v != 0 {
            return Err(IdError::ValueOutOfRange { value });
        }
        Ok(NodeId::from_digits_lsd(&digits))
    }

    /// Draws a uniformly random identifier.
    pub fn random_id<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let mut digits = [0u8; MAX_DIGITS];
        for d in digits.iter_mut().take(self.digit_count()) {
            *d = rng.gen_range(0..self.base) as u8;
        }
        NodeId::from_digits_lsd(&digits[..self.digit_count()])
    }

    /// Draws `n` distinct uniformly random identifiers, in the order they
    /// were first drawn.
    ///
    /// # Panics
    ///
    /// Panics if the space holds fewer than `n` identifiers.
    pub fn distinct_ids<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<NodeId> {
        if let Some(cap) = self.capacity() {
            assert!(
                (n as u128) <= cap,
                "cannot draw {n} distinct ids from a space of {cap}"
            );
        }
        let mut seen = HashSet::with_capacity_and_hasher(n, IdBuildHasher::default());
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = self.random_id(rng);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }

    /// Derives an identifier from arbitrary bytes via SHA-1, the hash the
    /// paper suggests for generating node identifiers.
    ///
    /// For power-of-two bases, digits are taken directly from the hash's bit
    /// stream; otherwise each digit is the next hash byte reduced mod `b`
    /// (re-hashing to extend the stream when `d` digits need more than 20
    /// bytes). The tiny modulo bias for non-power-of-two bases is irrelevant
    /// for routing-table balance.
    pub fn id_from_hash(&self, data: &[u8]) -> NodeId {
        let (base, d) = (self.base, self.digit_count());
        let bits = base.trailing_zeros() as usize;
        let need = if base.is_power_of_two() {
            (d * bits).div_ceil(8)
        } else {
            d
        };
        // The hash's byte stream, each block the hash of the one before,
        // with room for the byte past the last one a digit reads.
        let mut stream = [0u8; 4 * 20];
        stream[..20].copy_from_slice(&crate::sha1(data));
        for at in (20..need).step_by(20) {
            let next = crate::sha1(&stream[at - 20..at]);
            stream[at..at + 20].copy_from_slice(&next);
        }
        // A power-of-two base goes straight to its packed nibbles.
        if base.is_power_of_two() {
            return nibbles(bits, d, &stream);
        }
        let digits = &mut [0u8; MAX_DIGITS][..d];
        for (x, y) in digits.iter_mut().zip(stream) {
            *x = y % base as u8;
        }
        NodeId::from_digits_lsd(digits)
    }
}

/// The `d` digits of `bits` bits each at the front of `stream`, packed two
/// a byte: a byte's two digits are the stream's next `2 * bits` bits, the
/// first digit in its low nibble.
fn nibbles(bits: usize, d: usize, stream: &[u8]) -> NodeId {
    let mut packed = [0u8; MAX_DIGITS / 2];
    for (j, x) in packed[..d.div_ceil(2)].iter_mut().enumerate() {
        let pair = bits_at(stream, 2 * bits * j, 2 * bits);
        *x = pair >> bits | (pair & ((1 << bits) - 1)) << 4;
    }
    if d % 2 == 1 {
        // The last byte's second digit is past the id.
        packed[d / 2] &= 0x0f;
    }
    NodeId::from_nibbles(d, packed)
}

/// The `width` bits, at most 8, of `stream` from bit `at`, most
/// significant first.
fn bits_at(stream: &[u8], at: usize, width: usize) -> u8 {
    let window = u16::from_be_bytes([stream[at / 8], stream[at / 8 + 1]]);
    (window >> (16 - width - at % 8)) as u8 & ((1u16 << width) - 1) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_validates_parameters() {
        assert!(IdSpace::new(16, 8).is_ok());
        assert_eq!(IdSpace::new(1, 8), Err(IdError::InvalidBase(1)));
        assert!(IdSpace::new(16, MAX_DIGITS).is_ok());
        for b in [17, 32, 36, 256] {
            assert_eq!(IdSpace::new(b, 8), Err(IdError::InvalidBase(b)));
        }
        assert_eq!(
            IdSpace::new(17, 8).unwrap_err().to_string(),
            "base 17 is not in 2..=16"
        );
        assert_eq!(IdSpace::new(16, 0), Err(IdError::InvalidDigitCount(0)));
        assert_eq!(
            IdSpace::new(16, MAX_DIGITS + 1),
            Err(IdError::InvalidDigitCount(MAX_DIGITS + 1))
        );
        assert_eq!(
            IdError::InvalidDigitCount(65).to_string(),
            "digit count 65 is not in 1..=64"
        );
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let space = IdSpace::new(4, 5).unwrap();
        let x = space.parse_id("21233").unwrap();
        assert_eq!(x.to_string(), "21233");
        assert!(space.contains(&x));

        let hexspace = IdSpace::new(16, 8).unwrap();
        let y = hexspace.parse_id("00f3a9b2").unwrap();
        assert_eq!(y.to_string(), "00f3a9b2");
        assert_eq!(y.digit(0), 0x2);
        assert_eq!(y.digit(7), 0x0);
        // A digit above the base is not in the space.
        let tens = IdSpace::new(10, 3).unwrap();
        assert!(!tens.contains(&IdSpace::new(16, 3).unwrap().parse_id("0a0").unwrap()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let space = IdSpace::new(4, 5).unwrap();
        assert!(matches!(
            space.parse_id("2123"),
            Err(IdError::WrongLength {
                expected: 5,
                found: 4
            })
        ));
        assert!(matches!(
            space.parse_id("21243"),
            Err(IdError::InvalidDigit { ch: '4', .. })
        ));
        assert!(matches!(
            space.parse_id("2123!"),
            Err(IdError::InvalidDigit { ch: '!', .. })
        ));
    }

    #[test]
    fn parse_suffix_handles_empty_and_long() {
        let space = IdSpace::new(8, 5).unwrap();
        assert_eq!(space.parse_suffix("").unwrap(), Suffix::empty());
        assert_eq!(space.parse_suffix("261").unwrap().to_string(), "261");
        assert!(space.parse_suffix("123456").is_err());
    }

    #[test]
    fn value_roundtrip() {
        let space = IdSpace::new(7, 6).unwrap();
        for v in [0u128, 1, 6, 7, 48, 117648] {
            let id = space.id_from_value(v).unwrap();
            assert_eq!(id.to_value(7), Some(v));
        }
        let cap = space.capacity().unwrap();
        assert_eq!(cap, 117_649);
        assert!(space.id_from_value(cap).is_err());
    }

    #[test]
    fn random_ids_are_in_space_and_deterministic() {
        let space = IdSpace::new(16, 40).unwrap();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let x = space.random_id(&mut a);
            let y = space.random_id(&mut b);
            assert_eq!(x, y);
            assert!(space.contains(&x));
        }
    }

    #[test]
    fn random_ids_cover_digit_values() {
        // Sanity check of uniformity: with 4000 draws of d=8 b=16 digits,
        // every digit value should appear in every position.
        let space = IdSpace::new(16, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [[false; 16]; 8];
        for _ in 0..4000 {
            let id = space.random_id(&mut rng);
            for (i, &d) in id.digits_lsd().iter().enumerate() {
                seen[i][d as usize] = true;
            }
        }
        assert!(seen.iter().all(|row| row.iter().all(|&s| s)));
    }

    #[test]
    fn hash_ids_are_deterministic_and_valid() {
        for (b, d) in [(16u16, 40usize), (16, 8), (8, 5), (4, 5), (10, 20), (3, 64)] {
            let space = IdSpace::new(b, d).unwrap();
            let x = space.id_from_hash(b"node-0");
            let y = space.id_from_hash(b"node-0");
            let z = space.id_from_hash(b"node-1");
            assert_eq!(x, y);
            assert_ne!(x, z, "b={b} d={d}");
            assert!(space.contains(&x));
            assert!(space.contains(&z));
        }
    }

    #[test]
    fn hash_ids_are_pinned() {
        // Known answers: the power-of-two bit stream at 4, 3, 2 and 1 bits
        // a digit, with an odd digit count at (16, 7) and a second block at
        // (16, 64); the mod-b path at (10, 12).
        let pinned: [((u16, usize), [&str; 5]); 7] = [
            (
                (16, 8),
                ["ee3a93ad", "d4a1e5af", "ce7de3c7", "2eb328a7", "501de532"],
            ),
            (
                (16, 7),
                ["e3a93ad", "4a1e5af", "e7de3c7", "eb328a7", "01de532"],
            ),
            (
                (16, 64),
                [
                    "e349970bcd4b47aa0cedb1eb90708dfa09810659fefb5523d0b4b6e5ee3a93ad",
                    "b9cc37c988bcfe066b4ab7ff2a5e2069175517d8e55f5f056b0d183fd4a1e5af",
                    "00bd2ccdef9d8d488a96f1945348dfa7a2fa64114c22411a5ad3e21ace7de3c7",
                    "70f1357628815bf0dc8e605dd2ac20beb2a3b6ea2819c73444e1b79c2eb328a7",
                    "14470f7306eb4c15e195ac934875baf44c5abc84171d5f213785b55a501de532",
                ],
            ),
            (
                (8, 10),
                [
                    "3734643466",
                    "3223075467",
                    "3772373073",
                    "0737010563",
                    "1012375601",
                ],
            ),
            ((4, 6), ["302213", "112233", "300331", "022231", "113020"]),
            (
                (2, 64),
                [
                    "1011000011010010110101100111101001110111110001011001110001011011",
                    "0110110100001011100000011100111110110010010110000111101001011111",
                    "1010010110111100011101001000010100110111111010110111110000111110",
                    "0010001001111000110111101001001101000111110111000100000101011110",
                    "1100111000011010110110101010010110100000100010110111101011000100",
                ],
            ),
            (
                (10, 12),
                [
                    "915035748378",
                    "455028937640",
                    "640151616524",
                    "054780316902",
                    "395858155945",
                ],
            ),
        ];
        let names = ["", "node-0", "skylark.mp3", "obj-42", "obj-3292"];
        for ((b, d), ids) in pinned {
            let space = IdSpace::new(b, d).unwrap();
            for (name, id) in names.iter().zip(ids) {
                let x = space.id_from_hash(name.as_bytes());
                assert_eq!(x.to_string(), id, "b={b} d={d} {name:?}");
                assert_eq!(x, space.parse_id(id).unwrap(), "b={b} d={d} {name:?}");
            }
        }
    }

    /// `id_from_hash` written digit by digit: the hash's byte stream,
    /// extended by re-hashing the last block, read `log2 b` bits a digit
    /// for a power-of-two base and one byte mod `b` a digit otherwise.
    fn digit_stream_model(space: IdSpace, data: &[u8]) -> NodeId {
        let b = space.base() as u32;
        let mut stream: Vec<u8> = crate::sha1(data).to_vec();
        while stream.len() < 64 {
            let last: [u8; 20] = stream[stream.len() - 20..].try_into().unwrap();
            stream.extend_from_slice(&crate::sha1(&last));
        }
        let digits: Vec<u8> = if b.is_power_of_two() {
            let bits = b.trailing_zeros() as usize;
            let bit = |i: usize| (stream[i / 8] >> (7 - i % 8)) & 1;
            (0..space.digit_count())
                .map(|j| (0..bits).fold(0, |acc, k| acc << 1 | bit(j * bits + k)))
                .collect()
        } else {
            let bytes = &stream[..space.digit_count()];
            bytes.iter().map(|&x| (x as u32 % b) as u8).collect()
        };
        NodeId::from_digits_lsd(&digits)
    }

    #[test]
    fn hash_ids_match_the_digit_stream_model() {
        for b in 2..=16u16 {
            for d in [1, 2, 7, 8, 20, 31, 32, 40, 41, 64] {
                let space = IdSpace::new(b, d).unwrap();
                for name in ["", "node-0", "skylark.mp3", "obj-42", "obj-3292"] {
                    let x = space.id_from_hash(name.as_bytes());
                    assert_eq!(x, digit_stream_model(space, name.as_bytes()), "b={b} d={d}");
                }
            }
        }
    }

    #[test]
    fn hash_ids_use_full_hash_stream() {
        // d=64 base-16 digits need 32 bytes, more than one SHA-1 output; the
        // extension path must still be deterministic and in-range.
        let space = IdSpace::new(16, 64).unwrap();
        let x = space.id_from_hash(b"needs two blocks");
        assert!(space.contains(&x));
        assert_eq!(x, space.id_from_hash(b"needs two blocks"));
    }
}
