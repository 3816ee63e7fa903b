use rand::Rng;

use crate::{IdError, NodeId, Suffix, MAX_DIGITS, MAX_WIDE_DIGITS};

/// Configuration of an identifier space: digits of base `b`, `d` digits per
/// identifier.
///
/// The paper's evaluation uses `b = 16` with `d = 8` (32-bit identifiers) and
/// `d = 40` (160-bit identifiers); its running examples use `b = 4, d = 5`
/// (Figure 1) and `b = 8, d = 5` (Figure 2). Bases up to 36 are supported so
/// identifiers remain printable with `0-9a-z`; a base over 16 allows at most
/// [`MAX_WIDE_DIGITS`] digits, any other [`MAX_DIGITS`].
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
    /// Returns [`IdError::InvalidBase`] unless `2 <= base <= 36`, and
    /// [`IdError::InvalidDigitCount`] unless `1 <= digits <= MAX_DIGITS`,
    /// or `1 <= digits <= MAX_WIDE_DIGITS` when `base > 16`: a digit above
    /// 15 takes a byte of a [`NodeId`]'s 32.
    pub fn new(base: u16, digits: usize) -> Result<Self, IdError> {
        if !(2..=36).contains(&base) {
            return Err(IdError::InvalidBase(base));
        }
        let max = if base > 16 {
            MAX_WIDE_DIGITS
        } else {
            MAX_DIGITS
        };
        if digits == 0 || digits > max {
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
        // A narrow id's digits are all below 16.
        id.digit_count() == self.digit_count()
            && ((self.base >= 16 && !id.is_wide())
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
    /// Digits `10..=35` are written `a..=z` (case-insensitive).
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

    /// Derives an identifier from arbitrary bytes via SHA-1, the hash the
    /// paper suggests for generating node identifiers.
    ///
    /// For power-of-two bases, digits are taken directly from the hash's bit
    /// stream; otherwise each digit is the next hash byte reduced mod `b`
    /// (re-hashing to extend the stream when `d` digits need more than 20
    /// bytes). The tiny modulo bias for non-power-of-two bases is irrelevant
    /// for routing-table balance.
    pub fn id_from_hash(&self, data: &[u8]) -> NodeId {
        let (mut digits, mut len) = ([0u8; MAX_DIGITS], 0);
        let mut block = crate::sha1(data);
        let mut used = 0usize;

        if self.base.is_power_of_two() {
            let bits_per_digit = self.base.trailing_zeros() as usize;
            let mut bitbuf: u32 = 0;
            let mut bitcnt = 0usize;
            while len < self.digit_count() {
                if bitcnt < bits_per_digit {
                    if used == block.len() {
                        block = crate::sha1(&block);
                        used = 0;
                    }
                    bitbuf = (bitbuf << 8) | block[used] as u32;
                    used += 1;
                    bitcnt += 8;
                } else {
                    let shift = bitcnt - bits_per_digit;
                    let digit = ((bitbuf >> shift) & (self.base as u32 - 1)) as u8;
                    bitcnt = shift;
                    bitbuf &= (1u32 << shift) - 1;
                    digits[len] = digit;
                    len += 1;
                }
            }
        } else {
            while len < self.digit_count() {
                if used == block.len() {
                    block = crate::sha1(&block);
                    used = 0;
                }
                digits[len] = (block[used] as u16 % self.base) as u8;
                len += 1;
                used += 1;
            }
        }
        NodeId::from_digits_lsd(&digits[..len])
    }
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
        assert_eq!(IdSpace::new(37, 8), Err(IdError::InvalidBase(37)));
        assert_eq!(IdSpace::new(16, 0), Err(IdError::InvalidDigitCount(0)));
        assert_eq!(
            IdSpace::new(16, MAX_DIGITS + 1),
            Err(IdError::InvalidDigitCount(MAX_DIGITS + 1))
        );
    }

    #[test]
    fn bases_over_16_stop_at_32_digits() {
        assert!(IdSpace::new(16, MAX_DIGITS).is_ok());
        assert!(IdSpace::new(17, MAX_WIDE_DIGITS).is_ok());
        assert!(IdSpace::new(36, MAX_WIDE_DIGITS).is_ok());
        for b in 17..=36 {
            assert_eq!(
                IdSpace::new(b, MAX_WIDE_DIGITS + 1),
                Err(IdError::InvalidDigitCount(MAX_WIDE_DIGITS + 1))
            );
        }
        assert_eq!(
            IdError::InvalidDigitCount(33).to_string(),
            "digit count 33 is not in 1..=64, or 1..=32 in a base over 16"
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
        // Known answers: the power-of-two bit stream at 4, 2 and 1 bits a
        // digit, the mod-b path, exactly the 20 hash bytes at (32, 32), and
        // a second block at (36, 32).
        let pinned: [((u16, usize), [&str; 4]); 6] = [
            ((16, 8), ["ee3a93ad", "d4a1e5af", "ce7de3c7", "2eb328a7"]),
            ((4, 6), ["302213", "112233", "300331", "022231"]),
            (
                (2, 64),
                [
                    "1011000011010010110101100111101001110111110001011001110001011011",
                    "0110110100001011100000011100111110110010010110000111101001011111",
                    "1010010110111100011101001000010100110111111010110111110000111110",
                    "0010001001111000110111101001001101000111110111000100000101011110",
                ],
            ),
            (
                (10, 12),
                [
                    "915035748378",
                    "455028937640",
                    "640151616524",
                    "054780316902",
                ],
            ),
            (
                (32, 32),
                [
                    "9o1gtn2io0oapnvnlicqg5dduir7qs8r",
                    "2dp50b6elasq8flul7kcb87gjfjk1f9v",
                    "l11rft95flh212b4k88bquo515rfdvgf",
                    "dhi5glf5qpqsa16isrg84fcf9mon31af",
                ],
            ),
            (
                (36, 32),
                [
                    "q4dw408qc6ra970v0oo5nbded3zmmjl2",
                    "bo7csnno2kf3id265d5xmtt82slr5qmy",
                    "03e4210ooxv1ho1e6vyhgykhlpahkzqg",
                    "7vbvmo1fpg6x9m2j7mzum1gvwuflanme",
                ],
            ),
        ];
        for ((b, d), ids) in pinned {
            let space = IdSpace::new(b, d).unwrap();
            for (name, id) in ["", "node-0", "skylark.mp3", "obj-42"].iter().zip(ids) {
                assert_eq!(
                    space.id_from_hash(name.as_bytes()).to_string(),
                    id,
                    "b={b} d={d} {name:?}"
                );
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
