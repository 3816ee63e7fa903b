//! The packed `NodeId` against a byte-per-digit reference.
//!
//! `NodeId` keeps its digits as the wire sends them — two nibbles a
//! byte — and answers equality, order, hashing and the common-suffix
//! length from those bytes directly. `Model` below is the plain layout it
//! replaced: a vector of digits, rightmost first, with every operation
//! spelled out digit by digit. Each case draws a space (b in 2..=16, d up
//! to 64) and a handful of ids sharing suffixes of random lengths.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use hyperring_id::{IdSpace, NodeId, Suffix, MAX_DIGITS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: digits rightmost first, one byte each.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Model(Vec<u8>);

impl Model {
    fn cmp(&self, other: &Model) -> Ordering {
        self.0.len().cmp(&other.0.len()).then_with(|| {
            let msd = |m: &Model| m.0.iter().rev().copied().collect::<Vec<u8>>();
            msd(self).cmp(&msd(other))
        })
    }

    fn csuf_len(&self, other: &Model) -> usize {
        self.0
            .iter()
            .zip(&other.0)
            .take_while(|(a, b)| a == b)
            .count()
    }

    fn render(&self) -> String {
        self.0
            .iter()
            .rev()
            .map(|&d| match d {
                0..=9 => (b'0' + d) as char,
                _ => (b'a' + d - 10) as char,
            })
            .collect()
    }

    fn to_value(&self, base: u16) -> Option<u128> {
        self.0.iter().rev().try_fold(0u128, |acc, &d| {
            acc.checked_mul(base as u128)?.checked_add(d as u128)
        })
    }
}

fn hash_of(id: &NodeId) -> u64 {
    let mut h = DefaultHasher::new();
    id.hash(&mut h);
    h.finish()
}

/// A space and a few ids in it, drawn from `seed`: each id copies the
/// rightmost digits of an earlier one for a random length, so common
/// suffixes of every length occur.
fn case(seed: u64) -> (IdSpace, Vec<Model>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let b: u16 = rng.gen_range(2..=16);
    let d = rng.gen_range(1..=MAX_DIGITS);
    let space = IdSpace::new(b, d).expect("valid space");
    let mut ids: Vec<Model> = Vec::new();
    for _ in 0..6 {
        let mut digits: Vec<u8> = (0..d).map(|_| rng.gen_range(0..b) as u8).collect();
        if let Some(prev) = ids.last().filter(|_| rng.gen_bool(0.7)) {
            let k = rng.gen_range(0..=d);
            digits[..k].copy_from_slice(&prev.0[..k]);
        }
        ids.push(Model(digits));
    }
    // An exact duplicate, so equal ids meet too.
    ids.push(ids[0].clone());
    (space, ids)
}

fn check_one(space: IdSpace, m: &Model, x: &NodeId) {
    let d = space.digit_count();
    assert_eq!(x.digit_count(), d);
    assert_eq!(*x.digits_lsd(), m.0[..]);
    for (i, &v) in m.0.iter().enumerate() {
        assert_eq!(x.digit(i), v);
    }
    assert_eq!(x.to_string(), m.render());
    assert_eq!(x.write_ascii(&mut [0u8; MAX_DIGITS]), m.render());
    assert_eq!(space.parse_id(&m.render()).as_ref(), Ok(x));
    assert_eq!(x.to_value(space.base()), m.to_value(space.base()));
    assert!(space.contains(x));
    assert_eq!(
        NodeId::from_bytes(d, x.as_bytes()),
        Some(*x),
        "bytes round-trip"
    );
    for k in 0..=d {
        assert_eq!(x.suffix(k), Suffix::from_digits_lsd(&m.0[..k]));
    }
}

fn check_pair(mx: &Model, my: &Model, x: &NodeId, y: &NodeId) {
    assert_eq!(x == y, mx == my, "{x} vs {y}");
    assert_eq!(x.cmp(y), mx.cmp(my), "{x} vs {y}");
    if x == y {
        assert_eq!(hash_of(x), hash_of(y));
    }
    let k = mx.csuf_len(my);
    assert_eq!(x.csuf_len(y), k, "{x} vs {y}");
    assert_eq!(x.csuf(y), Suffix::from_digits_lsd(&mx.0[..k]));
    // `y`'s suffixes: x has each exactly up to their common length.
    for j in 0..=my.0.len() {
        let s = Suffix::from_digits_lsd(&my.0[..j]);
        assert_eq!(x.has_suffix(&s), j <= k, "{x} has suffix {s}?");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn packed_id_agrees_with_byte_per_digit_model(seed in 0u64..u64::MAX) {
        let (space, models) = case(seed);
        let ids: Vec<NodeId> = models
            .iter()
            .map(|m| space.id_from_digits(&m.0).expect("digits within base"))
            .collect();
        for (m, x) in models.iter().zip(&ids) {
            check_one(space, m, x);
        }
        for (mx, x) in models.iter().zip(&ids) {
            for (my, y) in models.iter().zip(&ids) {
                check_pair(mx, my, x, y);
            }
        }
    }
}

/// Ids of different lengths compare by length first and share at most
/// the shorter's digits, as the byte-per-digit layout did.
#[test]
fn ids_of_different_lengths() {
    let pairs: [(&[u8], &[u8]); 4] = [
        (&[1, 2, 3], &[1, 2, 3, 0]),
        (&[9; 64], &[9; 63]),
        (&[15, 1], &[15, 1, 0]),
        (&[1, 15], &[1]),
    ];
    for (a, b) in pairs {
        let (ma, mb) = (Model(a.to_vec()), Model(b.to_vec()));
        let (x, y) = (NodeId::from_digits_lsd(a), NodeId::from_digits_lsd(b));
        check_pair(&ma, &mb, &x, &y);
        check_pair(&mb, &ma, &y, &x);
    }
}

/// The packed bytes are the wire encoding: these literals are what the
/// codec wrote for these ids before `NodeId` adopted its layout.
#[test]
fn packed_bytes_are_the_recorded_wire_bytes() {
    let cases: [(u16, usize, &str, &[u8]); 4] = [
        (16, 8, "00f3a9b2", &[0xb2, 0xa9, 0xf3, 0x00]),
        (4, 5, "21233", &[0x33, 0x12, 0x02]),
        (2, 10, "1011001110", &[0x10, 0x11, 0x00, 0x11, 0x10]),
        (
            16,
            40,
            "0123456789abcdeffedcba98765432100f1e2d3c",
            &[
                0x3c, 0x2d, 0x1e, 0x0f, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0xef, 0xcd,
                0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
            ],
        ),
    ];
    for (b, d, s, wire) in cases {
        let id = IdSpace::new(b, d).unwrap().parse_id(s).unwrap();
        assert_eq!(id.as_bytes(), wire, "{s}");
    }
}
