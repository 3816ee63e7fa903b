//! Property tests of the wire codec: every message type round-trips over
//! every id-space shape, and the decoder survives arbitrary, truncated,
//! bit-flipped, and wrong-version bytes without panicking.

use hyperring_core::{BitVec, Entry, Message, NodeState, SnapshotRow, TableSnapshot};
use hyperring_id::{IdSpace, NodeId};
use hyperring_wire::{
    decode_datagram, decode_frame, encode_frame, max_frame_len, WireError, LEN_PREFIX, WIRE_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Power-of-two and other bases, odd and even digit counts.
fn spaces() -> Vec<IdSpace> {
    [(2u16, 10usize), (4, 5), (8, 4), (16, 8), (10, 3), (16, 5)]
        .iter()
        .map(|&(b, d)| IdSpace::new(b, d).unwrap())
        .collect()
}

fn random_entry(space: &IdSpace, rng: &mut StdRng) -> Entry {
    Entry {
        node: space.random_id(rng),
        state: if rng.gen_bool(0.5) {
            NodeState::S
        } else {
            NodeState::T
        },
    }
}

fn random_table(space: &IdSpace, rng: &mut StdRng) -> TableSnapshot {
    let d = space.digit_count();
    let b = space.base() as usize;
    let rows = rng.gen_range(0..=(d * b).min(24));
    let rows = (0..rows)
        .map(|_| SnapshotRow {
            level: rng.gen_range(0..d) as u8,
            digit: rng.gen_range(0..b) as u8,
            entry: random_entry(space, rng),
        })
        .collect::<Vec<_>>();
    TableSnapshot::from_rows(*space, space.random_id(rng), rows)
}

fn random_bitvec(space: &IdSpace, rng: &mut StdRng) -> BitVec {
    let slots = space.digit_count() * space.base() as usize;
    let words = rng.gen_range(0..=slots.div_ceil(64));
    BitVec {
        noti_level: rng.gen_range(0..=space.digit_count()) as u8,
        words: (0..words).map(|_| rng.gen_range(0..u64::MAX)).collect(),
    }
}

/// One random message of the given kind index (0..18, the wire kinds).
fn random_message(space: &IdSpace, kind: usize, rng: &mut StdRng) -> Message {
    let d = space.digit_count();
    let b = space.base() as usize;
    let id = |rng: &mut StdRng| -> NodeId { space.random_id(rng) };
    match kind {
        0 => Message::CpRst {
            level: rng.gen_range(0..=d) as u8,
        },
        1 => Message::CpRly {
            level: rng.gen_range(0..=d) as u8,
            table: random_table(space, rng),
        },
        2 => Message::JoinWait,
        3 => Message::JoinWaitRly {
            positive: rng.gen_bool(0.5),
            next: id(rng),
            table: random_table(space, rng),
        },
        4 => Message::JoinNoti {
            table: random_table(space, rng),
            filled_bits: if rng.gen_bool(0.5) {
                Some(random_bitvec(space, rng))
            } else {
                None
            },
        },
        5 => Message::JoinNotiRly {
            positive: rng.gen_bool(0.5),
            table: random_table(space, rng),
            flag: rng.gen_bool(0.5),
        },
        6 => Message::InSysNoti,
        7 => Message::SpeNoti {
            initiator: id(rng),
            subject: id(rng),
        },
        8 => Message::SpeNotiRly { subject: id(rng) },
        9 => Message::RvNghNoti {
            recorded: random_entry(space, rng).state,
        },
        10 => Message::RvNghNotiRly {
            actual: random_entry(space, rng).state,
        },
        11 => Message::LeaveNoti {
            replacement: if rng.gen_bool(0.5) {
                Some(random_entry(space, rng))
            } else {
                None
            },
        },
        12 => Message::LeaveNotiRly,
        13 => Message::RvNghForget,
        14 => Message::Ping,
        15 => Message::Pong,
        16 => Message::RepairQry {
            origin: id(rng),
            target: id(rng),
            level: rng.gen_range(0..d) as u8,
            digit: rng.gen_range(0..b) as u8,
        },
        17 => Message::RepairRly {
            level: rng.gen_range(0..d) as u8,
            digit: rng.gen_range(0..b) as u8,
            found: if rng.gen_bool(0.5) {
                Some(random_entry(space, rng))
            } else {
                None
            },
        },
        _ => unreachable!("18 wire kinds"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode → decode → re-encode is byte-identical for every message
    /// kind over every space shape, and the sender survives the trip.
    #[test]
    fn round_trip_all_kinds_all_spaces(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for space in spaces() {
            for kind in 0..18usize {
                let from = space.random_id(&mut rng);
                let msg = random_message(&space, kind, &mut rng);
                let mut buf = Vec::new();
                let n = encode_frame(&space, from, &msg, &mut buf);
                prop_assert_eq!(n, buf.len());
                prop_assert!(n <= max_frame_len(&space));
                let (got_from, got) = decode_datagram(&space, &buf)
                    .map_err(|e| TestCaseError::fail(format!("kind {kind}: {e}")))?;
                prop_assert_eq!(got_from, from);
                let mut again = Vec::new();
                encode_frame(&space, got_from, &got, &mut again);
                prop_assert_eq!(&buf, &again, "kind {} re-encode differs", kind);
            }
        }
    }

    /// Several frames back to back decode in sequence via the stream API.
    #[test]
    fn frames_concatenate_for_stream_reads(seed in 0u64..1_000_000, count in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = IdSpace::new(4, 5).unwrap();
        let mut buf = Vec::new();
        let mut lens = Vec::new();
        for _ in 0..count {
            let from = space.random_id(&mut rng);
            let msg = random_message(&space, rng.gen_range(0..18), &mut rng);
            lens.push(encode_frame(&space, from, &msg, &mut buf));
        }
        let mut off = 0;
        for &expect in &lens {
            let (_, _, consumed) = decode_frame(&space, &buf[off..]).unwrap();
            prop_assert_eq!(consumed, expect);
            off += consumed;
        }
        prop_assert_eq!(off, buf.len());
    }

    /// Every strict prefix of a valid frame is rejected, never panics.
    #[test]
    fn truncated_frames_are_rejected(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = IdSpace::new(16, 8).unwrap();
        let from = space.random_id(&mut rng);
        let msg = random_message(&space, rng.gen_range(0..18), &mut rng);
        let mut buf = Vec::new();
        encode_frame(&space, from, &msg, &mut buf);
        let cut = rng.gen_range(0..buf.len());
        prop_assert!(decode_frame(&space, &buf[..cut]).is_err());
    }

    /// A length prefix beyond the space maximum is rejected up front.
    #[test]
    fn oversized_frames_are_rejected(extra in 1u32..1_000_000) {
        let space = IdSpace::new(4, 5).unwrap();
        let max = (hyperring_wire::max_payload_len(&space)) as u32;
        let declared = max.saturating_add(extra);
        let mut buf = declared.to_le_bytes().to_vec();
        buf.resize(LEN_PREFIX + 16, 0);
        match decode_frame(&space, &buf) {
            Err(WireError::Oversized { len, .. }) => prop_assert_eq!(len, declared),
            other => return Err(TestCaseError::fail(format!("expected Oversized, got {other:?}"))),
        }
    }

    /// Any version byte but the current one is rejected.
    #[test]
    fn wrong_version_frames_are_rejected(seed in 0u64..1_000_000, version in 0u16..256) {
        let version = version as u8;
        let mut rng = StdRng::seed_from_u64(seed);
        let space = IdSpace::new(4, 5).unwrap();
        let from = space.random_id(&mut rng);
        let msg = random_message(&space, rng.gen_range(0..18), &mut rng);
        let mut buf = Vec::new();
        encode_frame(&space, from, &msg, &mut buf);
        buf[LEN_PREFIX] = version;
        if version == WIRE_VERSION {
            prop_assert!(decode_frame(&space, &buf).is_ok());
        } else {
            prop_assert_eq!(decode_frame(&space, &buf).err(), Some(WireError::BadVersion(version)));
        }
    }

    /// Completely arbitrary bytes: decode returns, it never panics, and an
    /// accidental success must describe a message that re-encodes cleanly.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u16..256, 0..256)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        for space in spaces() {
            if let Ok((from, msg, consumed)) = decode_frame(&space, &bytes) {
                prop_assert!(consumed <= bytes.len());
                let mut again = Vec::new();
                let n = encode_frame(&space, from, &msg, &mut again);
                prop_assert_eq!(n, consumed, "canonical encoding length");
                prop_assert_eq!(&again[..], &bytes[..consumed], "decode of valid bytes is canonical");
            }
        }
    }

    /// One flipped byte in a valid frame either fails cleanly or decodes
    /// to some message that re-encodes without panicking.
    #[test]
    fn single_byte_corruption_is_safe(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = IdSpace::new(4, 5).unwrap();
        let from = space.random_id(&mut rng);
        let msg = random_message(&space, rng.gen_range(0..18), &mut rng);
        let mut buf = Vec::new();
        encode_frame(&space, from, &msg, &mut buf);
        let at = rng.gen_range(0..buf.len());
        let bit = rng.gen_range(0..8u32);
        buf[at] ^= 1 << bit;
        if let Ok((got_from, got, _)) = decode_frame(&space, &buf) {
            let mut again = Vec::new();
            encode_frame(&space, got_from, &got, &mut again);
        }
    }
}
