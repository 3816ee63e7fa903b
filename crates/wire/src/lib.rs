//! Length-prefixed binary framing for the join-protocol messages.
//!
//! This crate is the byte-level boundary between the sans-io
//! [`JoinEngine`](hyperring_core::JoinEngine) and a real transport: every
//! [`Message`] (all 18 protocol types, the paper's Figure 4 plus the
//! extensions) round-trips through a compact hand-rolled encoding with no
//! external dependencies.
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 LE]  [version: u8]  [kind: u8]  [from: packed id]  [body...]
//! ```
//!
//! `len` counts everything after itself (version byte through the end of
//! the body), so a stream reader can split frames knowing only the first
//! four bytes. One UDP datagram carries exactly one frame; trailing bytes
//! are a decode error.
//!
//! Identifiers are packed least-significant digit first, one nibble per
//! digit (every base is at most 16). With an odd digit count the final
//! high nibble must be zero — non-zero padding is rejected, so every
//! message has exactly one encoding. This is also how a [`NodeId`] holds
//! its digits in memory, so encoding and decoding an id copy its bytes.
//!
//! A table body is its owner, a `u16` row count and the rows, each
//! `[level][digit][packed id][state]`. That is how a [`TableSnapshot`]
//! keeps its rows in memory, so encoding a table copies the snapshot's
//! bytes once, and decoding checks every row in order and then keeps the
//! checked bytes.
//!
//! # Strictness
//!
//! [`decode_frame`] never panics on arbitrary bytes. Every length is
//! bounds-checked before use ([`WireError::Truncated`], with row and word
//! counts additionally capped by the id-space geometry before any
//! allocation), the version and kind bytes are matched exactly, booleans
//! and state bytes must be `0`/`1`, digits must be below the base, and
//! levels must be at most `d`. [`WIRE_VERSION`] is bumped whenever any
//! encoding changes shape; there is no in-band negotiation — a frame with
//! any other version byte is rejected, which is the right failure mode for
//! a protocol whose peers are expected to upgrade in lockstep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use hyperring_core::{BitVec, Entry, Message, NodeState, TableSnapshot};
use hyperring_id::{IdSpace, NodeId};

/// Version byte stamped on (and required of) every frame.
pub const WIRE_VERSION: u8 = 1;

/// Bytes of the length prefix.
pub const LEN_PREFIX: usize = 4;

/// Everything that can go wrong turning bytes back into a [`Message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The length prefix exceeds the maximum frame for this id space.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// Maximum payload length for the space.
        max: u32,
    },
    /// The version byte was not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The kind byte named no message type.
    BadKind(u8),
    /// Bytes remained after a structurally complete frame.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A field inside the body violated its invariant.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { len, max } => {
                write!(f, "declared payload {len} exceeds space maximum {max}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame body")
            }
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Packed bytes of one identifier in `space`: `⌈d/2⌉`.
pub fn packed_id_len(space: &IdSpace) -> usize {
    space.digit_count().div_ceil(2)
}

/// Upper bound on the payload (post-prefix) bytes of any frame in `space`.
///
/// The bound is the largest message body — a `JoinWaitRlyMsg` carrying a
/// completely full table — plus a worst-case bit vector, so a receive
/// buffer of `LEN_PREFIX + max_payload_len` bytes fits every datagram.
pub fn max_payload_len(space: &IdSpace) -> usize {
    let id = packed_id_len(space);
    let d = space.digit_count();
    let b = space.base() as usize;
    let slots = d * b;
    let table = id + 2 + slots * (2 + id + 1);
    let bitvec = 1 + 2 + slots.div_ceil(64) * 8;
    // version + kind + from + (bool + next id + table) + bitvec headroom.
    2 + id + (1 + id + table) + bitvec
}

/// Upper bound on a whole frame (prefix included) in `space`.
pub fn max_frame_len(space: &IdSpace) -> usize {
    LEN_PREFIX + max_payload_len(space)
}

/// Appends the packed form of `id` onto `buf` (the same packing frames
/// use for every embedded identifier). Transports use this for their own
/// addressing headers — e.g. a destination id in front of a frame when one
/// socket serves many engines.
pub fn encode_id(space: &IdSpace, id: &NodeId, buf: &mut Vec<u8>) {
    put_id(space, id, buf);
}

/// Decodes one packed identifier from the front of `bytes`, returning the
/// id and the bytes consumed. Same strictness as in-frame ids: digits must
/// be below the base, padding nibbles zero.
pub fn decode_id(space: &IdSpace, bytes: &[u8]) -> Result<(NodeId, usize), WireError> {
    let mut r = Reader { bytes, pos: 0 };
    let id = r.id(space)?;
    Ok((id, r.pos))
}

fn kind_byte(msg: &Message) -> u8 {
    match msg {
        Message::CpRst { .. } => 0,
        Message::CpRly { .. } => 1,
        Message::JoinWait => 2,
        Message::JoinWaitRly { .. } => 3,
        Message::JoinNoti { .. } => 4,
        Message::JoinNotiRly { .. } => 5,
        Message::InSysNoti => 6,
        Message::SpeNoti { .. } => 7,
        Message::SpeNotiRly { .. } => 8,
        Message::RvNghNoti { .. } => 9,
        Message::RvNghNotiRly { .. } => 10,
        Message::LeaveNoti { .. } => 11,
        Message::LeaveNotiRly => 12,
        Message::RvNghForget => 13,
        Message::Ping => 14,
        Message::Pong => 15,
        Message::RepairQry { .. } => 16,
        Message::RepairRly { .. } => 17,
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_id(space: &IdSpace, id: &NodeId, out: &mut Vec<u8>) {
    debug_assert_eq!(
        id.digit_count(),
        space.digit_count(),
        "id from a foreign space"
    );
    // The id's own bytes are its encoding.
    out.extend_from_slice(id.as_bytes());
}

fn put_state(state: NodeState, out: &mut Vec<u8>) {
    out.push(match state {
        NodeState::T => 0,
        NodeState::S => 1,
    });
}

fn put_entry(space: &IdSpace, entry: &Entry, out: &mut Vec<u8>) {
    put_id(space, &entry.node, out);
    put_state(entry.state, out);
}

fn put_opt_entry(space: &IdSpace, entry: &Option<Entry>, out: &mut Vec<u8>) {
    match entry {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            put_entry(space, e, out);
        }
    }
}

fn put_table(space: &IdSpace, table: &TableSnapshot, out: &mut Vec<u8>) {
    put_id(space, &table.owner(), out);
    let rows = table.row_bytes();
    debug_assert!(table.len() <= u16::MAX as usize);
    debug_assert_eq!(
        rows.len(),
        table.len() * (3 + packed_id_len(space)),
        "snapshot of another space"
    );
    out.extend_from_slice(&(table.len() as u16).to_le_bytes());
    // A snapshot keeps its rows in this layout.
    out.extend_from_slice(rows);
}

fn put_bitvec(bits: &BitVec, out: &mut Vec<u8>) {
    out.push(bits.noti_level);
    debug_assert!(bits.words.len() <= u16::MAX as usize);
    out.extend_from_slice(&(bits.words.len() as u16).to_le_bytes());
    for w in &bits.words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends one frame for `msg` from `from` onto `buf` and returns the
/// frame's length in bytes.
///
/// `buf` is not cleared: a runtime keeps one scratch `Vec` per socket,
/// clears it between datagrams, and encodes straight into it — the only
/// copies are the field bytes themselves.
pub fn encode_frame(space: &IdSpace, from: NodeId, msg: &Message, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    buf.push(WIRE_VERSION);
    buf.push(kind_byte(msg));
    put_id(space, &from, buf);
    match msg {
        Message::CpRst { level } => buf.push(*level),
        Message::CpRly { level, table } => {
            buf.push(*level);
            put_table(space, table, buf);
        }
        Message::JoinWait => {}
        Message::JoinWaitRly {
            positive,
            next,
            table,
        } => {
            buf.push(u8::from(*positive));
            put_id(space, next, buf);
            put_table(space, table, buf);
        }
        Message::JoinNoti { table, filled_bits } => {
            put_table(space, table, buf);
            match filled_bits {
                None => buf.push(0),
                Some(bits) => {
                    buf.push(1);
                    put_bitvec(bits, buf);
                }
            }
        }
        Message::JoinNotiRly {
            positive,
            table,
            flag,
        } => {
            buf.push(u8::from(*positive));
            buf.push(u8::from(*flag));
            put_table(space, table, buf);
        }
        Message::InSysNoti => {}
        Message::SpeNoti { initiator, subject } => {
            put_id(space, initiator, buf);
            put_id(space, subject, buf);
        }
        Message::SpeNotiRly { subject } => put_id(space, subject, buf),
        Message::RvNghNoti { recorded } => put_state(*recorded, buf),
        Message::RvNghNotiRly { actual } => put_state(*actual, buf),
        Message::LeaveNoti { replacement } => put_opt_entry(space, replacement, buf),
        Message::LeaveNotiRly => {}
        Message::RvNghForget => {}
        Message::Ping => {}
        Message::Pong => {}
        Message::RepairQry {
            origin,
            target,
            level,
            digit,
        } => {
            put_id(space, origin, buf);
            put_id(space, target, buf);
            buf.push(*level);
            buf.push(*digit);
        }
        Message::RepairRly {
            level,
            digit,
            found,
        } => {
            buf.push(*level);
            buf.push(*digit);
            put_opt_entry(space, found, buf);
        }
    }
    let frame = buf.len() - start;
    let payload = (frame - LEN_PREFIX) as u32;
    buf[start..start + LEN_PREFIX].copy_from_slice(&payload.to_le_bytes());
    frame
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte not 0/1")),
        }
    }

    fn state(&mut self) -> Result<NodeState, WireError> {
        match self.u8()? {
            0 => Ok(NodeState::T),
            1 => Ok(NodeState::S),
            _ => Err(WireError::Malformed("state byte not T/S")),
        }
    }

    fn id(&mut self, space: &IdSpace) -> Result<NodeId, WireError> {
        let d = space.digit_count();
        let packed = self.take(packed_id_len(space))?;
        if d % 2 == 1 && packed[d / 2] >> 4 != 0 {
            return Err(WireError::Malformed("nonzero id padding nibble"));
        }
        NodeId::from_bytes(d, packed)
            .filter(|id| space.contains(id))
            .ok_or(WireError::Malformed("id digit exceeds base"))
    }

    fn level(&mut self, space: &IdSpace) -> Result<u8, WireError> {
        let level = self.u8()?;
        if level as usize > space.digit_count() {
            return Err(WireError::Malformed("level exceeds digit count"));
        }
        Ok(level)
    }

    fn entry(&mut self, space: &IdSpace) -> Result<Entry, WireError> {
        let node = self.id(space)?;
        let state = self.state()?;
        Ok(Entry { node, state })
    }

    fn opt_entry(&mut self, space: &IdSpace) -> Result<Option<Entry>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.entry(space)?)),
            _ => Err(WireError::Malformed("presence byte not 0/1")),
        }
    }

    /// A table body. Each row is checked in order, so the first bad field
    /// decides the error; the checked rows then become the snapshot's
    /// bytes as they are.
    fn table(&mut self, space: &IdSpace) -> Result<TableSnapshot, WireError> {
        let owner = self.id(space)?;
        let count = self.u16()? as usize;
        let slots = space.digit_count() * space.base() as usize;
        if count > slots {
            return Err(WireError::Malformed("row count exceeds table slots"));
        }
        let start = self.pos;
        for _ in 0..count {
            let level = self.u8()?;
            let digit = self.u8()?;
            if level as usize >= space.digit_count() {
                return Err(WireError::Malformed("row level exceeds digit count"));
            }
            if digit as u16 >= space.base() {
                return Err(WireError::Malformed("row digit exceeds base"));
            }
            self.entry(space)?;
        }
        TableSnapshot::from_row_bytes(*space, owner, &self.bytes[start..self.pos])
            .ok_or(WireError::Malformed("table rows"))
    }

    fn bitvec(&mut self, space: &IdSpace) -> Result<BitVec, WireError> {
        let noti_level = self.level(space)?;
        let count = self.u16()? as usize;
        let slots = space.digit_count() * space.base() as usize;
        if count > slots.div_ceil(64) {
            return Err(WireError::Malformed("bit-vector word count exceeds slots"));
        }
        let mut words = Vec::with_capacity(count);
        for _ in 0..count {
            words.push(self.u64()?);
        }
        Ok(BitVec { noti_level, words })
    }
}

/// Decodes one frame from the front of `bytes`.
///
/// Returns the overlay sender, the message, and how many bytes the frame
/// consumed (so a stream reader can advance). Rejects short buffers,
/// oversized length prefixes, wrong versions, unknown kinds, and every
/// malformed body field; never panics on arbitrary input.
pub fn decode_frame(space: &IdSpace, bytes: &[u8]) -> Result<(NodeId, Message, usize), WireError> {
    if bytes.len() < LEN_PREFIX {
        return Err(WireError::Truncated);
    }
    let payload = u32::from_le_bytes(bytes[..LEN_PREFIX].try_into().expect("4-byte slice"));
    let max = max_payload_len(space) as u32;
    if payload > max {
        return Err(WireError::Oversized { len: payload, max });
    }
    let payload = payload as usize;
    if bytes.len() - LEN_PREFIX < payload {
        return Err(WireError::Truncated);
    }
    let mut r = Reader {
        bytes: &bytes[LEN_PREFIX..LEN_PREFIX + payload],
        pos: 0,
    };
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let from = r.id(space)?;
    let msg = match kind {
        0 => Message::CpRst {
            level: r.level(space)?,
        },
        1 => Message::CpRly {
            level: r.level(space)?,
            table: r.table(space)?,
        },
        2 => Message::JoinWait,
        3 => Message::JoinWaitRly {
            positive: r.bool()?,
            next: r.id(space)?,
            table: r.table(space)?,
        },
        4 => {
            let table = r.table(space)?;
            let filled_bits = match r.u8()? {
                0 => None,
                1 => Some(r.bitvec(space)?),
                _ => return Err(WireError::Malformed("presence byte not 0/1")),
            };
            Message::JoinNoti { table, filled_bits }
        }
        5 => Message::JoinNotiRly {
            positive: r.bool()?,
            flag: r.bool()?,
            table: r.table(space)?,
        },
        6 => Message::InSysNoti,
        7 => Message::SpeNoti {
            initiator: r.id(space)?,
            subject: r.id(space)?,
        },
        8 => Message::SpeNotiRly {
            subject: r.id(space)?,
        },
        9 => Message::RvNghNoti {
            recorded: r.state()?,
        },
        10 => Message::RvNghNotiRly { actual: r.state()? },
        11 => Message::LeaveNoti {
            replacement: r.opt_entry(space)?,
        },
        12 => Message::LeaveNotiRly,
        13 => Message::RvNghForget,
        14 => Message::Ping,
        15 => Message::Pong,
        16 => {
            let origin = r.id(space)?;
            let target = r.id(space)?;
            let level = r.u8()?;
            let digit = r.u8()?;
            if level as usize >= space.digit_count() {
                return Err(WireError::Malformed("repair level exceeds digit count"));
            }
            if digit as u16 >= space.base() {
                return Err(WireError::Malformed("repair digit exceeds base"));
            }
            Message::RepairQry {
                origin,
                target,
                level,
                digit,
            }
        }
        17 => {
            let level = r.u8()?;
            let digit = r.u8()?;
            if level as usize >= space.digit_count() {
                return Err(WireError::Malformed("repair level exceeds digit count"));
            }
            if digit as u16 >= space.base() {
                return Err(WireError::Malformed("repair digit exceeds base"));
            }
            Message::RepairRly {
                level,
                digit,
                found: r.opt_entry(space)?,
            }
        }
        other => return Err(WireError::BadKind(other)),
    };
    if r.pos != r.bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: r.bytes.len() - r.pos,
        });
    }
    Ok((from, msg, LEN_PREFIX + payload))
}

/// Decodes a datagram that must contain exactly one frame (UDP rule).
pub fn decode_datagram(space: &IdSpace, bytes: &[u8]) -> Result<(NodeId, Message), WireError> {
    let (from, msg, consumed) = decode_frame(space, bytes)?;
    if consumed != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - consumed,
        });
    }
    Ok((from, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::{NeighborTable, ProtocolOptions};

    fn space() -> IdSpace {
        IdSpace::new(4, 5).unwrap()
    }

    fn id(s: &str) -> NodeId {
        space().parse_id(s).unwrap()
    }

    fn snap() -> TableSnapshot {
        let sp = space();
        let mut t = NeighborTable::new(sp, id("21233"));
        t.set_self_entries(NodeState::S);
        t.snapshot_levels(0, sp.digit_count())
    }

    fn roundtrip(sp: &IdSpace, from: NodeId, msg: &Message) {
        let mut buf = Vec::new();
        let n = encode_frame(sp, from, msg, &mut buf);
        assert_eq!(n, buf.len());
        let (got_from, got, consumed) = decode_frame(sp, &buf).expect("decode");
        assert_eq!(consumed, n);
        assert_eq!(got_from, from);
        let mut again = Vec::new();
        encode_frame(sp, got_from, &got, &mut again);
        assert_eq!(buf, again, "re-encode of decode differs");
    }

    #[test]
    fn every_kind_round_trips() {
        let sp = space();
        let me = id("21233");
        let peer = id("33121");
        let entry = Entry {
            node: peer,
            state: NodeState::S,
        };
        let msgs = vec![
            Message::CpRst { level: 3 },
            Message::CpRly {
                level: 2,
                table: snap(),
            },
            Message::JoinWait,
            Message::JoinWaitRly {
                positive: true,
                next: peer,
                table: snap(),
            },
            Message::JoinNoti {
                table: snap(),
                filled_bits: Some(BitVec {
                    noti_level: 2,
                    words: vec![0xdead_beef],
                }),
            },
            Message::JoinNotiRly {
                positive: false,
                table: snap(),
                flag: true,
            },
            Message::InSysNoti,
            Message::SpeNoti {
                initiator: me,
                subject: peer,
            },
            Message::SpeNotiRly { subject: peer },
            Message::RvNghNoti {
                recorded: NodeState::T,
            },
            Message::RvNghNotiRly {
                actual: NodeState::S,
            },
            Message::LeaveNoti {
                replacement: Some(entry),
            },
            Message::LeaveNotiRly,
            Message::RvNghForget,
            Message::Ping,
            Message::Pong,
            Message::RepairQry {
                origin: me,
                target: peer,
                level: 1,
                digit: 2,
            },
            Message::RepairRly {
                level: 1,
                digit: 2,
                found: Some(entry),
            },
        ];
        assert_eq!(msgs.len(), 18);
        for msg in &msgs {
            roundtrip(&sp, me, msg);
        }
    }

    #[test]
    fn frames_stay_under_the_space_maximum() {
        let sp = space();
        let mut buf = Vec::new();
        encode_frame(
            &sp,
            id("21233"),
            &Message::JoinWaitRly {
                positive: true,
                next: id("33121"),
                table: snap(),
            },
            &mut buf,
        );
        assert!(buf.len() <= max_frame_len(&sp));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let sp = space();
        let mut buf = Vec::new();
        encode_frame(&sp, id("21233"), &Message::Ping, &mut buf);
        buf[LEN_PREFIX] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame(&sp, &buf).err(),
            Some(WireError::BadVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let sp = space();
        let mut buf = Vec::new();
        encode_frame(
            &sp,
            id("21233"),
            &Message::CpRly {
                level: 1,
                table: snap(),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(decode_frame(&sp, &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let sp = space();
        let mut buf = vec![0u8; LEN_PREFIX];
        buf[..LEN_PREFIX].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&sp, &buf) {
            Err(WireError::Oversized { len, .. }) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_in_a_datagram_are_rejected() {
        let sp = space();
        let mut buf = Vec::new();
        encode_frame(&sp, id("21233"), &Message::Pong, &mut buf);
        buf.push(0);
        assert!(matches!(
            decode_datagram(&sp, &buf),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
        // decode_frame itself tolerates the extra byte (stream framing).
        assert!(decode_frame(&sp, &buf).is_ok());
    }

    #[test]
    fn nonzero_padding_nibble_is_rejected() {
        let sp = space(); // d = 5, odd: top nibble of last id byte is padding
        let mut buf = Vec::new();
        encode_frame(&sp, id("21233"), &Message::Ping, &mut buf);
        let last_id_byte = LEN_PREFIX + 2 + packed_id_len(&sp) - 1;
        buf[last_id_byte] |= 0xf0;
        assert_eq!(
            decode_frame(&sp, &buf).err(),
            Some(WireError::Malformed("nonzero id padding nibble"))
        );
    }

    #[test]
    fn engine_defaults_fit_the_frame_bound() {
        // The options type is pulled in so the codec crate's bound is
        // checked against the same geometry the runtimes configure.
        let _ = ProtocolOptions::new();
        for (b, d) in [(2u16, 10usize), (4, 5), (10, 4), (16, 8), (16, 40)] {
            let sp = IdSpace::new(b, d).unwrap();
            assert!(max_frame_len(&sp) < 1 << 20, "({b},{d}) frame bound sane");
            assert!(packed_id_len(&sp) <= 64);
        }
    }

    /// Frames are byte-identical to those of the byte-per-digit `NodeId`
    /// (literals recorded from it).
    #[test]
    fn frames_match_recorded_bytes() {
        let sp = IdSpace::new(16, 8).unwrap();
        let me = sp.parse_id("00f3a9b2").unwrap();
        let peer = sp.parse_id("7c0e5d13").unwrap();
        let msg = Message::RepairQry {
            origin: me,
            target: peer,
            level: 3,
            digit: 12,
        };
        let mut buf = Vec::new();
        encode_frame(&sp, me, &msg, &mut buf);
        assert_eq!(
            buf,
            [
                0x10, 0, 0, 0, 1, 16, 0xb2, 0xa9, 0xf3, 0, 0xb2, 0xa9, 0xf3, 0, 0x13, 0x5d, 0x0e,
                0x7c, 3, 12
            ]
        );
        let (from, _) = decode_datagram(&sp, &buf).unwrap();
        assert_eq!(from, me);
        let mut id_bytes = Vec::new();
        encode_id(&sp, &peer, &mut id_bytes);
        assert_eq!(decode_id(&sp, &id_bytes), Ok((peer, 4)));
        // A table-bearing frame, recorded from the encoder that held rows
        // as decoded `SnapshotRow`s: b=16 with an odd digit count (a zero
        // padding nibble in every id).
        let sp = IdSpace::new(16, 7).unwrap();
        let owner = sp.parse_id("0f3a9b2").unwrap();
        let (p1, p2) = (
            sp.parse_id("7c0e5d2").unwrap(),
            sp.parse_id("e41a9b2").unwrap(),
        );
        let mut t = NeighborTable::new(sp, owner);
        t.set_self_entries(NodeState::S);
        t.set(
            1,
            13,
            Entry {
                node: p1,
                state: NodeState::T,
            },
        );
        t.set(
            4,
            1,
            Entry {
                node: p2,
                state: NodeState::S,
            },
        );
        let table = t.snapshot();
        let msg = Message::JoinWaitRly {
            positive: false,
            next: p2,
            table: table.clone(),
        };
        let mut buf = Vec::new();
        encode_frame(&sp, owner, &msg, &mut buf);
        assert_eq!(
            buf,
            [
                80, 0, 0, 0, 1, 3, 178, 169, 243, 0, 0, 178, 169, 65, 14, 178, 169, 243, 0, 9, 0,
                0, 2, 178, 169, 243, 0, 1, 1, 11, 178, 169, 243, 0, 1, 1, 13, 210, 229, 192, 7, 0,
                2, 9, 178, 169, 243, 0, 1, 3, 10, 178, 169, 243, 0, 1, 4, 1, 178, 169, 65, 14, 1,
                4, 3, 178, 169, 243, 0, 1, 5, 15, 178, 169, 243, 0, 1, 6, 0, 178, 169, 243, 0, 1
            ]
        );
        let Ok((_, Message::JoinWaitRly { table: got, .. })) = decode_datagram(&sp, &buf) else {
            panic!("a JoinWaitRly frame");
        };
        assert!(got.rows().eq(table.rows()));
    }
}
