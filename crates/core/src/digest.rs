//! Canonical table fingerprinting, shared by the golden determinism
//! tests and the scale harness.
//!
//! The byte stream is factored into per-table pieces ([`Fnv`],
//! [`digest_table_prefix`], [`digest_entry`], [`digest_reverse_sets`]) so
//! that [`tables_digest`] and the combined
//! [`digest_and_check_streaming`](crate::digest_and_check_streaming) pass
//! fold the *same* bytes — the latter interleaves digesting with the
//! Definition-3.8 check and reads each table's arena exactly once.

use hyperring_id::{NodeId, MAX_DIGITS};

use crate::table::{Entry, NeighborTable, NodeState};

/// Incremental FNV-1a, the crate's one stable digest: canonical table
/// renderings, trace streams ([`DigestTrace`](crate::DigestTrace)), retry
/// jitter salts and the sampled proximity builder's seeds. Spelled out
/// here (instead of `DefaultHasher`) so every digest is stable across
/// Rust releases and platforms; two runs produced identical tables iff
/// their digests match.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Starts at the FNV-1a offset basis.
    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// Starts at the offset basis XOR `seed`, a keyed variant.
    pub(crate) fn seeded(seed: u64) -> Self {
        Fnv(Self::OFFSET ^ seed)
    }

    /// Folds one whole word: XOR it in, then multiply by the FNV prime.
    /// For a byte this is the FNV-1a step.
    #[inline]
    pub(crate) fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds bytes into the running digest. Eating a string piece by piece
    /// equals eating it whole, which is what lets the canonical rendering
    /// be fed from stack buffers instead of `format!`.
    #[inline]
    pub(crate) fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    /// Folds `n` as `{n}` prints it.
    fn eat_decimal(&mut self, mut n: usize) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.eat(&buf[at..]);
    }

    /// Folds `{tag}{level}.{digit}.{node}`.
    fn eat_slot(&mut self, tag: u8, level: usize, digit: u8, node: &NodeId) {
        self.eat(&[tag]);
        self.eat_decimal(level);
        self.eat(b".");
        self.eat_decimal(digit as usize);
        self.eat(b".");
        self.eat_id(node);
    }

    /// Folds `node` as `{node}` prints it.
    fn eat_id(&mut self, node: &NodeId) {
        self.eat(node.write_ascii(&mut [0u8; MAX_DIGITS]).as_bytes());
    }

    /// The digest so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Digests a table's owner line (`T{owner}`) — the start of its canonical
/// rendering.
pub(crate) fn digest_table_prefix(h: &mut Fnv, t: &NeighborTable) {
    h.eat(b"T");
    h.eat_id(&t.owner());
}

/// Digests one non-empty entry (`E{level}.{digit}.{node}.{S|T}`). Must be
/// fed every non-empty entry in slot order (level-major, digit ascending)
/// to reproduce [`tables_digest`].
pub(crate) fn digest_entry(h: &mut Fnv, level: usize, digit: u8, e: &Entry) {
    h.eat_slot(b'E', level, digit, &e.node);
    h.eat(if e.state == NodeState::S {
        b".S"
    } else {
        b".T"
    });
}

/// Digests a table's reverse-neighbor sets (`R{level}.{digit}.{r}` in
/// ascending id order per slot) — the tail of its canonical rendering.
pub(crate) fn digest_reverse_sets(h: &mut Fnv, t: &NeighborTable) {
    for (level, digit, r) in t.reverse_runs() {
        h.eat_slot(b'R', level, digit, &r);
    }
}

/// FNV-1a over a canonical rendering of every table: owner, all entries
/// `(level, digit, node, state)`, and all reverse-neighbor sets in
/// ascending id order.
pub fn tables_digest(tables: &[NeighborTable]) -> u64 {
    tables_digest_iter(tables.iter())
}

/// [`tables_digest`] over borrowed tables — the streaming form the scale
/// harness feeds from [`SimNetwork::tables_iter`](crate::SimNetwork::tables_iter)
/// without cloning a `Vec<NeighborTable>` first. Byte-identical to
/// [`tables_digest`] for the same table sequence.
pub fn tables_digest_iter<'a>(tables: impl IntoIterator<Item = &'a NeighborTable>) -> u64 {
    let mut h = Fnv::new();
    for t in tables {
        digest_table_prefix(&mut h, t);
        for (level, digit, e) in t.iter() {
            digest_entry(&mut h, level, digit, &e);
        }
        digest_reverse_sets(&mut h, t);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Entry;
    use hyperring_id::IdSpace;

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let space = IdSpace::new(4, 5).unwrap();
        let a = space.parse_id("21233").unwrap();
        let b = space.parse_id("31033").unwrap();
        let mut ta = NeighborTable::new(space, a);
        ta.set_self_entries(NodeState::S);
        let mut tb = NeighborTable::new(space, b);
        tb.set_self_entries(NodeState::S);
        let d1 = tables_digest(&[ta.clone(), tb.clone()]);
        let d2 = tables_digest(&[tb.clone(), ta.clone()]);
        assert_ne!(d1, d2, "table order must be part of the fingerprint");
        ta.set(
            2,
            0,
            Entry {
                node: b,
                state: NodeState::T,
            },
        );
        assert_ne!(d1, tables_digest(&[ta, tb]));
    }

    /// The canonical rendering, spelled with `format!` as the definition
    /// in the doc comments reads.
    fn rendered(tables: &[NeighborTable]) -> String {
        let mut s = String::new();
        for t in tables {
            s += &format!("T{}", t.owner());
            for (level, digit, e) in t.iter() {
                let state = if e.state == NodeState::S { 'S' } else { 'T' };
                s += &format!("E{level}.{digit}.{}.{state}", e.node);
            }
            for level in 0..t.space().digit_count() {
                for digit in 0..t.space().base() as u8 {
                    for r in t.reverse_of(level, digit) {
                        s += &format!("R{level}.{digit}.{r}");
                    }
                }
            }
        }
        s
    }

    #[test]
    fn digest_is_fnv_of_the_documented_rendering() {
        // Base 16 and 12 levels: letter digits, two-figure digit and
        // level numbers.
        let space = IdSpace::new(16, 12).unwrap();
        let a = space.parse_id("0123456789af").unwrap();
        let b = space.parse_id("ffffffffffff").unwrap();
        let c = space.parse_id("00000000000f").unwrap();
        let mut ta = NeighborTable::new(space, a);
        ta.set_self_entries(NodeState::S);
        ta.set(
            1,
            15,
            Entry {
                node: b,
                state: NodeState::T,
            },
        );
        ta.add_reverse(1, 10, b);
        ta.add_reverse(1, 10, c);
        let mut tb = NeighborTable::new(space, b);
        tb.set_self_entries(NodeState::T);
        tb.add_reverse(11, 15, b);
        let tables = [ta, tb];
        let text = rendered(&tables);
        assert!(text.contains("E11.0.0123456789af.S") && text.contains("R11.15.ffffffffffff"));
        let mut h = Fnv::new();
        h.eat(text.as_bytes());
        assert_eq!(tables_digest(&tables), h.finish());
    }

    #[test]
    fn iter_digest_matches_slice_digest() {
        let space = IdSpace::new(4, 5).unwrap();
        let a = space.parse_id("21233").unwrap();
        let b = space.parse_id("31033").unwrap();
        let mut ta = NeighborTable::new(space, a);
        ta.set_self_entries(NodeState::S);
        let mut tb = NeighborTable::new(space, b);
        tb.set_self_entries(NodeState::T);
        tb.add_reverse(0, 3, a);
        let tables = vec![ta, tb];
        assert_eq!(tables_digest(&tables), tables_digest_iter(tables.iter()));
    }
}
