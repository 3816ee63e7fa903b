use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use hyperring_id::{IdSpace, NodeId, Suffix};
use hyperring_sim::Prefetch;

/// The paper's per-neighbor state: `T` while the neighbor is still joining,
/// `S` once it is known to be an S-node (status *in_system*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// The neighbor has not (yet) been observed to be in the system.
    T,
    /// The neighbor is in the system.
    S,
}

/// One neighbor-table entry: a node and the state recorded for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The primary neighbor stored in this entry.
    pub node: NodeId,
    /// The recorded state of that neighbor.
    pub state: NodeState,
}

/// Per-table interner for node identifiers.
///
/// Every distinct id a table ever references (entries and reverse
/// neighbors) is stored exactly once and addressed by a dense `u32` index.
/// An id repeats across many slots of the same table (the owner alone
/// occupies `d` self entries), so interning is what collapses the per-node
/// footprint by an order of magnitude: each slot holds a 4-byte index
/// instead of a 33-byte `NodeId`.
///
/// The arena stores each id's own packed bytes ([`NodeId::as_bytes`]:
/// `⌈d/2⌉` bytes of nibbles, least-significant digit first), so interning
/// and resolving an id are copies. Digits ascend in significance along
/// the bytes, so [`cmp_ids`](Self::cmp_ids) compares from the last byte
/// back — the same order as `NodeId::Ord` for the equal-length ids of one
/// space.
///
/// Dedup goes through an open-addressing hash index over the stored bytes
/// (linear probing, power-of-two capacity, at most 7/8 full: four bytes a
/// slot, and most tables hold a few dozen ids in one or two cache lines of
/// index, so memory is worth more here than short probe runs). Each index
/// word carries eight hash bits the home position does not use above the
/// 24-bit arena index, so a probe reads an occupant's stored bytes only
/// when its tag matches: a miss — every fresh id — costs the index line
/// alone. That caps a table at [`ARENA_MAX`] interned ids. The hash is a
/// fixed function of the bytes, so index layout — like everything else in
/// a table — is identical from run to run.
#[derive(Debug, Clone)]
struct IdArena {
    /// Stored ids, [`stride`](Self::stride) bytes each.
    bytes: Vec<u8>,
    /// Hash index: [`EMPTY`] or `tag << 24 | arena index`, probed linearly
    /// from the key's home.
    index: Vec<u32>,
    digits: usize,
}

/// Initial hash-index capacity (a power of two). A table that has just
/// been created holds its owner only.
const INDEX_MIN: usize = 8;

impl IdArena {
    fn new(space: IdSpace) -> Self {
        IdArena {
            bytes: Vec::new(),
            index: vec![EMPTY; INDEX_MIN],
            digits: space.digit_count(),
        }
    }

    /// Bytes of one stored id: `⌈d/2⌉`.
    #[inline]
    fn stride(&self) -> usize {
        self.digits.div_ceil(2)
    }

    /// The stored form of `id`: its packed bytes.
    #[inline]
    fn key<'a>(&self, id: &'a NodeId) -> &'a [u8] {
        debug_assert_eq!(id.digit_count(), self.digits, "id from a foreign space");
        id.as_bytes()
    }

    #[inline]
    fn packed(&self, idx: u32) -> &[u8] {
        let stride = self.stride();
        let start = idx as usize * stride;
        &self.bytes[start..start + stride]
    }

    /// Number of interned ids.
    #[inline]
    fn len(&self) -> usize {
        self.bytes.len() / self.stride()
    }

    #[inline]
    fn resolve(&self, idx: u32) -> NodeId {
        NodeId::from_bytes(self.digits, self.packed(idx))
            .expect("interned bytes are an id's packing")
    }

    /// FNV-1a over the stored bytes, then one more multiply to spread the
    /// last byte into the high bits.
    #[inline]
    fn hash(key: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Where a key of hash `h` starts probing in an index of `capacity`
    /// slots: the top `log2(capacity)` bits.
    #[inline]
    fn home(h: u64, capacity: usize) -> usize {
        (h >> (64 - capacity.trailing_zeros())) as usize
    }

    /// The index word of arena index `idx` under hash `h`: bits 32..40 of
    /// the hash as the tag, which the home position reaches only past
    /// 2^24 index slots.
    #[inline]
    fn word(h: u64, idx: u32) -> u32 {
        ((h >> 32) as u32) << 24 | idx
    }

    /// Probes for `key` of hash `h`: `Ok(idx)` if interned, else
    /// `Err(pos)` with the empty index position where it belongs.
    #[inline]
    fn probe(&self, key: &[u8], h: u64) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let tag = Self::word(h, 0);
        let mut pos = Self::home(h, self.index.len());
        loop {
            let w = self.index[pos];
            if w == EMPTY {
                return Err(pos);
            }
            // Stored bytes only behind a matching tag, compared in an
            // explicit loop: an id is 4 bytes in the common shape, far
            // below where a `memcmp` call pays for itself.
            let idx = w & ARENA_IDX;
            if w & TAG_MASK == tag && self.packed(idx).iter().zip(key).all(|(a, b)| a == b) {
                return Ok(idx);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the hash index and re-seats every interned id.
    fn grow(&mut self) {
        let capacity = self.index.len() * 2;
        let mut index = vec![EMPTY; capacity];
        for idx in 0..self.len() as u32 {
            let h = Self::hash(self.packed(idx));
            let mut pos = Self::home(h, capacity);
            while index[pos] != EMPTY {
                pos = (pos + 1) & (capacity - 1);
            }
            index[pos] = Self::word(h, idx);
        }
        self.index = index;
    }

    /// Interns `id`, returning its stable dense index.
    fn intern(&mut self, id: &NodeId) -> u32 {
        let key = self.key(id);
        let h = Self::hash(key);
        match self.probe(key, h) {
            Ok(idx) => idx,
            Err(mut pos) => {
                let idx = self.len() as u32;
                assert!(idx < ARENA_MAX, "id arena full");
                if (idx as usize + 1) * 8 > self.index.len() * 7 {
                    self.grow();
                    pos = self.probe(key, h).expect_err("key absent before growth");
                }
                self.bytes.extend_from_slice(key);
                self.index[pos] = Self::word(h, idx);
                idx
            }
        }
    }

    /// The index word a probe for `id` reads first: the one cache line
    /// an `intern` of a fresh id touches, and the first of a hit's.
    #[inline]
    fn home_of(&self, id: &NodeId) -> *const u32 {
        let home = Self::home(Self::hash(self.key(id)), self.index.len());
        self.index.as_ptr().wrapping_add(home)
    }

    /// Index of `id` if it was ever interned.
    fn lookup(&self, id: &NodeId) -> Option<u32> {
        let key = self.key(id);
        self.probe(key, Self::hash(key)).ok()
    }

    /// Numeric order of two interned ids: their bytes from the
    /// most-significant end.
    #[inline]
    fn cmp_ids(&self, a: u32, b: u32) -> Ordering {
        let (pa, pb) = (self.packed(a), self.packed(b));
        for (x, y) in pa.iter().zip(pb).rev() {
            if x != y {
                return x.cmp(y);
            }
        }
        Ordering::Equal
    }
}

/// Empty-slot marker (also has [`S_BIT`] set, so it can never collide with
/// a real encoded entry).
const EMPTY: u32 = u32::MAX;
/// Entry-state flag: set when the recorded state is `S`.
const S_BIT: u32 = 1 << 31;
/// Low bits of an encoded entry: the arena index of its node.
const IDX_MASK: u32 = S_BIT - 1;
/// An index bit above [`ARENA_MAX`]: set in [`EMPTY`] and in every
/// vacated word ([`Vacancy`]), and in no entry, so it alone says a slot
/// holds none.
const NO_ENTRY: u32 = 1 << 30;

/// Whether a slot word holds an entry (not [`EMPTY`], not vacated).
#[inline]
fn holds_entry(raw: u32) -> bool {
    raw & NO_ENTRY == 0
}

/// What a vacated slot keeps in its word while it awaits repair. The
/// word is [`NO_ENTRY`] without [`S_BIT`], the attempts in bits 8..16 and
/// the wait in bits 0..8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Vacancy {
    /// Repair queries issued for the slot so far.
    pub(crate) attempts: u8,
    /// Detector ticks left before the slot may be queried again.
    pub(crate) wait: u8,
}

impl Vacancy {
    /// The slot word of this vacancy.
    #[inline]
    fn word(self) -> u32 {
        NO_ENTRY | u32::from(self.attempts) << 8 | u32::from(self.wait)
    }

    /// The vacancy a slot word holds, if it holds one.
    #[inline]
    fn of(raw: u32) -> Option<Vacancy> {
        (raw & (S_BIT | NO_ENTRY) == NO_ENTRY).then_some(Vacancy {
            attempts: (raw >> 8) as u8,
            wait: raw as u8,
        })
    }
}
/// Low bits of an [`IdArena`] index word: the arena index.
const ARENA_IDX: u32 = (1 << 24) - 1;
/// High bits of an [`IdArena`] index word: the tag.
const TAG_MASK: u32 = !ARENA_IDX;
/// Most ids one table interns, `2^24 − 1`: an index word's arena index
/// never reads all ones, so no tagged word equals [`EMPTY`], and a slot
/// word's index bits above it are free for [`NO_ENTRY`].
const ARENA_MAX: u32 = ARENA_IDX;

/// One reverse-neighbor membership `node ∈ R_x(slot)` as a single word:
/// the node's arena index in the high half, the slot in the low half.
/// Arena indices only ascend, so a fresh id's memberships sort after every
/// word already in the set, and one node's memberships are adjacent.
#[inline]
fn rev_key(slot: usize, idx: u32) -> u64 {
    (idx as u64) << 32 | slot as u64
}

/// The arena index of a [`rev_key`] word.
#[inline]
fn rev_idx(word: u64) -> u32 {
    (word >> 32) as u32
}

/// The slot of a [`rev_key`] word.
#[inline]
fn rev_slot(word: u64) -> usize {
    word as u32 as usize
}

/// An ordered set of `u64` words kept as sorted chunks of at most
/// [`CHUNK`] words each, chunk after chunk in ascending order. A word above
/// every other is appended without a search; any other insert shifts words
/// inside one chunk only, so its cost does not grow with the size of the
/// set beyond the binary search for the chunk. A set that fits one chunk is
/// a plain sorted `Vec`.
#[derive(Debug, Clone, Default)]
struct WordSet {
    chunks: Vec<Vec<u64>>,
}

/// Most words one [`WordSet`] chunk holds (4 KiB).
const CHUNK: usize = 512;

impl WordSet {
    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Index of the chunk `word` belongs to: the first whose last word is
    /// not below it, else the last chunk.
    #[inline]
    fn chunk_of(&self, word: u64) -> usize {
        self.chunks
            .partition_point(|c| c.last().is_some_and(|&w| w < word))
            .min(self.chunks.len().saturating_sub(1))
    }

    /// Inserts `word`; returns whether it was absent.
    fn insert(&mut self, word: u64) -> bool {
        // No chunk is ever left empty, so a last chunk has a last word.
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK && last.last() < Some(&word) => {
                last.push(word);
                return true;
            }
            // Most sets never outgrow one chunk: reserve the one handle.
            None => self.chunks = vec![Vec::new()],
            _ => {}
        }
        let c = self.chunk_of(word);
        let chunk = &mut self.chunks[c];
        let Err(pos) = chunk.binary_search(&word) else {
            return false;
        };
        if chunk.len() < CHUNK {
            chunk.insert(pos, word);
            return true;
        }
        // Full. Split where the word goes when that is past the middle:
        // words mostly arrive at the end of the set, and this leaves full
        // chunks behind them instead of half-full ones.
        let at = pos.max(CHUNK / 2);
        let mut upper = chunk.split_off(at);
        if pos < at {
            chunk.insert(pos, word);
        } else {
            upper.insert(0, word);
        }
        self.chunks.insert(c + 1, upper);
        true
    }

    /// Removes the words in `lo..hi`, a run that may span chunks; returns
    /// how many there were.
    fn remove_range(&mut self, lo: u64, hi: u64) -> usize {
        let mut removed = 0;
        let mut c = self.chunk_of(lo);
        while let Some(chunk) = self.chunks.get_mut(c) {
            let len = chunk.len();
            let end = chunk.partition_point(|&w| w < hi);
            let start = chunk[..end].partition_point(|&w| w < lo);
            removed += end - start;
            chunk.drain(start..end);
            if chunk.is_empty() {
                self.chunks.remove(c);
            } else {
                c += 1;
            }
            if end < len {
                break;
            }
        }
        removed
    }

    /// All words, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flatten().copied()
    }
}

/// A node's neighbor table: `d` levels × `b` entries.
///
/// Entry `(i, j)` holds a node sharing the rightmost `i` digits with the
/// owner and whose `i`-th digit is `j` (the paper's §2.1). The table also
/// tracks reverse neighbors — `R_x(i, j)` in the paper — which the join
/// protocol needs when a node switches to *in_system*.
///
/// Internally the table is a struct-of-arrays over an id-interning arena:
/// a dense `u32` slab holds one `arena index | state bit` word per
/// `(level, digit)` slot, and reverse neighbors live in one ordered set of
/// `(arena index, slot)` words for the whole table instead of a set of
/// 33-byte `NodeId`s per slot. At `d = 8`, `b = 16` this is roughly 1 KiB
/// per table — the difference between 4k-node and 100k-node simulations.
///
/// A slot is in one of four states: empty, *vacated*, `T` or `S`. A
/// vacated slot lost its entry to a crash and awaits repair; its word
/// carries the repair's attempt count and backoff wait instead of a node.
/// Every read of the entries — [`get`](Self::get), [`iter`](Self::iter),
/// the snapshots, the peer view — takes it for empty, so Definition 3.8
/// sees no difference; only [`is_vacated`](Self::is_vacated) and the
/// repair tell the two apart.
///
/// # Examples
///
/// ```
/// use hyperring_core::{Entry, NeighborTable, NodeState};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 5)?;
/// let me = space.parse_id("21233")?;
/// let mut t = NeighborTable::new(space, me);
/// t.set_self_entries(NodeState::S);
/// assert_eq!(t.get(2, 2).unwrap().node, me);
/// let y = space.parse_id("31033")?;
/// // y shares suffix "33" (2 digits) and y[2] = 0:
/// t.set(2, 0, Entry { node: y, state: NodeState::S });
/// assert_eq!(t.get(2, 0).unwrap().node, y);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NeighborTable {
    space: IdSpace,
    owner: NodeId,
    /// The owner's arena index (interned at construction), letting
    /// self-entry checks compare indices instead of ids.
    owner_idx: u32,
    arena: IdArena,
    /// One encoded entry per `(level, digit)` slot: [`EMPTY`], a
    /// [`Vacancy`] word, or `arena index | S_BIT`.
    slots: Box<[u32]>,
    /// Reverse-neighbor memberships as [`rev_key`] words: ordered by arena
    /// index (insertion order, not id order), then by slot. `reverse_of`
    /// and `reverse_runs` gather and sort by id on read.
    rev: WordSet,
    /// Membership epoch of the [peer view](Self::peer_indices): a plain
    /// per-table counter, stepped whenever the set of nodes the table
    /// references can have changed — a `set` to another node, a `clear`
    /// of a filled slot, an `add_reverse` that inserted, a
    /// `remove_reverse` that removed. Equal epochs of one table imply
    /// equal peer views; state flips leave it alone. Not an atomic:
    /// `add_reverse` is most of a join wave's inputs.
    peer_epoch: u64,
    /// Memoized full-table snapshot; rebuilt lazily after any entry
    /// mutation so repeated big-message sends between mutations share one
    /// row allocation instead of re-collecting `d×b` slots each time.
    snap: OnceLock<TableSnapshot>,
}

impl NeighborTable {
    /// Creates an empty table for `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `owner` does not belong to `space`.
    pub fn new(space: IdSpace, owner: NodeId) -> Self {
        assert!(space.contains(&owner), "owner id not in space");
        let slots = space.digit_count() * space.base() as usize;
        let mut arena = IdArena::new(space);
        let owner_idx = arena.intern(&owner);
        NeighborTable {
            space,
            owner,
            owner_idx,
            arena,
            slots: vec![EMPTY; slots].into_boxed_slice(),
            rev: WordSet::default(),
            peer_epoch: 0,
            snap: OnceLock::new(),
        }
    }

    /// Decodes one slot word back into an [`Entry`].
    #[inline]
    fn decode(&self, raw: u32) -> Option<Entry> {
        if !holds_entry(raw) {
            return None;
        }
        Some(Entry {
            node: self.arena.resolve(raw & IDX_MASK),
            state: if raw & S_BIT != 0 {
                NodeState::S
            } else {
                NodeState::T
            },
        })
    }

    /// Drops the memoized snapshot after an entry mutation.
    #[inline]
    fn invalidate_snapshot(&mut self) {
        self.snap.take();
    }

    /// The identifier space of the table.
    #[inline]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// The owning node.
    #[inline]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    #[inline]
    fn slot(&self, level: usize, digit: u8) -> usize {
        debug_assert!(level < self.space.digit_count(), "level {level} too big");
        debug_assert!((digit as u16) < self.space.base(), "digit {digit} too big");
        level * self.space.base() as usize + digit as usize
    }

    /// The `(level, digit)` entry, i.e. the paper's `N_x(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `level` or `digit` are out of range.
    #[inline]
    pub fn get(&self, level: usize, digit: u8) -> Option<Entry> {
        self.decode(self.slots[self.slot(level, digit)])
    }

    /// Whether the `(level, digit)` entry is filled: `get(..).is_some()`
    /// for one slot read, without resolving the neighbor's identifier.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `level` or `digit` are out of range.
    #[inline]
    pub fn is_filled(&self, level: usize, digit: u8) -> bool {
        holds_entry(self.slots[self.slot(level, digit)])
    }

    /// Sets the `(level, digit)` entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entry's node does not have the desired
    /// suffix for the slot (a protocol-invariant violation).
    pub fn set(&mut self, level: usize, digit: u8, entry: Entry) {
        debug_assert!(
            self.fits(level, digit, &entry.node),
            "node {} does not fit entry ({level}, {digit}) of {}",
            entry.node,
            self.owner
        );
        let s = self.slot(level, digit);
        let idx = self.arena.intern(&entry.node);
        // An empty or vacated word's index bits are no arena index, so
        // such a slot differs.
        self.peer_epoch += u64::from(self.slots[s] & IDX_MASK != idx);
        self.slots[s] = idx
            | if entry.state == NodeState::S {
                S_BIT
            } else {
                0
            };
        self.invalidate_snapshot();
    }

    /// Clears the `(level, digit)` entry. The join protocol never removes
    /// neighbors; the callers are the leave handlers, the failure
    /// detector's eviction pass with repair off, tests, and tooling.
    pub fn clear(&mut self, level: usize, digit: u8) {
        self.empty_slot(level, digit, EMPTY);
    }

    /// Vacates the `(level, digit)` entry: like [`clear`](Self::clear),
    /// but the slot remembers that it awaits repair, with no attempt made
    /// yet. The failure detector's eviction pass calls this when repair is
    /// on; the repair either refills the slot or, out of attempts, empties
    /// it.
    pub fn vacate(&mut self, level: usize, digit: u8) {
        self.empty_slot(level, digit, Vacancy::default().word());
    }

    /// Writes a word that holds no entry into a slot.
    fn empty_slot(&mut self, level: usize, digit: u8, word: u32) {
        let s = self.slot(level, digit);
        self.peer_epoch += u64::from(holds_entry(self.slots[s]));
        self.slots[s] = word;
        self.invalidate_snapshot();
    }

    /// Whether the `(level, digit)` slot is vacated: empty to every other
    /// read, and awaiting repair.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `level` or `digit` are out of range.
    #[inline]
    pub fn is_vacated(&self, level: usize, digit: u8) -> bool {
        Vacancy::of(self.slots[self.slot(level, digit)]).is_some()
    }

    /// Every vacated slot with its repair bookkeeping, in slot order.
    pub(crate) fn vacancies(&self) -> Vec<(usize, u8, Vacancy)> {
        let b = self.space.base() as usize;
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, &raw)| Vacancy::of(raw).map(|v| (s / b, (s % b) as u8, v)))
            .collect()
    }

    /// Rewrites the bookkeeping of the vacated `(level, digit)` slot, or
    /// with `None` gives the slot up to empty. Neither changes an entry,
    /// so the snapshot and the peer view stay as they are.
    pub(crate) fn set_vacancy(&mut self, level: usize, digit: u8, v: Option<Vacancy>) {
        let s = self.slot(level, digit);
        debug_assert!(Vacancy::of(self.slots[s]).is_some(), "slot not vacated");
        self.slots[s] = v.map_or(EMPTY, Vacancy::word);
    }

    /// Updates the recorded state of the `(level, digit)` entry if it
    /// currently stores `node`. Returns whether the state changed: asking
    /// for the state the slot already records costs one slot read, looks
    /// no identifier up and leaves the snapshot alone.
    pub fn set_state_if(
        &mut self,
        level: usize,
        digit: u8,
        node: &NodeId,
        state: NodeState,
    ) -> bool {
        let s = self.slot(level, digit);
        let raw = self.slots[s];
        let new = (raw & IDX_MASK) | if state == NodeState::S { S_BIT } else { 0 };
        if !holds_entry(raw) || new == raw || self.arena.lookup(node) != Some(raw & IDX_MASK) {
            return false;
        }
        self.slots[s] = new;
        self.invalidate_snapshot();
        true
    }

    /// Whether `node` may legally occupy entry `(level, digit)`: it shares
    /// the rightmost `level` digits with the owner and its `level`-th digit
    /// is `digit`.
    pub fn fits(&self, level: usize, digit: u8, node: &NodeId) -> bool {
        node.csuf_len(&self.owner) >= level && node.digit(level) == digit
    }

    /// The desired suffix of entry `(level, digit)`: `digit ∘ owner[level-1..0]`.
    pub fn desired_suffix(&self, level: usize, digit: u8) -> Suffix {
        self.owner.suffix(level).extend_left(digit)
    }

    /// Sets every self entry `N_x(i, x[i]) = x` with the given state
    /// (the paper chooses the primary `(i, x[i])`-neighbor of `x` to be `x`).
    pub fn set_self_entries(&mut self, state: NodeState) {
        let owner = self.owner;
        for i in 0..self.space.digit_count() {
            self.set(i, owner.digit(i), Entry { node: owner, state });
        }
    }

    /// Whether any entry of this table stores `node`. One interner lookup
    /// (a hash probe over the ids this table ever referenced) prunes the
    /// common miss; a hit costs a `d · b` word scan, resolving no
    /// `NodeId`.
    pub fn stores(&self, node: &NodeId) -> bool {
        match self.arena.lookup(node) {
            None => false,
            Some(idx) => self
                .slots
                .iter()
                .any(|&raw| holds_entry(raw) && raw & IDX_MASK == idx),
        }
    }

    /// Iterates all non-empty entries as `(level, digit, entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u8, Entry)> + '_ {
        let b = self.space.base() as usize;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(s, &raw)| self.decode(raw).map(|e| (s / b, (s % b) as u8, e)))
    }

    /// Number of non-empty entries.
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|&&raw| holds_entry(raw)).count()
    }

    /// Names the lines a delivery from `sender` (`None`: a timer or a
    /// control input) will touch first: the slot block, the index line
    /// where interning or looking up the sender starts, and the tail of
    /// the reverse set, where a fresh sender's membership is appended.
    pub(crate) fn prefetch(&self, sender: Option<&NodeId>, lines: &mut Prefetch) {
        lines.line(self.slots.as_ptr());
        if let Some(id) = sender {
            lines.line(self.arena.home_of(id));
        }
        if let Some(tail) = self.rev.chunks.last().and_then(|c| c.last()) {
            lines.line(tail);
        }
    }

    /// Adds `node` to the reverse-neighbor set `R_x(level, digit)`.
    pub fn add_reverse(&mut self, level: usize, digit: u8, node: NodeId) {
        let s = self.slot(level, digit);
        let idx = self.arena.intern(&node);
        self.peer_epoch += u64::from(self.rev.insert(rev_key(s, idx)));
    }

    /// Registers a run of reverse neighbors at once: each `(level, node)`
    /// joins `R(level, owner[level])`, interned in run order, as
    /// `add_reverse` one by one would. For a table whose reverse sets are
    /// still empty, as the builders of `V` have them: the words are sorted
    /// once and cut into full chunks, instead of inserted one at a time.
    /// Each chunk gets the capacity inserts would have grown it to, so the
    /// room a table has to grow in a run is what it always had.
    pub(crate) fn add_reverse_run(&mut self, run: impl ExactSizeIterator<Item = (usize, NodeId)>) {
        assert_eq!(self.rev.len(), 0, "reverse sets already filled");
        let mut words = Vec::with_capacity(run.len());
        for (level, node) in run {
            let s = self.slot(level, self.owner.digit(level));
            words.push(rev_key(s, self.arena.intern(&node)));
        }
        words.sort_unstable();
        words.dedup();
        self.peer_epoch += words.len() as u64;
        let grown = |c: &[u64]| {
            let mut chunk = Vec::with_capacity(c.len().next_power_of_two().max(4));
            chunk.extend_from_slice(c);
            chunk
        };
        self.rev.chunks = words.chunks(CHUNK).map(grown).collect();
    }

    /// Removes `node` from every reverse-neighbor set (the node is
    /// leaving). Returns how many sets contained it.
    pub fn remove_reverse(&mut self, node: &NodeId) -> usize {
        let Some(idx) = self.arena.lookup(node) else {
            return 0;
        };
        let removed = self.rev.remove_range(rev_key(0, idx), rev_key(0, idx + 1));
        self.peer_epoch += u64::from(removed > 0);
        removed
    }

    /// A replacement candidate sharing at least `min_csuf` digits with the
    /// owner: the first non-self entry at level `min_csuf` or deeper. Used
    /// by the leave extension — every node at level `i ≥ min_csuf` shares
    /// `≥ min_csuf` rightmost digits with the owner by the table invariant.
    pub fn find_sharer(&self, min_csuf: usize) -> Option<Entry> {
        let start = min_csuf * self.space.base() as usize;
        self.slots[start..]
            .iter()
            .find(|&&raw| holds_entry(raw) && raw & IDX_MASK != self.owner_idx)
            .and_then(|&raw| self.decode(raw))
    }

    /// All reverse neighbors across all entries, deduplicated.
    pub fn reverse_neighbors(&self) -> BTreeSet<NodeId> {
        self.reverse_sorted().into_iter().collect()
    }

    /// All reverse neighbors across all entries, deduplicated, in
    /// ascending id order (the owner included if a set holds it).
    pub(crate) fn reverse_sorted(&self) -> Vec<NodeId> {
        let distinct = self.distinct_by_id(self.rev.iter().map(rev_idx).collect());
        distinct.into_iter().map(|i| self.peer_id(i)).collect()
    }

    /// Deduplicates arena indices and orders them by the ids they stand
    /// for: an integer sort, then one packed-byte sort of the distinct.
    fn distinct_by_id(&self, mut indices: Vec<u32>) -> Vec<u32> {
        indices.sort_unstable();
        indices.dedup();
        indices.sort_unstable_by(|&a, &b| self.arena.cmp_ids(a, b));
        indices
    }

    /// The peer view: the arena index of every distinct node the table
    /// references — through an entry or a reverse set — other than its
    /// owner, in ascending id order. This is what the failure detector
    /// monitors; it caches the view against [`peer_epoch`](Self::peer_epoch).
    pub(crate) fn peer_indices(&self) -> Vec<u32> {
        let entries = self.slots.iter().filter(|&&raw| holds_entry(raw));
        self.distinct_by_id(
            entries
                .map(|&raw| raw & IDX_MASK)
                .chain(self.rev.iter().map(rev_idx))
                .filter(|&idx| idx != self.owner_idx)
                .collect(),
        )
    }

    /// See the `peer_epoch` field.
    #[inline]
    pub(crate) fn peer_epoch(&self) -> u64 {
        self.peer_epoch
    }

    /// The arena index of `node` if this table ever referenced it (one
    /// FNV probe). Indices are never reused, so an index names the same
    /// node for the table's whole life.
    #[inline]
    pub(crate) fn peer_index(&self, node: &NodeId) -> Option<u32> {
        self.arena.lookup(node)
    }

    /// The node behind an arena index.
    #[inline]
    pub(crate) fn peer_id(&self, idx: u32) -> NodeId {
        self.arena.resolve(idx)
    }

    /// The peer view resolved, with its epoch: test access for
    /// `tests/table_model.rs`, which lives outside the crate.
    #[doc(hidden)]
    pub fn peer_view(&self) -> (u64, Vec<NodeId>) {
        let ids = self.peer_indices().into_iter().map(|i| self.peer_id(i));
        (self.peer_epoch, ids.collect())
    }

    /// The reverse neighbor sharing the longest suffix with `target`,
    /// provided that is more than `above` digits; the smallest id among
    /// equals. The owner and `skip` never qualify. Scans the membership
    /// words in place; resolving a candidate is a copy of its bytes.
    pub(crate) fn closest_reverse(
        &self,
        target: &NodeId,
        skip: &NodeId,
        above: usize,
    ) -> Option<(usize, NodeId)> {
        let skip = self.arena.lookup(skip);
        let mut best: Option<(usize, u32)> = None;
        for idx in self.rev.iter().map(rev_idx) {
            if idx == self.owner_idx || Some(idx) == skip {
                continue;
            }
            let c = target.csuf_len(&self.arena.resolve(idx));
            let better = match best {
                None => c > above,
                Some((b, at)) => c > b || (c == b && self.arena.cmp_ids(idx, at).is_lt()),
            };
            if better {
                best = Some((c, idx));
            }
        }
        best.map(|(c, idx)| (c, self.peer_id(idx)))
    }

    /// The distinct non-owner nodes stored at levels `lo` and up, in slot
    /// order of first appearance.
    pub(crate) fn distinct_entries_from(&self, lo: usize) -> Vec<NodeId> {
        let mut seen: Vec<u32> = Vec::new();
        for &raw in &self.slots[lo * self.space.base() as usize..] {
            let idx = raw & IDX_MASK;
            if holds_entry(raw) && idx != self.owner_idx && !seen.contains(&idx) {
                seen.push(idx);
            }
        }
        seen.into_iter().map(|i| self.peer_id(i)).collect()
    }

    /// Reverse neighbors of one entry, in ascending id order. Each call is
    /// a pass over every membership of the table.
    pub fn reverse_of(&self, level: usize, digit: u8) -> impl Iterator<Item = NodeId> + '_ {
        let s = self.slot(level, digit);
        let mut run: Vec<u32> = self
            .rev
            .iter()
            .filter(|&k| rev_slot(k) == s)
            .map(rev_idx)
            .collect();
        run.sort_unstable_by(|&a, &b| self.arena.cmp_ids(a, b));
        run.into_iter().map(|idx| self.arena.resolve(idx))
    }

    /// Every reverse-neighbor membership as `(level, digit, node)`, in
    /// slot order and by ascending id within a slot: what `reverse_of`
    /// over every slot in turn yields, from one pass over the set.
    pub(crate) fn reverse_runs(&self) -> impl Iterator<Item = (usize, u8, NodeId)> + '_ {
        let b = self.space.base() as usize;
        let mut words: Vec<u64> = self.rev.iter().collect();
        words.sort_unstable_by(|&x, &y| {
            (rev_slot(x).cmp(&rev_slot(y))).then_with(|| self.arena.cmp_ids(rev_idx(x), rev_idx(y)))
        });
        words.into_iter().map(move |k| {
            let s = rev_slot(k);
            (s / b, (s % b) as u8, self.arena.resolve(rev_idx(k)))
        })
    }

    /// [`reverse_runs`](Self::reverse_runs) collected: test access for
    /// `tests/table_model.rs`, which lives outside the crate.
    #[doc(hidden)]
    pub fn reverse_runs_view(&self) -> Vec<(usize, u8, NodeId)> {
        self.reverse_runs().collect()
    }

    /// Takes an immutable snapshot of all non-empty entries, for inclusion
    /// in a protocol message.
    ///
    /// The snapshot is memoized: until the next entry mutation, further
    /// calls return the same shared row allocation (an `Arc` clone), so
    /// attaching the table to many messages costs O(1) per message.
    pub fn snapshot(&self) -> TableSnapshot {
        self.snap
            .get_or_init(|| self.snapshot_levels(0, self.space.digit_count()))
            .clone()
    }

    /// Snapshot restricted to levels `lo..hi` (the §6.2 "levels only"
    /// message-size reduction).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` exceeds the level count.
    pub fn snapshot_levels(&self, lo: usize, hi: usize) -> TableSnapshot {
        assert!(lo <= hi && hi <= self.space.digit_count());
        let b = self.space.base() as usize;
        self.snapshot_where(lo * b..hi * b, |_| true)
    }

    /// Snapshot filtered by the §6.2 bit-vector rule: for levels below
    /// `noti_level`, include only entries whose slot is *not* marked filled
    /// in `filled_bits`; from `noti_level` up, include everything.
    pub fn snapshot_bitvec(&self, noti_level: usize, filled_bits: &[u64]) -> TableSnapshot {
        let low = noti_level * self.space.base() as usize;
        self.snapshot_where(0..self.slots.len(), |slot| {
            slot >= low
                || filled_bits
                    .get(slot / 64)
                    .is_none_or(|w| w & (1u64 << (slot % 64)) == 0)
        })
    }

    /// Snapshot of the non-empty slots of `range` that `keep` admits, in
    /// the wire's row layout: each id's bytes are copied out of the arena.
    /// The rows are counted first and reserved exactly, since a table
    /// keeps its last full snapshot memoized.
    fn snapshot_where(
        &self,
        range: std::ops::Range<usize>,
        keep: impl Fn(usize) -> bool,
    ) -> TableSnapshot {
        let b = self.space.base() as usize;
        let wanted = |s: &usize| holds_entry(self.slots[*s]) && keep(*s);
        let row = row_len(self.space.digit_count());
        let mut bytes = Vec::with_capacity(range.clone().filter(wanted).count() * row);
        for s in range.filter(wanted) {
            let raw = self.slots[s];
            bytes.extend_from_slice(&[(s / b) as u8, (s % b) as u8]);
            bytes.extend_from_slice(self.arena.packed(raw & IDX_MASK));
            bytes.push(u8::from(raw & S_BIT != 0));
        }
        TableSnapshot(Arc::new(Photo {
            owner: self.owner,
            bytes,
        }))
    }

    /// The bit vector of filled entries (one bit per slot, level-major),
    /// as attached to a `JoinNotiMsg` in bit-vector mode.
    pub fn filled_bitvec(&self) -> Vec<u64> {
        let slots = self.slots.len();
        let mut bits = vec![0u64; slots.div_ceil(64)];
        for (s, &raw) in self.slots.iter().enumerate() {
            if holds_entry(raw) {
                bits[s / 64] |= 1u64 << (s % 64);
            }
        }
        bits
    }

    /// Renders the table like the paper's Figure 1: one column per level
    /// (highest first), one row per digit, empty entries blank.
    pub fn render(&self) -> String {
        let d = self.space.digit_count();
        let b = self.space.base() as usize;
        let width = d + 2;
        let mut out = String::new();
        out.push_str(&format!(
            "Neighbor table of node {}  (b={}, d={})\n",
            self.owner,
            self.space.base(),
            d
        ));
        for line in [true, false] {
            if line {
                let mut header = String::new();
                for i in (0..d).rev() {
                    header.push_str(&format!("{:>width$}", format!("lv{i}"), width = width + 1));
                }
                out.push_str(&header);
                out.push('\n');
            }
        }
        for j in 0..b {
            for i in (0..d).rev() {
                let cell = match self.get(i, j as u8) {
                    Some(e) => format!(
                        "{}{}",
                        e.node,
                        if e.state == NodeState::S { "" } else { "*" }
                    ),
                    None => String::new(),
                };
                out.push_str(&format!("{cell:>width$} ", width = width));
            }
            out.push('\n');
        }
        out
    }
}

/// A row of a [`TableSnapshot`], decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRow {
    /// Level `i` of the entry.
    pub level: u8,
    /// Digit `j` of the entry.
    pub digit: u8,
    /// The entry itself.
    pub entry: Entry,
}

/// An immutable, cheaply clonable copy of (part of) a neighbor table, as
/// carried inside protocol messages.
///
/// The rows are kept the way the wire codec sends them, back to back:
/// `[level][digit][packed id][state]`, the id least-significant digit
/// first, two digits a byte, and the state `0` for `T`, `1` for `S`. That
/// is 3 + ⌈d/2⌉ bytes a row (7 at b=16, d=8, where a [`SnapshotRow`] is
/// 36). A table builds a snapshot by copying each id's
/// bytes out of its arena, the codec sends one with a single copy, and
/// [`rows`](Self::rows) decodes a row only when the iterator reaches it.
///
/// Snapshots are reference-counted: attaching one to several messages,
/// cloning a [`Message`](crate::Message), or draining an
/// [`Effects`](crate::Effects) buffer never copies the rows, mirroring how
/// a real implementation would serialize a table once. The owner and the
/// rows sit behind one `Arc`, so a snapshot is 8 bytes inline in every
/// message that carries one.
#[derive(Debug, Clone)]
pub struct TableSnapshot(Arc<Photo>);

/// What a [`TableSnapshot`] shares.
#[derive(Debug)]
struct Photo {
    owner: NodeId,
    /// The rows, [`row_len`] bytes each.
    bytes: Vec<u8>,
}

/// Bytes of one snapshot row of `digits`-digit ids: level, digit, the id,
/// state.
#[inline]
fn row_len(digits: usize) -> usize {
    3 + digits.div_ceil(2)
}

/// One row of a [`TableSnapshot`] where it lies. The join handlers scan
/// these: level, digit, state, the node's digits and its common suffix
/// with another id come off the bytes, and a `NodeId` is built only on
/// request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedRow<'a> {
    bytes: &'a [u8],
    digits: usize,
}

impl PackedRow<'_> {
    /// Level `i` of the entry.
    #[inline]
    pub(crate) fn level(&self) -> usize {
        self.bytes[0] as usize
    }

    /// Digit `j` of the entry.
    #[inline]
    pub(crate) fn digit(&self) -> u8 {
        self.bytes[1]
    }

    /// The node's packed bytes.
    #[inline]
    fn id(&self) -> &[u8] {
        &self.bytes[2..self.bytes.len() - 1]
    }

    /// The recorded state of the node.
    #[inline]
    pub(crate) fn state(&self) -> NodeState {
        if self.bytes[self.bytes.len() - 1] != 0 {
            NodeState::S
        } else {
            NodeState::T
        }
    }

    /// Digit `i` of the node, for `i` below the digit count.
    #[inline]
    pub(crate) fn node_digit(&self, i: usize) -> u8 {
        (self.id()[i / 2] >> (4 * (i & 1))) & 0x0f
    }

    /// `|csuf(node, x)|` for an `x` of the snapshot's space: where the two
    /// packings first differ.
    #[inline]
    pub(crate) fn csuf_len(&self, x: &NodeId) -> usize {
        let (id, xs) = (self.id(), x.as_bytes());
        match (0..id.len()).find(|&i| id[i] != xs[i]) {
            None => self.digits,
            // An odd digit count leaves both padding nibbles zero, so a
            // high nibble that differs is a digit's.
            Some(i) => 2 * i + usize::from((id[i] ^ xs[i]) & 0x0f == 0),
        }
    }

    /// The node, built from the row's bytes.
    pub(crate) fn node(&self) -> NodeId {
        NodeId::from_bytes(self.digits, self.id()).expect("a snapshot row holds an id's packing")
    }

    /// The entry, built from the row's bytes.
    pub(crate) fn entry(&self) -> Entry {
        Entry {
            node: self.node(),
            state: self.state(),
        }
    }

    /// Whether the row belongs to `space`: a level below `d`, a digit
    /// below `b`, an id of `space` in its one packing, a state byte of 0
    /// or 1.
    fn is_valid(&self, space: &IdSpace) -> bool {
        self.level() < space.digit_count()
            && u16::from(self.digit()) < space.base()
            && self.bytes[self.bytes.len() - 1] <= 1
            && NodeId::from_bytes(self.digits, self.id()).is_some_and(|n| space.contains(&n))
    }
}

impl TableSnapshot {
    /// Builds a snapshot of `owner`'s table in `space` from decoded rows,
    /// kept in the order given: the inverse of [`rows`](Self::rows). The
    /// space fixes the row layout. Row validity — levels within `d`,
    /// digits within `b`, ids of `space` — is the caller's responsibility.
    pub fn from_rows(
        space: IdSpace,
        owner: NodeId,
        rows: impl IntoIterator<Item = SnapshotRow>,
    ) -> Self {
        let mut bytes = Vec::new();
        for r in rows {
            debug_assert!(space.contains(&r.entry.node), "row id from a foreign space");
            bytes.extend_from_slice(&[r.level, r.digit]);
            bytes.extend_from_slice(r.entry.node.as_bytes());
            bytes.push(u8::from(r.entry.state == NodeState::S));
        }
        TableSnapshot(Arc::new(Photo { owner, bytes }))
    }

    /// Rebuilds a snapshot of `owner`'s table in `space` from rows in the
    /// wire codec's layout — what [`row_bytes`](Self::row_bytes) returns —
    /// copying them once. Returns `None` unless `owner` is an id of
    /// `space` and `rows` is whole rows, each with a level below `d`, a
    /// digit below `b`, an id of `space` in its one packing and a state
    /// byte of 0 or 1.
    pub fn from_row_bytes(space: IdSpace, owner: NodeId, rows: &[u8]) -> Option<Self> {
        let digits = space.digit_count();
        let len = row_len(digits);
        let valid = space.contains(&owner)
            && rows.len().is_multiple_of(len)
            && rows
                .chunks_exact(len)
                .all(|bytes| PackedRow { bytes, digits }.is_valid(&space));
        valid.then(|| {
            TableSnapshot(Arc::new(Photo {
                owner,
                bytes: rows.to_vec(),
            }))
        })
    }

    /// The node whose table was photographed.
    #[inline]
    pub fn owner(&self) -> NodeId {
        self.0.owner
    }

    /// Rows (non-empty entries) in the snapshot, each decoded when the
    /// iterator reaches it.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = SnapshotRow> + '_ {
        self.packed_rows().map(|r| SnapshotRow {
            level: r.bytes[0],
            digit: r.bytes[1],
            entry: r.entry(),
        })
    }

    /// The rows back to back in the wire codec's layout: what a table body
    /// carries after its owner and row count.
    #[inline]
    pub fn row_bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The rows where they lie.
    pub(crate) fn packed_rows(&self) -> impl ExactSizeIterator<Item = PackedRow<'_>> + '_ {
        let digits = self.0.owner.digit_count();
        self.0
            .bytes
            .chunks_exact(row_len(digits))
            .map(move |bytes| PackedRow { bytes, digits })
    }

    /// Looks up entry `(level, digit)` in the snapshot.
    pub fn get(&self, level: usize, digit: u8) -> Option<Entry> {
        self.packed_rows()
            .find(|r| r.level() == level && r.digit() == digit)
            .map(|r| r.entry())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.packed_rows().len()
    }

    /// Whether the snapshot has no rows.
    pub fn is_empty(&self) -> bool {
        self.0.bytes.is_empty()
    }
}

impl fmt::Display for TableSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot of {} ({} rows)", self.owner(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::new(4, 5).unwrap()
    }

    fn id(s: &str) -> NodeId {
        space().parse_id(s).unwrap()
    }

    #[test]
    fn fits_enforces_desired_suffix() {
        let t = NeighborTable::new(space(), id("21233"));
        // Entry (2, 0): desired suffix 0 ∘ "33" = "033".
        assert!(t.fits(2, 0, &id("31033")));
        assert!(!t.fits(2, 0, &id("31133")));
        assert!(!t.fits(2, 0, &id("31030")));
        assert_eq!(t.desired_suffix(2, 0).to_string(), "033");
        // Level 0 entries only constrain the last digit.
        assert!(t.fits(0, 1, &id("33121")));
        assert!(!t.fits(0, 1, &id("33123")));
    }

    #[test]
    fn self_entries_cover_all_levels() {
        let me = id("21233");
        let mut t = NeighborTable::new(space(), me);
        t.set_self_entries(NodeState::T);
        for i in 0..5 {
            let e = t.get(i, me.digit(i)).unwrap();
            assert_eq!(e.node, me);
            assert_eq!(e.state, NodeState::T);
        }
        assert_eq!(t.filled(), 5);
    }

    #[test]
    fn set_state_if_only_matches_same_node() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set(
            2,
            0,
            Entry {
                node: id("31033"),
                state: NodeState::T,
            },
        );
        assert!(!t.set_state_if(2, 0, &id("21033"), NodeState::S));
        assert_eq!(t.get(2, 0).unwrap().state, NodeState::T);
        assert!(t.set_state_if(2, 0, &id("31033"), NodeState::S));
        assert_eq!(t.get(2, 0).unwrap().state, NodeState::S);
    }

    #[test]
    fn snapshot_reflects_entries_and_is_shared() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.owner(), id("21233"));
        assert_eq!(snap.get(0, 3).unwrap().node, id("21233"));
        assert!(snap.get(0, 0).is_none());
        let c = snap.clone();
        assert_eq!(c.row_bytes().as_ptr(), snap.row_bytes().as_ptr());
    }

    #[test]
    fn snapshot_is_memoized_until_mutation() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        let a = t.snapshot();
        let b = t.snapshot();
        // Same shared allocation until the table changes…
        assert_eq!(a.row_bytes().as_ptr(), b.row_bytes().as_ptr());
        t.set(
            0,
            1,
            Entry {
                node: id("33121"),
                state: NodeState::T,
            },
        );
        // …and a fresh one after any mutation.
        let c = t.snapshot();
        assert_ne!(a.row_bytes().as_ptr(), c.row_bytes().as_ptr());
        assert_eq!(c.len(), 6);
        assert_eq!(a.len(), 5);
        // A recorded-state change invalidates too.
        assert!(t.set_state_if(0, 1, &id("33121"), NodeState::S));
        assert_eq!(t.snapshot().get(0, 1).unwrap().state, NodeState::S);
        // Cloned tables keep working (and share the memo at clone time).
        let u = t.clone();
        assert_eq!(
            u.snapshot().row_bytes().as_ptr(),
            t.snapshot().row_bytes().as_ptr()
        );
    }

    #[test]
    fn snapshot_levels_restricts_range() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        let snap = t.snapshot_levels(2, 4);
        assert_eq!(snap.len(), 2);
        assert!(snap.rows().all(|r| (2..4).contains(&(r.level as usize))));
    }

    #[test]
    fn bitvec_snapshot_hides_filled_low_levels() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        // Receiver claims everything filled: low levels drop out, levels
        // >= noti_level stay.
        let all_ones = vec![u64::MAX; 4];
        let snap = t.snapshot_bitvec(3, &all_ones);
        assert_eq!(snap.len(), 2); // levels 3 and 4 self entries
                                   // Receiver claims nothing filled: everything included.
        let zeros = vec![0u64; 4];
        let snap = t.snapshot_bitvec(3, &zeros);
        assert_eq!(snap.len(), 5);
    }

    #[test]
    fn filled_bitvec_matches_entries() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set(
            0,
            1,
            Entry {
                node: id("33121"),
                state: NodeState::S,
            },
        );
        let bits = t.filled_bitvec();
        let slot = 1; // level 0, digit 1
        assert_ne!(bits[slot / 64] & (1 << (slot % 64)), 0);
        assert_eq!(bits.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn reverse_neighbor_bookkeeping() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.add_reverse(1, 3, id("31033"));
        t.add_reverse(1, 3, id("31033")); // dedup
        t.add_reverse(0, 3, id("13113"));
        assert_eq!(t.reverse_of(1, 3).count(), 1);
        let all = t.reverse_neighbors();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&id("31033")));
        assert_eq!(t.remove_reverse(&id("31033")), 1);
        assert_eq!(t.remove_reverse(&id("31033")), 0);
        assert_eq!(t.reverse_of(1, 3).count(), 0);
    }

    #[test]
    fn reverse_of_iterates_in_ascending_id_order() {
        let mut t = NeighborTable::new(space(), id("21233"));
        // Insert out of numeric order; iteration must come back sorted
        // (the golden digests hash reverse neighbors in this order).
        for s in ["31033", "01033", "21033", "11033"] {
            t.add_reverse(2, 0, id(s));
        }
        let got: Vec<NodeId> = t.reverse_of(2, 0).collect();
        let mut want = got.clone();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], id("01033"));
        assert_eq!(got[3], id("31033"));
    }

    #[test]
    fn word_set_matches_btree_across_chunk_splits() {
        let mut set = WordSet::default();
        let mut model = BTreeSet::new();
        assert_eq!(set.remove_range(0, u64::MAX), 0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..(5 * CHUNK) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Inserts in no order, so most take the search and the splits.
            let word = rev_key((x % 7) as usize, (x >> 40) as u32 % 4096);
            assert_eq!(set.insert(word), model.insert(word));
        }
        assert!(set.chunks.len() > 2);
        assert!(set.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
        assert_eq!(set.len(), model.len());
        assert!(set.iter().eq(model.iter().copied()));
        // One node's words, then runs of nodes wide enough to span chunks.
        for (lo, hi) in [(7, 8), (100, 101), (1000, 1900), (0, 50), (4000, 4096)] {
            let (lo, hi) = (rev_key(0, lo), rev_key(0, hi));
            let gone = model.range(lo..hi).count();
            model.retain(|w| !(lo..hi).contains(w));
            assert_eq!(set.remove_range(lo, hi), gone);
            assert!(set.iter().eq(model.iter().copied()));
            assert!(set.chunks.iter().all(|c| !c.is_empty()));
        }
        assert_eq!(set.remove_range(0, u64::MAX), model.len());
        assert!(set.chunks.is_empty());
    }

    #[test]
    fn word_set_growing_at_a_run_end_leaves_full_chunks() {
        // Fresh ids, one or two slots each: every word is above the set,
        // what a much-referenced node's reverse set sees from joiners.
        let mut set = WordSet::default();
        let mut model = BTreeSet::new();
        for idx in 0..(2 * CHUNK as u32) {
            for slot in [3, 5].into_iter().take(1 + idx as usize % 2) {
                assert!(set.insert(rev_key(slot, idx)));
                model.insert(rev_key(slot, idx));
            }
            assert!(!set.insert(rev_key(3, idx)), "a repeat is no insert");
        }
        assert!(set.chunks.len() > 2);
        assert!(set.iter().eq(model.iter().copied()));
        let (last, full) = set.chunks.split_last().unwrap();
        assert!(full.iter().all(|c| c.len() == CHUNK));
        assert_eq!(set.chunks.len(), model.len().div_ceil(CHUNK));
        assert!(!last.is_empty());
    }

    #[test]
    fn arena_tag_collisions_still_compare_bytes() {
        // 2^17 ids into one arena: the index doubles past 2^17 slots, and
        // 256 tags over them make equal tags in one probe run common.
        let space = IdSpace::new(16, 8).unwrap();
        let ids = |from: u32| {
            (from..from + (1 << 17)).map(move |i| {
                let x = i.wrapping_mul(0x9e37_79b1);
                let digits: Vec<u8> = (0..8).map(|k| (x >> (4 * k)) as u8 & 0xf).collect();
                space.id_from_digits(&digits).unwrap()
            })
        };
        let mut arena = IdArena::new(space);
        for (i, id) in ids(0).enumerate() {
            assert_eq!(arena.intern(&id), i as u32);
        }
        assert!(arena.index.len() >= 1 << 18);
        let mut tags = [0u32; 256];
        for &w in arena.index.iter().filter(|&&w| w != EMPTY) {
            tags[(w >> 24) as usize] += 1;
        }
        assert!(
            tags.iter().all(|&n| n > 256),
            "tags are not spread: {tags:?}"
        );
        // Neighbors share a home's high bits, so a tag taken from those
        // would match next door nearly always, and filter nothing.
        let pairs = arena.index.windows(2).filter(|p| !p.contains(&EMPTY));
        let (all, same) = pairs.fold((0, 0), |(all, same), p| {
            (all + 1, same + usize::from(p[0] >> 24 == p[1] >> 24))
        });
        assert!(same * 50 < all, "{same} of {all} neighbors share a tag");
        for (i, id) in ids(0).enumerate() {
            assert_eq!(arena.intern(&id), i as u32);
            assert_eq!(arena.lookup(&id), Some(i as u32));
        }
        assert_eq!(arena.len(), 1 << 17);
        assert!(ids(1 << 17).all(|id| arena.lookup(&id).is_none()));
    }

    #[test]
    fn a_reverse_run_registers_what_one_by_one_inserts_do() {
        // Three chunks' worth of reverse neighbors over several levels, a
        // few of them already interned as entries.
        let space = IdSpace::new(16, 5).unwrap();
        let me = space.parse_id("0a3c5").unwrap();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut others: Vec<NodeId> = Vec::new();
        while others.len() < 3 * CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let digits: Vec<u8> = (0..5).map(|i| (x >> (4 * i)) as u8 & 0xf).collect();
            let id = space.id_from_digits(&digits).unwrap();
            if id != me && !others.contains(&id) {
                others.push(id);
            }
        }
        let mut one = NeighborTable::new(space, me);
        one.set_self_entries(NodeState::S);
        for &node in others.iter().take(20) {
            let k = me.csuf_len(&node);
            let state = NodeState::S;
            one.set(k, node.digit(k), Entry { node, state });
        }
        let mut run = one.clone();
        for &node in &others {
            let k = me.csuf_len(&node);
            one.add_reverse(k, me.digit(k), node);
        }
        run.add_reverse_run(others.iter().map(|&node| (me.csuf_len(&node), node)));
        assert_eq!(run.arena.bytes, one.arena.bytes);
        assert_eq!(run.peer_view(), one.peer_view());
        assert!(run.rev.iter().eq(one.rev.iter()));
        assert!(run.rev.chunks.iter().all(|c| c.len() <= CHUNK));
    }

    #[test]
    fn interning_dedups_repeated_ids() {
        let me = id("21233");
        let mut t = NeighborTable::new(space(), me);
        // b=4, d=5 → 3 bytes an id; the owner is interned at
        // construction.
        assert_eq!(t.arena.bytes.len(), 3);
        t.set_self_entries(NodeState::S);
        // Five self entries, one interned id.
        assert_eq!(t.arena.bytes.len(), 3);
        t.set(
            2,
            0,
            Entry {
                node: id("31033"),
                state: NodeState::T,
            },
        );
        t.add_reverse(2, 0, id("31033"));
        assert_eq!(t.arena.bytes.len(), 6);
    }

    #[test]
    fn packed_rows_read_like_the_ids_they_hold() {
        // Odd and even d, power-of-two bases and others. Each id also comes
        // with copies that differ in one digit, so every common-suffix
        // length occurs.
        for (b, d) in [(4u16, 5usize), (16, 8), (16, 7), (10, 3), (12, 5)] {
            let space = IdSpace::new(b, d).unwrap();
            let mut ids = vec![
                space.id_from_digits(&vec![1; d]).unwrap(),
                space.id_from_digits(&vec![b as u8 - 1; d]).unwrap(),
            ];
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..12 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let digits: Vec<u8> = (0..d).map(|i| (x >> (5 * i)) as u8 % b as u8).collect();
                ids.push(space.id_from_digits(&digits).unwrap());
                for k in 0..d {
                    let mut near = digits.clone();
                    near[k] = (near[k] + 1) % b as u8;
                    ids.push(space.id_from_digits(&near).unwrap());
                }
            }
            let rows = ids.iter().map(|&node| SnapshotRow {
                level: 0,
                digit: 0,
                entry: Entry {
                    node,
                    state: NodeState::S,
                },
            });
            let snap = TableSnapshot::from_rows(space, ids[0], rows);
            assert_eq!(snap.len(), ids.len());
            for (row, node) in snap.packed_rows().zip(&ids) {
                assert_eq!(row.node(), *node);
                assert!((0..d).all(|i| row.node_digit(i) == node.digit(i)));
                for other in &ids {
                    assert_eq!(
                        row.csuf_len(other),
                        node.csuf_len(other),
                        "{node} / {other}"
                    );
                }
            }
        }
    }

    #[test]
    fn render_contains_owner_and_neighbors() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        let s = t.render();
        assert!(s.contains("21233"));
        assert!(s.contains("b=4, d=5"));
    }

    #[test]
    fn noop_set_state_if_keeps_the_memoized_snapshot() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        let snap = t.snapshot();
        // The slot does not store this node: nothing changes.
        assert!(!t.set_state_if(1, 3, &id("21033"), NodeState::T));
        assert_eq!(t.snapshot().row_bytes().as_ptr(), snap.row_bytes().as_ptr());
        // A real change drops the memo.
        assert!(t.set_state_if(1, 3, &id("21233"), NodeState::T));
        assert_ne!(t.snapshot().row_bytes(), snap.row_bytes());
        // Asking for the state the entry already has is not a change.
        let snap = t.snapshot();
        assert!(!t.set_state_if(1, 3, &id("21233"), NodeState::T));
        assert_eq!(t.snapshot().row_bytes().as_ptr(), snap.row_bytes().as_ptr());
    }

    #[test]
    fn stores_matches_entry_scan() {
        let mut t = NeighborTable::new(space(), id("21233"));
        t.set_self_entries(NodeState::S);
        assert!(t.stores(&id("21233")));
        let y = id("31033");
        assert!(!t.stores(&y));
        // Interned via a reverse set but not stored in any entry.
        t.add_reverse(2, 0, y);
        assert!(!t.stores(&y));
        t.set(
            2,
            0,
            Entry {
                node: y,
                state: NodeState::S,
            },
        );
        assert!(t.stores(&y));
        t.clear(2, 0);
        assert!(!t.stores(&y));
    }

    #[test]
    #[should_panic(expected = "owner id not in space")]
    fn rejects_owner_from_other_space() {
        let other = IdSpace::new(8, 3).unwrap();
        let id8 = other.parse_id("777").unwrap();
        NeighborTable::new(space(), id8);
    }
}
