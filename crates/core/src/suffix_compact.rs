//! The suffix index behind the Definition-3.8 checker: members interned
//! as dense `u32` arena ids over byte-packed digits, witness lookups
//! answered by integer compares over a suffix-sorted order array.
//!
//! The checker must answer, per table entry, "does any live node carry
//! suffix `j ∘ x[i-1..0]`, and if so which one?". This index stores each
//! member once (`d` bytes of digits, least-significant first) plus one
//! `u32` per live member in **suffix order**: the lexicographic order of
//! the LSD-first digit strings, under which the carriers of *any* suffix
//! form one contiguous range, and within the carriers of a length-`i`
//! suffix the digit at position `i` ascends. Both questions are then a
//! binary search:
//!
//! * *does any live node carry suffix `s`?* — is the range of `s`
//!   non-empty;
//! * *which one is the canonical witness?* — the numeric minimum of the
//!   range, answered in `O(log n)` by a segment tree of arena ids
//!   ([`seal`](CompactSuffixIndex::seal) builds it, queries compare packed
//!   digit bytes instead of resolving `NodeId`s).
//!
//! The witness is the *smallest* carrier — the same choice
//! [`build_consistent_tables`](crate::build_consistent_tables) makes — so
//! index-driven checks and oracle-built networks agree exactly.
//! Membership is incremental ([`insert`](CompactSuffixIndex::insert) /
//! [`remove`](CompactSuffixIndex::remove)), which is what lets
//! [`IncrementalChecker`](crate::IncrementalChecker) keep one index alive
//! across churn waves.

use std::cmp::Ordering;
use std::ops::Range;

use hyperring_id::{IdSpace, NodeId, Suffix};

/// Sentinel arena id inside the segment tree: "no member in this span".
const NONE: u32 = u32::MAX;

/// A suffix index interned on dense `u32` ids, with incremental
/// membership and `O(log n)` witness queries after [`seal`](Self::seal).
///
/// # Examples
///
/// ```
/// use hyperring_core::CompactSuffixIndex;
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 3)?;
/// let ids: Vec<_> = ["012", "230", "112"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let mut index = CompactSuffixIndex::build(space, ids.iter().copied());
/// index.seal();
/// // Suffix "12" is carried by 012 and 112; the witness is the smaller.
/// let witness = index.witness(&ids[0].suffix(2)).unwrap();
/// assert_eq!(witness.to_string(), "012");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompactSuffixIndex {
    space: IdSpace,
    /// Digits of every id ever interned, LSD-first, `d` bytes per id.
    /// Append-only: removed members keep their bytes (and their arena id
    /// stays resolvable), bounded by the total members ever inserted.
    bytes: Vec<u8>,
    /// Arena ids of the *live* members, sorted in suffix order.
    order: Vec<u32>,
    /// Segment tree over `order` positions holding the numeric-minimum
    /// arena id of each span; valid only while `sealed`.
    seg: Vec<u32>,
    /// Leaf count of `seg` (a power of two covering `order.len()`).
    seg_base: usize,
    sealed: bool,
}

impl CompactSuffixIndex {
    /// Creates an empty index over `space`.
    pub fn new(space: IdSpace) -> Self {
        CompactSuffixIndex {
            space,
            bytes: Vec::new(),
            order: Vec::new(),
            seg: Vec::new(),
            seg_base: 0,
            sealed: false,
        }
    }

    /// Builds an index over an initial membership (unsealed; call
    /// [`seal`](Self::seal) before witness queries).
    pub fn build(space: IdSpace, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut index = CompactSuffixIndex::new(space);
        for id in ids {
            index.insert(id);
        }
        index
    }

    /// The identifier space this index is defined over.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index holds no live members.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// LSD-first digit slice of an interned id.
    #[inline]
    pub(crate) fn digits(&self, idx: u32) -> &[u8] {
        let d = self.space.digit_count();
        let start = idx as usize * d;
        &self.bytes[start..start + d]
    }

    /// Reconstructs the `NodeId` of an interned id (live or tombstoned).
    pub(crate) fn resolve(&self, idx: u32) -> NodeId {
        NodeId::from_digits_lsd(self.digits(idx))
    }

    /// Numeric order of two interned ids — most-significant digit first,
    /// i.e. the digit slices compared back to front. Agrees with
    /// `NodeId::Ord` for the equal-length ids of one space.
    #[inline]
    fn cmp_numeric(&self, a: u32, b: u32) -> Ordering {
        let (da, db) = (self.digits(a), self.digits(b));
        for i in (0..da.len()).rev() {
            match da[i].cmp(&db[i]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Where `digits_lsd` sits in the live suffix order: `Ok(pos)` if the
    /// exact id is live at `order[pos]`, `Err(pos)` for its insertion
    /// point.
    fn position(&self, digits_lsd: &[u8]) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&idx| self.digits(idx).cmp(digits_lsd))
    }

    /// The arena id of a live member.
    pub(crate) fn index_of(&self, id: &NodeId) -> Option<u32> {
        if id.digit_count() != self.space.digit_count() {
            return None;
        }
        self.position(&id.digits_lsd())
            .ok()
            .map(|pos| self.order[pos])
    }

    /// Whether `id` is a live member.
    pub fn contains(&self, id: &NodeId) -> bool {
        self.index_of(id).is_some()
    }

    /// Adds a member. Returns `false` (and changes nothing) if it was
    /// already live. Unseals the index.
    pub fn insert(&mut self, id: NodeId) -> bool {
        debug_assert!(self.space.contains(&id), "id {id} not in space");
        let digits = id.digits_lsd();
        match self.position(&digits) {
            Ok(_) => false,
            Err(pos) => {
                let d = self.space.digit_count();
                let idx = (self.bytes.len() / d) as u32;
                assert!(idx < NONE, "compact index arena full");
                self.bytes.extend_from_slice(&digits);
                self.order.insert(pos, idx);
                self.sealed = false;
                true
            }
        }
    }

    /// Removes a member. Returns `false` (and changes nothing) if it was
    /// not live. The arena bytes are kept (tombstoned), so previously
    /// handed-out arena ids stay resolvable. Unseals the index.
    pub fn remove(&mut self, id: &NodeId) -> bool {
        if id.digit_count() != self.space.digit_count() {
            return false;
        }
        match self.position(&id.digits_lsd()) {
            Ok(pos) => {
                self.order.remove(pos);
                self.sealed = false;
                true
            }
            Err(_) => false,
        }
    }

    /// (Re)builds the witness segment tree; must be called after any
    /// membership change before [`witness`](Self::witness) /
    /// `min_in_range`. `O(n)`; a no-op when already
    /// sealed. Splitting the build from the (shared, `&self`) queries is
    /// what lets the checker fan table checks across threads.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let n = self.order.len();
        self.seg_base = n.next_power_of_two().max(1);
        self.seg.clear();
        self.seg.resize(2 * self.seg_base, NONE);
        self.seg[self.seg_base..self.seg_base + n].copy_from_slice(&self.order);
        for i in (1..self.seg_base).rev() {
            let (l, r) = (self.seg[2 * i], self.seg[2 * i + 1]);
            self.seg[i] = if l == NONE {
                r
            } else if r == NONE || self.cmp_numeric(l, r) != Ordering::Greater {
                l
            } else {
                r
            };
        }
        self.sealed = true;
    }

    /// Whether the witness structure is current.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The live members' positions `[lo, hi)` in suffix order whose ids
    /// end with `suffix_lsd` (LSD-first digits). The full order for an
    /// empty suffix.
    pub(crate) fn suffix_range(&self, suffix_lsd: &[u8]) -> Range<usize> {
        let k = suffix_lsd.len();
        let lo = self
            .order
            .partition_point(|&idx| &self.digits(idx)[..k] < suffix_lsd);
        let hi = lo + self.order[lo..].partition_point(|&idx| &self.digits(idx)[..k] == suffix_lsd);
        lo..hi
    }

    /// First position in `order[lo..hi]` whose digit at `pos` is `>= digit`.
    /// Callers guarantee `order[lo..hi]` has ascending digits at `pos`
    /// (true whenever the range is the carrier range of a length-`pos`
    /// suffix).
    #[inline]
    pub(crate) fn lower_bound_digit(&self, lo: usize, hi: usize, pos: usize, digit: u8) -> usize {
        lo + self.order[lo..hi].partition_point(|&idx| self.digits(idx)[pos] < digit)
    }

    /// Numeric-minimum arena id among `order[lo..hi]`, or `None` if the
    /// range is empty.
    ///
    /// # Panics
    ///
    /// Debug-panics if the index is not sealed.
    pub(crate) fn min_in_range(&self, lo: usize, hi: usize) -> Option<u32> {
        debug_assert!(self.sealed, "witness query on an unsealed index");
        if lo >= hi {
            return None;
        }
        let mut best = NONE;
        let consider = |cand: u32, best: &mut u32| {
            if cand != NONE && (*best == NONE || self.cmp_numeric(cand, *best) == Ordering::Less) {
                *best = cand;
            }
        };
        let (mut l, mut r) = (lo + self.seg_base, hi + self.seg_base);
        while l < r {
            if l & 1 == 1 {
                consider(self.seg[l], &mut best);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                consider(self.seg[r], &mut best);
            }
            l /= 2;
            r /= 2;
        }
        (best != NONE).then_some(best)
    }

    /// Witness arena id for an LSD-first digit suffix: the numeric-minimum
    /// live carrier. Requires a sealed index.
    pub(crate) fn witness_idx(&self, suffix_lsd: &[u8]) -> Option<u32> {
        let r = self.suffix_range(suffix_lsd);
        self.min_in_range(r.start, r.end)
    }

    /// The canonical witness for `suffix`: the smallest live node carrying
    /// it, or `None` if no live node does.
    ///
    /// # Panics
    ///
    /// Debug-panics if the index is not sealed.
    pub fn witness(&self, suffix: &Suffix) -> Option<NodeId> {
        self.witness_idx(suffix.digits_lsd())
            .map(|i| self.resolve(i))
    }

    /// The live arena ids in suffix order.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Iterates the live membership in suffix order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().map(|&idx| self.resolve(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(space: IdSpace, ss: &[&str]) -> Vec<NodeId> {
        ss.iter().map(|s| space.parse_id(s).unwrap()).collect()
    }

    #[test]
    fn witness_matches_brute_force_scan_on_random_memberships() {
        let space = IdSpace::new(4, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..20 {
            let n = 3 + round;
            let mut members = std::collections::BTreeSet::new();
            while members.len() < n {
                members.insert(space.random_id(&mut rng));
            }
            let members: Vec<NodeId> = members.into_iter().collect();
            let scan = |s: &Suffix| members.iter().filter(|m| m.has_suffix(s)).min().copied();
            let mut compact = CompactSuffixIndex::build(space, members.iter().copied());
            compact.seal();
            assert_eq!(compact.len(), members.len());
            for id in &members {
                assert!(compact.contains(id));
                for k in 1..=space.digit_count() {
                    let s = id.suffix(k);
                    assert_eq!(compact.witness(&s), scan(&s), "suffix {s}");
                }
            }
            // A suffix nobody carries (unless 33333 itself was drawn).
            let ghost = space.parse_id("33333").unwrap();
            for k in 1..=space.digit_count() {
                let s = ghost.suffix(k);
                assert_eq!(compact.witness(&s), scan(&s));
            }
        }
    }

    #[test]
    fn insert_and_remove_are_inverses() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "112"]);
        let mut index = CompactSuffixIndex::build(space, v.iter().copied());
        let extra = space.parse_id("333").unwrap();
        assert!(index.insert(extra));
        assert!(!index.insert(extra), "double insert must be a no-op");
        assert!(index.contains(&extra));
        index.seal();
        assert_eq!(index.witness(&extra.suffix(1)), Some(extra));
        assert!(index.remove(&extra));
        assert!(!index.remove(&extra), "double remove must be a no-op");
        assert!(!index.contains(&extra));
        index.seal();
        assert_eq!(index.witness(&extra.suffix(3)), None);
        assert_eq!(index.len(), 3);
        // Members survive in suffix order.
        let got: Vec<String> = index.members().map(|m| m.to_string()).collect();
        assert_eq!(got, vec!["230", "012", "112"]); // by last digit, then next…
    }

    #[test]
    fn removed_ids_stay_resolvable_and_reinsert_cleanly() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230"]);
        let mut index = CompactSuffixIndex::build(space, v.iter().copied());
        let idx = index.index_of(&v[0]).unwrap();
        assert!(index.remove(&v[0]));
        assert_eq!(index.resolve(idx), v[0], "tombstoned id must resolve");
        assert!(index.insert(v[0]), "re-join after departure");
        index.seal();
        assert_eq!(index.witness(&v[0].suffix(3)), Some(v[0]));
    }

    #[test]
    fn min_in_range_is_numeric_minimum() {
        let space = IdSpace::new(4, 3).unwrap();
        // All carry suffix "12"; numeric min is 112.
        let v = ids(space, &["312", "112", "212"]);
        let mut index = CompactSuffixIndex::build(space, v.iter().copied());
        index.seal();
        assert_eq!(index.witness(&v[0].suffix(2)).unwrap().to_string(), "112");
        index.remove(&v[1]);
        index.seal();
        assert_eq!(index.witness(&v[0].suffix(2)).unwrap().to_string(), "212");
    }
}
