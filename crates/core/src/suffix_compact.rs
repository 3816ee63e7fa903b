//! The suffix index behind the Definition-3.8 checker: members interned
//! as dense `u32` arena ids over byte-packed digits, witness lookups
//! answered by integer compares over a suffix-sorted order array.
//!
//! The checker must answer, per table entry, "does any live node carry
//! suffix `j ∘ x[i-1..0]`, and if so which one?". This index stores each
//! member once (`d` bytes of digits, least-significant first) plus one
//! `u32` per member in **suffix order**: the lexicographic order of the
//! LSD-first digit strings, under which the carriers of *any* suffix form
//! one contiguous range, and within the carriers of a length-`i` suffix
//! the digit at position `i` ascends. Both questions are then a binary
//! search:
//!
//! * *does any live node carry suffix `s`?* — is the range of `s`
//!   non-empty;
//! * *which one is the canonical witness?* — the numeric minimum of the
//!   range, answered in `O(log n)` by a segment tree of arena ids whose
//!   queries compare packed digit bytes instead of resolving `NodeId`s.
//!
//! The witness is the *smallest* carrier — the same choice
//! [`build_consistent_tables`](crate::build_consistent_tables) makes — so
//! index-driven checks and oracle-built networks agree exactly. The index
//! is built once per check, by one sort, and never changes after.

use std::cmp::Ordering;

use hyperring_id::{IdSpace, NodeId};

/// Sentinel arena id inside the segment tree: "no member in this span".
const NONE: u32 = u32::MAX;

/// A suffix index interned on dense `u32` ids, with `O(log n)` witness
/// queries.
pub(crate) struct CompactSuffixIndex {
    space: IdSpace,
    /// Digits of every member, LSD-first, `d` bytes per arena id; a
    /// member's arena id is its position in the build's input.
    bytes: Vec<u8>,
    /// Arena ids of the members, sorted in suffix order.
    order: Vec<u32>,
    /// Segment tree over `order` positions holding the numeric-minimum
    /// arena id of each span.
    seg: Vec<u32>,
    /// Leaf count of `seg` (a power of two covering `order.len()`).
    seg_base: usize,
}

impl CompactSuffixIndex {
    /// Builds the index over `ids`: copies each id's digits once, sorts
    /// the arena ids into suffix order and builds the witness tree.
    ///
    /// # Panics
    ///
    /// Panics if an id occurs twice ("duplicate table owners": the
    /// members are the owners of the tables under check).
    pub(crate) fn build(space: IdSpace, ids: impl IntoIterator<Item = NodeId>) -> Self {
        let d = space.digit_count();
        let mut bytes = Vec::new();
        for id in ids {
            debug_assert!(space.contains(&id), "id {id} not in space");
            bytes.extend_from_slice(&id.digits_lsd());
        }
        let n = bytes.len() / d;
        assert!(n < NONE as usize, "compact index arena full");
        let mut order: Vec<u32> = (0..n as u32).collect();
        let digits = |idx: u32| &bytes[idx as usize * d..][..d];
        order.sort_unstable_by(|&a, &b| digits(a).cmp(digits(b)));
        assert!(
            order.windows(2).all(|w| digits(w[0]) != digits(w[1])),
            "duplicate table owners"
        );
        let seg_base = n.next_power_of_two();
        let mut index = CompactSuffixIndex {
            space,
            bytes,
            order,
            seg: vec![NONE; 2 * seg_base],
            seg_base,
        };
        // Leaves are the suffix order; each inner node holds the numeric
        // minimum of its two children.
        index.seg[seg_base..seg_base + n].copy_from_slice(&index.order);
        for i in (1..seg_base).rev() {
            let (l, r) = (index.seg[2 * i], index.seg[2 * i + 1]);
            index.seg[i] = if l == NONE {
                r
            } else if r == NONE || index.cmp_numeric(l, r) != Ordering::Greater {
                l
            } else {
                r
            };
        }
        index
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// LSD-first digit slice of an interned id.
    #[inline]
    fn digits(&self, idx: u32) -> &[u8] {
        let d = self.space.digit_count();
        let start = idx as usize * d;
        &self.bytes[start..start + d]
    }

    /// Reconstructs the `NodeId` of an interned id.
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

    /// Whether `id` is a member. The id is unpacked once, before the
    /// binary search over the suffix order.
    pub(crate) fn contains(&self, id: &NodeId) -> bool {
        if id.digit_count() != self.space.digit_count() {
            return false;
        }
        let digits: &[u8] = &id.digits_lsd();
        self.order
            .binary_search_by(|&idx| self.digits(idx).cmp(digits))
            .is_ok()
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
    pub(crate) fn min_in_range(&self, lo: usize, hi: usize) -> Option<u32> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_id::Suffix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(space: IdSpace, ss: &[&str]) -> Vec<NodeId> {
        ss.iter().map(|s| space.parse_id(s).unwrap()).collect()
    }

    /// The canonical witness of `suffix`: the smallest member carrying
    /// it, found as the minimum of its carrier range.
    fn witness(index: &CompactSuffixIndex, suffix: &Suffix) -> Option<NodeId> {
        let s = suffix.digits_lsd();
        let k = s.len();
        let lo = index.order.partition_point(|&i| &index.digits(i)[..k] < s);
        let hi = lo + index.order[lo..].partition_point(|&i| &index.digits(i)[..k] == s);
        index.min_in_range(lo, hi).map(|i| index.resolve(i))
    }

    #[test]
    fn witness_is_the_smallest_carrier() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "112"]);
        let index = CompactSuffixIndex::build(space, v.iter().copied());
        // Suffix "12" is carried by 012 and 112; the witness is the smaller.
        assert_eq!(witness(&index, &v[0].suffix(2)).unwrap().to_string(), "012");
        // Members sit in suffix order: by last digit, then the next…
        let order: Vec<String> = index
            .order
            .iter()
            .map(|&i| index.resolve(i).to_string())
            .collect();
        assert_eq!(order, ["230", "012", "112"]);
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
            let compact = CompactSuffixIndex::build(space, members.iter().copied());
            assert_eq!(compact.len(), members.len());
            for id in &members {
                assert!(compact.contains(id));
                for k in 1..=space.digit_count() {
                    let s = id.suffix(k);
                    assert_eq!(witness(&compact, &s), scan(&s), "suffix {s}");
                }
            }
            // A suffix nobody carries (unless 33333 itself was drawn).
            let ghost = space.parse_id("33333").unwrap();
            for k in 1..=space.digit_count() {
                let s = ghost.suffix(k);
                assert_eq!(witness(&compact, &s), scan(&s));
            }
        }
    }

    #[test]
    fn min_in_range_is_numeric_minimum() {
        let space = IdSpace::new(4, 3).unwrap();
        // All carry suffix "12"; numeric min is 112.
        let v = ids(space, &["312", "112", "212"]);
        let index = CompactSuffixIndex::build(space, v.iter().copied());
        assert_eq!(witness(&index, &v[0].suffix(2)).unwrap().to_string(), "112");
        // Without 112, the next smallest carrier.
        let index = CompactSuffixIndex::build(space, [v[0], v[2]]);
        assert_eq!(witness(&index, &v[0].suffix(2)).unwrap().to_string(), "212");
    }
}
