//! `NeighborTable` against a plain model: entries in a `BTreeMap` by slot,
//! vacated slots in a `BTreeSet`, reverse neighbors in a
//! `BTreeSet<(slot, NodeId)>`. A vacated slot is empty to every read but
//! `is_vacated`: `get`, `is_filled`, `iter`, `filled`, `stores`,
//! `find_sharer`, `filled_bitvec`, the snapshots and the peer view all
//! pass over it. The table interns ids
//! behind a hash index and keeps reverse memberships as integer words in
//! insertion order; none of that may show through the public API, whose
//! contract — `reverse_of` ascending by id above all — the golden digests
//! depend on. Nor may it show through the peer view the failure detector
//! reads: every referenced node once, ascending by id, under an epoch
//! that moves whenever the view does. Snapshots are held to the same
//! model: for every shape, `snapshot()`, `snapshot_levels` and
//! `snapshot_bitvec` decode to exactly the rows `iter()` gives, and
//! `from_rows` and `from_row_bytes` round-trip them.

use std::collections::{BTreeMap, BTreeSet};

use hyperring_core::{Entry, NeighborTable, NodeState, SnapshotRow, TableSnapshot};
use hyperring_id::{IdSpace, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The id-space shapes the packed arena and the snapshot rows distinguish:
/// an odd and an even digit count, SHA-1 length, and a base that is not a
/// power of two.
const SHAPES: [(u16, usize); 5] = [(4, 5), (16, 8), (16, 40), (10, 3), (16, 5)];

#[derive(Clone)]
struct Model {
    base: usize,
    entries: BTreeMap<usize, Entry>,
    vacated: BTreeSet<usize>,
    rev: BTreeSet<(usize, NodeId)>,
}

impl Model {
    fn slot(&self, level: usize, digit: u8) -> usize {
        level * self.base + digit as usize
    }

    fn reverse_of(&self, level: usize, digit: u8) -> Vec<NodeId> {
        let s = self.slot(level, digit);
        self.rev
            .iter()
            .filter(|(slot, _)| *slot == s)
            .map(|&(_, n)| n)
            .collect()
    }

    fn stores(&self, node: &NodeId) -> bool {
        self.entries.values().any(|e| e.node == *node)
    }

    /// The first entry at `min_csuf` or above, in slot order, that is not
    /// the owner.
    fn find_sharer(&self, owner: NodeId, min_csuf: usize) -> Option<Entry> {
        let mut from = self.entries.range(min_csuf * self.base..).map(|(_, e)| *e);
        from.find(|e| e.node != owner)
    }

    /// `entries ∪ reverse − {owner}`, ascending by id.
    fn peers(&self, owner: NodeId) -> Vec<NodeId> {
        let entries = self.entries.values().map(|e| e.node);
        let all: BTreeSet<NodeId> = entries.chain(self.rev.iter().map(|&(_, n)| n)).collect();
        all.into_iter().filter(|n| *n != owner).collect()
    }
}

/// An id that fits entry `(level, digit)` of `owner`'s table: the owner's
/// rightmost `level` digits, then `digit`, then `filler`'s digits.
fn fitting(space: IdSpace, owner: NodeId, level: usize, digit: u8, filler: NodeId) -> NodeId {
    let digits: Vec<u8> = (0..space.digit_count())
        .map(|i| match i.cmp(&level) {
            std::cmp::Ordering::Less => owner.digit(i),
            std::cmp::Ordering::Equal => digit,
            std::cmp::Ordering::Greater => filler.digit(i),
        })
        .collect();
    space.id_from_digits(&digits).expect("digits within base")
}

/// Full comparison of every public read against the model.
fn assert_same(space: IdSpace, t: &NeighborTable, m: &Model, pool: &[NodeId]) {
    for level in 0..space.digit_count() {
        for digit in 0..space.base() as u8 {
            let want = m.entries.get(&m.slot(level, digit)).copied();
            assert_eq!(t.get(level, digit), want);
            assert_eq!(t.is_filled(level, digit), want.is_some());
            assert_eq!(
                t.is_vacated(level, digit),
                m.vacated.contains(&m.slot(level, digit))
            );
            let got: Vec<NodeId> = t.reverse_of(level, digit).collect();
            assert!(
                got.is_sorted(),
                "reverse_of({level}, {digit}) not ascending"
            );
            assert_eq!(got, m.reverse_of(level, digit));
        }
    }
    // The one-pass read the digest takes is every slot's `reverse_of` in
    // slot order.
    let runs: Vec<(usize, u8, NodeId)> = (0..space.digit_count())
        .flat_map(|level| (0..space.base() as u8).map(move |digit| (level, digit)))
        .flat_map(|(level, digit)| t.reverse_of(level, digit).map(move |n| (level, digit, n)))
        .collect();
    assert_eq!(t.reverse_runs_view(), runs);
    assert_eq!(t.filled(), m.entries.len());
    for min_csuf in 0..=space.digit_count() {
        assert_eq!(
            t.find_sharer(min_csuf),
            m.find_sharer(t.owner(), min_csuf),
            "find_sharer({min_csuf})"
        );
    }
    let mut bits = vec![0u64; (space.digit_count() * m.base).div_ceil(64)];
    for &s in m.entries.keys() {
        bits[s / 64] |= 1 << (s % 64);
    }
    assert_eq!(t.filled_bitvec(), bits);
    let all: BTreeSet<NodeId> = m.rev.iter().map(|&(_, n)| n).collect();
    assert_eq!(t.reverse_neighbors(), all);
    for node in pool {
        assert_eq!(t.stores(node), m.stores(node), "stores({node})");
    }
}

/// Every snapshot of `t` against the rows `iter()` gives: the full one
/// (rows, length, lookups), a level range and a bit-vector filter picked
/// by `pick`, and the `from_rows` and `from_row_bytes` round trips.
fn assert_snapshots(space: IdSpace, t: &NeighborTable, pick: u64) {
    let (d, b) = (space.digit_count(), space.base() as usize);
    let reference: Vec<SnapshotRow> = t
        .iter()
        .map(|(level, digit, entry)| SnapshotRow {
            level: level as u8,
            digit,
            entry,
        })
        .collect();
    let full = t.snapshot();
    assert_eq!(full.rows().collect::<Vec<_>>(), reference);
    assert_eq!(full.len(), reference.len());
    for r in &reference {
        assert_eq!(full.get(r.level as usize, r.digit), Some(r.entry));
    }
    let pick = pick.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let lo = (pick >> 8) as usize % (d + 1);
    let hi = lo + (pick >> 24) as usize % (d + 1 - lo);
    let in_range = |r: &&SnapshotRow| (lo..hi).contains(&(r.level as usize));
    let want: Vec<SnapshotRow> = reference.iter().filter(in_range).copied().collect();
    assert_eq!(t.snapshot_levels(lo, hi).rows().collect::<Vec<_>>(), want);
    let bits: Vec<u64> = (0..(d * b).div_ceil(64) as u64)
        .map(|w| (pick ^ w).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .collect();
    let shown = |r: &&SnapshotRow| {
        let s = r.level as usize * b + r.digit as usize;
        r.level as usize >= lo || bits[s / 64] & (1u64 << (s % 64)) == 0
    };
    let want: Vec<SnapshotRow> = reference.iter().filter(shown).copied().collect();
    assert_eq!(
        t.snapshot_bitvec(lo, &bits).rows().collect::<Vec<_>>(),
        want
    );
    let again = TableSnapshot::from_rows(space, t.owner(), reference.iter().copied());
    assert_eq!(again.row_bytes(), full.row_bytes());
    assert_eq!(again.rows().collect::<Vec<_>>(), reference);
    let wired = TableSnapshot::from_row_bytes(space, t.owner(), full.row_bytes());
    assert_eq!(wired.map(|s| s.rows().collect::<Vec<_>>()), Some(reference));
}

/// Drives `ops` random operations over a pool of `pool_size` ids, checking
/// the touched slot after each and everything at the end.
fn run_case(base: u16, d: usize, seed: u64, ops: usize, pool_size: usize) {
    let space = IdSpace::new(base, d).expect("valid space");
    let mut rng = StdRng::seed_from_u64(seed);
    let owner = space.random_id(&mut rng);
    let pool: Vec<NodeId> = std::iter::once(owner)
        .chain((1..pool_size).map(|_| space.random_id(&mut rng)))
        .collect();
    let mut t = NeighborTable::new(space, owner);
    let mut m = Model {
        base: base as usize,
        entries: BTreeMap::new(),
        vacated: BTreeSet::new(),
        rev: BTreeSet::new(),
    };
    // A fork taken mid-run must stay what it was, whatever happens to the
    // table it was cloned from.
    let mut fork: Option<(NeighborTable, Model)> = None;
    let mut last_view = t.peer_view();

    for step in 0..ops {
        let level = rng.gen_range(0..d);
        let digit = rng.gen_range(0..base) as u8;
        let node = pool[rng.gen_range(0..pool.len())];
        let state = if rng.gen_bool(0.5) {
            NodeState::S
        } else {
            NodeState::T
        };
        let slot = m.slot(level, digit);
        match rng.gen_range(0..100) {
            0..=44 => {
                t.add_reverse(level, digit, node);
                m.rev.insert((slot, node));
            }
            45..=54 => {
                let before = m.rev.len();
                m.rev.retain(|&(_, n)| n != node);
                assert_eq!(t.remove_reverse(&node), before - m.rev.len());
            }
            55..=71 => {
                let entry = Entry {
                    node: fitting(space, owner, level, digit, node),
                    state,
                };
                t.set(level, digit, entry);
                m.entries.insert(slot, entry);
                m.vacated.remove(&slot);
            }
            72..=74 => {
                t.vacate(level, digit);
                m.entries.remove(&slot);
                m.vacated.insert(slot);
            }
            75..=79 => {
                t.clear(level, digit);
                m.entries.remove(&slot);
                m.vacated.remove(&slot);
            }
            80..=94 => {
                // Half the time aim at the node the slot really stores.
                let target = match m.entries.get(&slot) {
                    Some(e) if rng.gen_bool(0.5) => e.node,
                    _ => node,
                };
                let hit = m.entries.get(&slot).is_some_and(|e| e.node == target);
                let changed = m.entries.get(&slot).is_some_and(|e| e.state != state);
                assert_eq!(t.set_state_if(level, digit, &target, state), hit && changed);
                if hit {
                    m.entries.insert(
                        slot,
                        Entry {
                            node: target,
                            state,
                        },
                    );
                }
            }
            _ => {
                if step % 2 == 0 || fork.is_some() {
                    t = t.clone();
                } else {
                    fork = Some((t.clone(), m.clone()));
                }
            }
        }
        assert_eq!(t.get(level, digit), m.entries.get(&slot).copied());
        assert_eq!(t.is_vacated(level, digit), m.vacated.contains(&slot));
        assert_eq!(
            t.reverse_of(level, digit).collect::<Vec<_>>(),
            m.reverse_of(level, digit)
        );
        // A node held in a slot and in several reverse sets appears once
        // (`peers` is a set read in order), and a view that differs from
        // the last one comes under another epoch.
        let view = t.peer_view();
        assert_eq!(view.1, m.peers(owner), "peer view after step {step}");
        assert!(
            view.0 != last_view.0 || view.1 == last_view.1,
            "step {step}"
        );
        last_view = view;
        assert_snapshots(space, &t, step as u64);
    }
    assert_same(space, &t, &m, &pool);
    if let Some((ft, fm)) = fork {
        assert_same(space, &ft, &fm, &pool);
        assert_snapshots(space, &ft, ops as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Small pools: the same ids come back through every operation, so
    /// dedup, removal and re-insertion of an already interned id all run.
    #[test]
    fn table_agrees_with_model(
        seed in 0u64..1_000_000,
        shape in 0usize..SHAPES.len(),
        ops in 50usize..400,
        pool_size in 2usize..60,
    ) {
        let (base, d) = SHAPES[shape];
        run_case(base, d, seed, ops, pool_size);
    }
}

/// Many ids, few slots: the hash index doubles a dozen times on its way
/// past 10 000 interned ids, and single slots' runs spread over several
/// chunks of the reverse set.
#[test]
fn table_agrees_with_model_past_ten_thousand_ids() {
    for (base, d) in [(16, 8), (16, 40), (10, 5)] {
        let space = IdSpace::new(base, d).expect("valid space");
        let mut rng = StdRng::seed_from_u64(0x5eed ^ d as u64);
        let owner = space.random_id(&mut rng);
        let mut t = NeighborTable::new(space, owner);
        let mut m = Model {
            base: base as usize,
            entries: BTreeMap::new(),
            vacated: BTreeSet::new(),
            rev: BTreeSet::new(),
        };
        let mut ids = BTreeSet::new();
        while ids.len() < 12_000 {
            let node = space.random_id(&mut rng);
            ids.insert(node);
            // Three slots share the load; some ids land in two of them.
            for _ in 0..rng.gen_range(1..3) {
                let (level, digit) = (rng.gen_range(0..2), rng.gen_range(0..2) as u8 * 3);
                t.add_reverse(level, digit, node);
                m.rev.insert((m.slot(level, digit), node));
            }
        }
        let pool: Vec<NodeId> = ids.iter().copied().step_by(97).collect();
        assert_same(space, &t, &m, &pool);
        for node in &pool {
            let before = m.rev.len();
            m.rev.retain(|&(_, n)| n != *node);
            assert_eq!(t.remove_reverse(node), before - m.rev.len());
        }
        assert_same(space, &t.clone(), &m, &pool);
    }
}

/// One node in two slots whose memberships straddle two chunks of the
/// reverse set (512 words a chunk): one removal takes both, and the peer
/// view moves under one epoch step. Fresh ids before it push its two words
/// across every offset near the chunk's end.
#[test]
fn one_removal_takes_a_node_out_of_two_chunks() {
    let space = IdSpace::new(16, 8).expect("valid space");
    let mut rng = StdRng::seed_from_u64(0xc4a2);
    let owner = space.random_id(&mut rng);
    for before in 500..520 {
        let mut t = NeighborTable::new(space, owner);
        let mut m = Model {
            base: 16,
            entries: BTreeMap::new(),
            vacated: BTreeSet::new(),
            rev: BTreeSet::new(),
        };
        let mut add = |t: &mut NeighborTable, level, digit, node| {
            t.add_reverse(level, digit, node);
            m.rev.insert((m.slot(level, digit), node));
        };
        for _ in 0..before {
            add(&mut t, 0, 3, space.random_id(&mut rng));
        }
        let node = space.random_id(&mut rng);
        add(&mut t, 0, 3, node);
        add(&mut t, 1, 9, node);
        for _ in 0..5 {
            add(&mut t, 1, 9, space.random_id(&mut rng));
        }
        let (epoch, _) = t.peer_view();
        assert_eq!(t.remove_reverse(&node), 2, "after {before}");
        m.rev.retain(|&(_, n)| n != node);
        let (after, view) = t.peer_view();
        assert_eq!(after, epoch + 1, "after {before}");
        assert_eq!(view, m.peers(owner));
        assert_same(space, &t, &m, &[node]);
    }
}
