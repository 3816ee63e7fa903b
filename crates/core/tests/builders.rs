//! The three builders of `V` — `build_consistent_tables`,
//! `build_proximate_tables` and `build_proximate_tables_sampled` — held to
//! the two constructions they replaced: a map from each suffix to its row
//! of candidates, tables filled from it, and reverse neighbors registered
//! source by source with a binary search for each target. Those are copied
//! below as the reference.
//!
//! "The same" is strict: owners in input order, every entry, every
//! reverse set, the peer view with its epoch, the digest, and the table's
//! whole internal state (`Debug`), which includes the order each table
//! interned its ids in. (That last holds for reverse sets of up to 512
//! words, one chunk, which is every set at these sizes; a builder cuts a
//! larger one into full chunks where one-by-one inserts would have split
//! it elsewhere.)

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperring_core::{
    build_consistent_tables, build_proximate_tables, build_proximate_tables_sampled, tables_digest,
    Entry, NeighborTable, NodeState,
};
use hyperring_id::{IdSpace, NodeId, Suffix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check_input(space: IdSpace, ids: &[NodeId]) {
    assert!(!ids.is_empty(), "cannot build an empty network");
    for id in ids {
        assert!(space.contains(id), "id {id} not in space");
    }
    let mut sorted: Vec<&NodeId> = ids.iter().collect();
    sorted.sort();
    assert!(
        sorted.windows(2).all(|w| w[0] != w[1]),
        "duplicate node identifier"
    );
}

/// The oracle: the smallest carrier of each (suffix, digit).
fn reference_oracle(space: IdSpace, ids: &[NodeId]) -> Vec<NeighborTable> {
    check_input(space, ids);
    let b = space.base() as usize;
    let mut repr: HashMap<Suffix, Vec<Option<NodeId>>> = HashMap::new();
    for &id in ids {
        for k in 0..space.digit_count() {
            let row = repr.entry(id.suffix(k)).or_insert_with(|| vec![None; b]);
            let cur = &mut row[id.digit(k) as usize];
            if cur.is_none_or(|c| id < c) {
                *cur = Some(id);
            }
        }
    }
    fill(space, ids, |x, i, j| {
        repr.get(&x.suffix(i)).and_then(|r| r[j as usize])
    })
}

/// The proximity builders' construction: every carrier, in id order.
fn reference_with<P>(space: IdSpace, ids: &[NodeId], pick: P) -> Vec<NeighborTable>
where
    P: Fn(&NodeId, usize, u8, &[NodeId]) -> NodeId,
{
    check_input(space, ids);
    let b = space.base() as usize;
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let mut repr: HashMap<Suffix, Vec<Vec<NodeId>>> = HashMap::new();
    for &id in &sorted {
        for k in 0..space.digit_count() {
            let row = repr
                .entry(id.suffix(k))
                .or_insert_with(|| vec![Vec::new(); b]);
            row[id.digit(k) as usize].push(id);
        }
    }
    fill(space, ids, |x, i, j| {
        let cands = &repr.get(&x.suffix(i))?[j as usize];
        (!cands.is_empty()).then(|| pick(x, i, j, cands))
    })
}

/// Both constructions' tail: fill each table in (level, digit) order, then
/// register reverse neighbors source by source.
fn fill(
    space: IdSpace,
    ids: &[NodeId],
    slot: impl Fn(&NodeId, usize, u8) -> Option<NodeId>,
) -> Vec<NeighborTable> {
    let mut tables: Vec<NeighborTable> = ids
        .iter()
        .map(|&x| {
            let mut t = NeighborTable::new(space, x);
            for i in 0..space.digit_count() {
                for j in 0..space.base() as u8 {
                    let node = if x.digit(i) == j {
                        Some(x)
                    } else {
                        slot(&x, i, j)
                    };
                    if let Some(node) = node {
                        let state = NodeState::S;
                        t.set(i, j, Entry { node, state });
                    }
                }
            }
            t
        })
        .collect();
    let mut index: Vec<(NodeId, usize)> = ids.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    index.sort_unstable_by_key(|p| p.0);
    for xi in 0..tables.len() {
        let x = tables[xi].owner();
        let neighbors: Vec<NodeId> = tables[xi]
            .iter()
            .map(|(_, _, e)| e.node)
            .filter(|&y| y != x)
            .collect();
        for y in neighbors {
            let k = x.csuf_len(&y);
            let yi = index[index.binary_search_by(|p| p.0.cmp(&y)).unwrap()].1;
            tables[yi].add_reverse(k, y.digit(k), x);
        }
    }
    tables
}

/// `build_proximate_tables_sampled`'s draw, as it picked by id.
fn reference_sampled(
    space: IdSpace,
    ids: &[NodeId],
    sample: usize,
    seed: u64,
) -> Vec<NeighborTable> {
    reference_with(space, ids, |x, i, j, cands| {
        if cands.len() <= sample {
            return nearest(x, cands);
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        let mix = |v: u64, h: &mut u64| {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &d in x.digits_lsd().iter() {
            mix(d as u64 + 1, &mut h);
        }
        mix(i as u64 + 1, &mut h);
        mix(j as u64 + 1, &mut h);
        let mut best: Option<(u64, NodeId)> = None;
        for _ in 0..sample {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let c = cands[((h >> 33) as usize) % cands.len()];
            let key = (latency(x, &c), c);
            if best.is_none_or(|k| key < k) {
                best = Some(key);
            }
        }
        best.unwrap().1
    })
}

/// A latency with many ties, so the id tie-break decides often.
fn latency(a: &NodeId, b: &NodeId) -> u64 {
    let top = b.digit_count() - 1;
    (7 * a.digit(0) as u64 + 3 * b.digit(0) as u64 + b.digit(top) as u64) % 5
}

/// The proximity pick as it was: the least `(latency, id)`.
fn nearest(x: &NodeId, cands: &[NodeId]) -> NodeId {
    *cands.iter().min_by_key(|c| (latency(x, c), **c)).unwrap()
}

/// `n` distinct ids.
fn ids(space: IdSpace, n: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < n {
        let digits: Vec<u8> = (0..space.digit_count())
            .map(|_| rng.gen_range(0..space.base()) as u8)
            .collect();
        let id = space.id_from_digits(&digits).unwrap();
        if seen.insert(id) {
            out.push(id);
        }
    }
    out
}

fn assert_same(what: &str, got: &[NeighborTable], want: &[NeighborTable]) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want) {
        let owner = w.owner();
        assert_eq!(g.owner(), owner, "{what}: owners out of input order");
        assert!(g.iter().eq(w.iter()), "{what}: entries of {owner}");
        let space = w.space();
        for level in 0..space.digit_count() {
            for digit in 0..space.base() as u8 {
                assert!(
                    g.reverse_of(level, digit).eq(w.reverse_of(level, digit)),
                    "{what}: R_{owner}({level}, {digit})"
                );
            }
        }
        assert_eq!(g.peer_view(), w.peer_view(), "{what}: peer view of {owner}");
        assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "{what}: state of {owner}"
        );
    }
    assert_eq!(tables_digest(got), tables_digest(want), "{what}: digest");
}

/// Twelve seeded cases a base; a debug build takes the first three of
/// each (CI runs the whole set optimised).
#[test]
fn every_builder_matches_the_constructions_it_replaced() {
    let per_base = if cfg!(debug_assertions) { 3 } else { 12 };
    let mut rng = StdRng::seed_from_u64(27);
    for &b in &[2u16, 3, 4, 5, 8, 10, 12, 16] {
        for _ in 0..per_base {
            let d = rng.gen_range(1..=6);
            let space = IdSpace::new(b, d).unwrap();
            let room = space.capacity().unwrap().min(300) as usize;
            let n = rng.gen_range(1..=room);
            let v = ids(space, n, &mut rng);
            let what = |builder: &str| format!("{builder}, b={b} d={d} n={n}");
            assert_same(
                &what("oracle"),
                &build_consistent_tables(space, &v),
                &reference_oracle(space, &v),
            );
            assert_same(
                &what("proximate"),
                &build_proximate_tables(space, &v, latency),
                &reference_with(space, &v, |x, _, _, cands| nearest(x, cands)),
            );
            for sample in [1, 2, 5] {
                let seed = rng.gen();
                assert_same(
                    &what(&format!("sampled {sample}")),
                    &build_proximate_tables_sampled(space, &v, latency, sample, seed),
                    &reference_sampled(space, &v, sample, seed),
                );
            }
        }
    }
}

/// What a build panics with, or `None`.
fn panic_of(build: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(build)).err()?;
    let text = err.downcast_ref::<String>().cloned();
    text.or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
}

#[test]
fn every_builder_panics_as_the_reference_does() {
    let space = IdSpace::new(4, 3).unwrap();
    let x = space.parse_id("012").unwrap();
    let foreign = IdSpace::new(8, 3).unwrap().parse_id("777").unwrap();
    for (input, message) in [
        (vec![], "cannot build an empty network"),
        (
            vec![x, space.parse_id("310").unwrap(), x],
            "duplicate node identifier",
        ),
        (vec![x, foreign], "id 777 not in space"),
    ] {
        let v = &input[..];
        let panics = [
            panic_of(|| drop(reference_oracle(space, v))),
            panic_of(|| drop(reference_with(space, v, |x, _, _, c| nearest(x, c)))),
            panic_of(|| drop(build_consistent_tables(space, v))),
            panic_of(|| drop(build_proximate_tables(space, v, latency))),
            panic_of(|| drop(build_proximate_tables_sampled(space, v, latency, 2, 9))),
        ];
        for p in panics {
            assert_eq!(p.as_deref(), Some(message));
        }
    }
}
