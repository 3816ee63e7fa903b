//! The routing plane under `ObjectStore` against the generic reference,
//! `surrogate_root_with` over a `NodeId -> &NeighborTable` map: same
//! root, same hop count, same `Hop` sequence, same panics, and the same
//! end on a dangling entry.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperring_core::{build_consistent_tables, NeighborTable};
use hyperring_id::{IdSpace, NodeId};
use hyperring_object::{surrogate_root_with, Hop, ObjectStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn distinct_ids(space: IdSpace, n: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut ids = BTreeSet::new();
    while ids.len() < n {
        ids.insert(space.random_id(rng));
    }
    ids.into_iter().collect()
}

/// Clears about one entry in `one_in`, self entries only if `selves`.
fn punch_holes(tables: &mut [NeighborTable], one_in: u32, selves: bool, rng: &mut StdRng) {
    for table in tables {
        let owner = table.owner();
        let filled: Vec<(usize, u8)> = table
            .iter()
            .filter(|(_, _, e)| selves || e.node != owner)
            .map(|(level, digit, _)| (level, digit))
            .collect();
        for (level, digit) in filled {
            if rng.gen_range(0..one_in) == 0 {
                table.clear(level, digit);
            }
        }
    }
}

type Walk = (NodeId, usize, Vec<Hop>);

/// A walk's outcome, or the message it panicked with.
fn outcome(walk: impl FnOnce(&mut Vec<Hop>) -> (NodeId, usize)) -> Result<Walk, String> {
    let mut path = Vec::new();
    match catch_unwind(AssertUnwindSafe(|| walk(&mut path))) {
        Ok((root, hops)) => Ok((root, hops, path)),
        Err(cause) => Err(cause
            .downcast_ref::<String>()
            .expect("formatted panic")
            .clone()),
    }
}

/// Walks `lookups` random (start, object id) pairs both ways and returns
/// how many of them panicked (identically).
fn assert_parity(
    space: IdSpace,
    tables: &[NeighborTable],
    lookups: usize,
    rng: &mut StdRng,
) -> usize {
    let by_owner: HashMap<NodeId, &NeighborTable> = tables.iter().map(|t| (t.owner(), t)).collect();
    let store = ObjectStore::over(space, tables);
    let mut panicked = 0;
    for _ in 0..lookups {
        let start = tables[rng.gen_range(0..tables.len())].owner();
        let oid = space.random_id(rng);
        let want = outcome(|path| {
            let lookup = |id: &NodeId| by_owner.get(id).copied();
            surrogate_root_with(space, start, &oid, lookup, |h| path.push(h))
        });
        let got = outcome(|path| store.root_from_with(start, &oid, |h| path.push(h)));
        assert_eq!(got, want, "from {start} to {oid}");
        panicked += usize::from(want.is_err());
    }
    panicked
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn plane_walks_like_the_reference(
        log_b in 1u32..=4,
        d in 1usize..=8,
        n in 1usize..=200,
        seed in 0u64..10_000,
    ) {
        let space = IdSpace::new(1 << log_b, d).unwrap();
        let n = n.min((space.capacity().unwrap() / 2).max(1) as usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = distinct_ids(space, n, &mut rng);
        let mut tables = build_consistent_tables(space, &ids);
        prop_assert_eq!(assert_parity(space, &tables, 64, &mut rng), 0);

        // Holes make the cyclic fallover pick other digits at every level,
        // and leave some nodes with nothing above level 0.
        punch_holes(&mut tables, 3, false, &mut rng);
        prop_assert_eq!(assert_parity(space, &tables, 64, &mut rng), 0);
    }

    #[test]
    fn plane_panics_like_the_reference(
        log_b in 1u32..=4,
        d in 2usize..=6,
        seed in 0u64..10_000,
    ) {
        // Tables built for 40 nodes, a store over 30 of them: entries that
        // name the other ten have no table here. With self entries cleared
        // too, a level can end up with no entry at all.
        let space = IdSpace::new(1 << log_b, d).unwrap();
        let n = 40.min(space.capacity().unwrap() / 2) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = distinct_ids(space, n, &mut rng);
        let mut tables = build_consistent_tables(space, &ids);
        tables.truncate(n * 3 / 4);
        assert_parity(space, &tables, 128, &mut rng);
        punch_holes(&mut tables, 2, true, &mut rng);
        assert_parity(space, &tables, 128, &mut rng);
    }
}

#[test]
fn a_walk_ends_at_a_dangling_entry_wherever_it_is_stepped_on() {
    let space = IdSpace::new(4, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let ids = distinct_ids(space, 32, &mut rng);
    let all = build_consistent_tables(space, &ids);
    let by_owner: HashMap<NodeId, &NeighborTable> = all.iter().map(|t| (t.owner(), t)).collect();
    let (gone, tables) = (all[0].owner(), &all[1..]);
    let store = ObjectStore::over(space, tables);
    assert_eq!(store.len(), 31);
    assert!(store.nodes().all(|id| id != gone) && !store.contains(&gone));

    // Where the walk over all 32 tables goes tells what the store over 31
    // of them must do: the same, up to the first step onto `gone`, where
    // it ends, whatever level it has left.
    let (mut early, mut last, mut elsewhere) = (0, 0, 0);
    for start in store.nodes() {
        for target in &ids {
            let mut full = Vec::new();
            let lookup = |id: &NodeId| by_owner.get(id).copied();
            let (root, hops) = surrogate_root_with(space, start, target, lookup, |h| full.push(h));
            let got = outcome(|path| store.root_from_with(start, target, |h| path.push(h)));
            match full.iter().position(|h| h.to == gone) {
                Some(i) => {
                    if full[i].level < 2 {
                        early += 1;
                    } else {
                        last += 1;
                    }
                    full.truncate(i + 1);
                    assert_eq!(got, Ok((gone, i + 1, full)));
                }
                None => {
                    assert_eq!(got, Ok((root, hops, full)));
                    elsewhere += 1;
                }
            }
        }
    }
    assert!(early > 0 && last > 0 && elsewhere > 0);
}

#[test]
fn nodes_come_in_input_order() {
    let space = IdSpace::new(16, 6).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let ids = distinct_ids(space, 64, &mut rng);
    let tables = build_consistent_tables(space, &ids);
    let reversed: Vec<&NeighborTable> = tables.iter().rev().collect();
    let owners: Vec<NodeId> = reversed.iter().map(|t| t.owner()).collect();
    let a = ObjectStore::over(space, reversed.iter().copied());
    let b = ObjectStore::over(space, reversed.iter().copied());
    assert_eq!(a.nodes().collect::<Vec<_>>(), owners);
    assert_eq!(b.nodes().collect::<Vec<_>>(), owners);
}

/// The benchmark's shape. Debug builds spend a minute on the oracle.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: n = 4096")]
fn plane_walks_like_the_reference_n4096() {
    let space = IdSpace::new(16, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    let ids = distinct_ids(space, 4096, &mut rng);
    let mut tables = build_consistent_tables(space, &ids);
    assert_eq!(assert_parity(space, &tables, 20_000, &mut rng), 0);
    punch_holes(&mut tables, 4, false, &mut rng);
    assert_eq!(assert_parity(space, &tables, 20_000, &mut rng), 0);
}
