//! Direct (omniscient) construction of consistent neighbor tables.
//!
//! Experiments need an initial consistent network `V` — in the paper, `V`
//! exists before the evaluation begins (3096 or 7192 nodes). Rather than
//! paying a full bootstrap for every run, this module constructs the tables
//! directly from global knowledge, exactly satisfying Definition 3.8; the
//! consistency checker validates the result in tests. (Bootstrapping through
//! the join protocol itself is also supported — see `SimNetwork` — and is
//! how §6.1 network initialization is exercised.)

use std::collections::HashMap;

use hyperring_id::{IdSpace, NodeId, Suffix};

use crate::table::{Entry, NeighborTable, NodeState};

/// Builds a consistent table (per Definition 3.8, all states `S`) for every
/// node in `ids`.
///
/// Entry `(i, j)` of node `x` is filled with the smallest node carrying the
/// desired suffix (the choice is arbitrary for consistency; smallest makes
/// runs deterministic), or left empty when no such node exists.
///
/// # Examples
///
/// ```
/// use hyperring_core::build_consistent_tables;
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(8, 5)?;
/// let v: Vec<_> = ["72430", "10353", "62332", "13141", "31701"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let tables = build_consistent_tables(space, &v);
/// // 13141's (1, 0)-entry wants suffix "01": 31701 is the only candidate.
/// let t = tables.iter().find(|t| t.owner() == v[3]).unwrap();
/// assert_eq!(t.get(1, 0).unwrap().node.to_string(), "31701");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if `ids` is empty, contains duplicates, or contains an identifier
/// outside `space`.
pub fn build_consistent_tables(space: IdSpace, ids: &[NodeId]) -> Vec<NeighborTable> {
    assert!(!ids.is_empty(), "cannot build an empty network");
    for id in ids {
        assert!(space.contains(id), "id {id} not in space");
    }

    // Bucket representatives by (parent suffix, extending digit): the row
    // stored under a length-`i` suffix `s` holds, at position `j`, the
    // smallest node whose suffix is `j ∘ s`. Filling node `x`'s level-`i`
    // entries then needs ONE hash lookup (of `x.suffix(i)`) for the whole
    // `b`-wide row, instead of `b` lookups of `b` freshly built length-
    // `(i+1)` suffix keys — `b×` less hashing over the n·d·b fill loop.
    let b = space.base() as usize;
    let mut repr: HashMap<Suffix, Vec<Option<NodeId>>> = HashMap::new();
    for &id in ids {
        for k in 0..space.digit_count() {
            let row = repr.entry(id.suffix(k)).or_insert_with(|| vec![None; b]);
            match &mut row[id.digit(k) as usize] {
                Some(cur) => {
                    if id < *cur {
                        *cur = id;
                    }
                }
                slot => *slot = Some(id),
            }
        }
    }
    // Duplicate detection: two equal ids collapse in the suffix map, so
    // check explicitly.
    {
        let mut sorted: Vec<&NodeId> = ids.iter().collect();
        sorted.sort();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate node identifier"
        );
    }

    let mut tables: Vec<NeighborTable> = ids
        .iter()
        .map(|&x| {
            let mut t = NeighborTable::new(space, x);
            for i in 0..space.digit_count() {
                let row = repr.get(&x.suffix(i));
                for j in 0..space.base() as u8 {
                    let node = if x.digit(i) == j {
                        // The primary (i, x[i])-neighbor of x is x itself.
                        Some(x)
                    } else {
                        row.and_then(|r| r[j as usize])
                    };
                    if let Some(node) = node {
                        t.set(
                            i,
                            j,
                            Entry {
                                node,
                                state: NodeState::S,
                            },
                        );
                    }
                }
            }
            t
        })
        .collect();

    // Second pass: register reverse neighbors, as the protocol's
    // RvNghNotiMsg bookkeeping would have. `y` records `x` as a reverse
    // neighbor at `(k, y[k])`, `k = |csuf(x, y)|`, whenever `x` stores `y`.
    // The id → table-index map is a sorted vec probed by binary search:
    // SipHashing a `NodeId` per neighbor lost to Θ(log n) word compares
    // over this n·d·b-lookup loop at bootstrap scale.
    let mut index: Vec<(NodeId, usize)> = ids.iter().enumerate().map(|(i, &x)| (x, i)).collect();
    index.sort_unstable_by_key(|p| p.0);
    let mut neighbors: Vec<NodeId> = Vec::new();
    for xi in 0..tables.len() {
        let x = tables[xi].owner();
        neighbors.clear();
        neighbors.extend(
            tables[xi]
                .iter()
                .map(|(_, _, e)| e.node)
                .filter(|&y| y != x),
        );
        for &y in &neighbors {
            let k = x.csuf_len(&y);
            let yi = index[index
                .binary_search_by(|p| p.0.cmp(&y))
                .expect("every neighbor is a member")]
            .1;
            tables[yi].add_reverse(k, y.digit(k), x);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_tables_pass_the_checker() {
        let space = IdSpace::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        // HashSet-guarded draw (same accepted sequence as the old O(n²)
        // `Vec::contains` scan, without the quadratic rescans).
        let mut seen = std::collections::HashSet::new();
        let mut ids: Vec<NodeId> = Vec::new();
        while ids.len() < 60 {
            let id = space.random_id(&mut rng);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        let tables = build_consistent_tables(space, &ids);
        let report = check_consistency(space, &tables);
        assert!(report.is_consistent(), "{report}");
    }

    #[test]
    fn oracle_handles_single_node() {
        let space = IdSpace::new(16, 8).unwrap();
        let id = space.parse_id("0012abcd").unwrap();
        let tables = build_consistent_tables(space, &[id]);
        assert_eq!(tables.len(), 1);
        let report = check_consistency(space, &tables);
        assert!(report.is_consistent(), "{report}");
        // Only self entries are filled.
        assert_eq!(tables[0].filled(), 8);
    }

    #[test]
    fn entries_hold_desired_suffixes() {
        let space = IdSpace::new(8, 5).unwrap();
        let ids: Vec<NodeId> = ["72430", "10353", "62332", "13141", "31701"]
            .iter()
            .map(|s| space.parse_id(s).unwrap())
            .collect();
        let tables = build_consistent_tables(space, &ids);
        for t in &tables {
            for (i, j, e) in t.iter() {
                assert!(
                    t.fits(i, j, &e.node),
                    "{}: ({i},{j}) = {}",
                    t.owner(),
                    e.node
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node identifier")]
    fn duplicates_rejected() {
        let space = IdSpace::new(4, 3).unwrap();
        let id = space.parse_id("012").unwrap();
        build_consistent_tables(space, &[id, id]);
    }

    #[test]
    #[should_panic(expected = "cannot build an empty network")]
    fn empty_rejected() {
        let space = IdSpace::new(4, 3).unwrap();
        build_consistent_tables(space, &[]);
    }
}
