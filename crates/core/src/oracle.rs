//! Direct (omniscient) construction of consistent neighbor tables.
//!
//! Experiments need an initial consistent network `V` — in the paper, `V`
//! exists before the evaluation begins (3096 or 7192 nodes). Rather than
//! paying a full bootstrap for every run, this module constructs the tables
//! directly from global knowledge, exactly satisfying Definition 3.8; the
//! consistency checker validates the result in tests. (Bootstrapping through
//! the join protocol itself is also supported — see `SimNetwork` — and is
//! how §6.1 network initialization is exercised.)
//!
//! The construction is the one sweep under
//! [`build_proximate_tables`](crate::build_proximate_tables) too, picking
//! each slot's first candidate: candidates come in ascending id order.

use hyperring_id::{IdSpace, NodeId};

use crate::adaptive::build_tables_with;
use crate::table::NeighborTable;

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
    build_tables_with(space, ids, |_, _, _, _| 0)
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
