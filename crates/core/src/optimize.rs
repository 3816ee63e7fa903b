//! Neighbor-table optimization — the paper's problem 3 (§1), deferred
//! there to future work and provided here as an extension.
//!
//! Consistency (Definition 3.8) constrains only *which suffix* an entry's
//! node must carry, never *which node* among the candidates; PRR's
//! locality results additionally want each entry to hold the **nearest**
//! such node. This module performs rounds of local optimization: each node
//! considers the nodes visible in its own table and its primary neighbors'
//! tables (exactly what a node could learn from one message exchange) and
//! swaps any entry for a strictly closer candidate with the same desired
//! suffix. Replacements preserve consistency by construction — an entry is
//! only ever replaced by another node that fits it.

use std::collections::HashMap;

use hyperring_id::NodeId;

use crate::adaptive::{owner_index, swap_entry};
use crate::table::NeighborTable;

/// Outcome of an optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizeReport {
    /// Gossip rounds executed.
    pub rounds: usize,
    /// Total entry replacements across all rounds.
    pub replacements: usize,
}

/// Optimizes `tables` in place for `rounds` rounds against the given
/// symmetric latency oracle. Returns the work done.
///
/// Candidates per node per round: every node stored in its own table or in
/// any table of a node its table stores. All entries keep state `S` (the
/// optimization runs on settled networks), and reverse sets follow every
/// swap.
///
/// # Examples
///
/// ```
/// use hyperring_core::{build_consistent_tables, check_consistency, optimize_tables};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 4)?;
/// let ids: Vec<_> = ["0123", "3210", "1111", "2221", "0001", "1001"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let mut tables = build_consistent_tables(space, &ids);
/// // Any symmetric metric works; here, difference of leading digits.
/// let report = optimize_tables(&mut tables, |a, b| {
///     (a.digit(3) as i32 - b.digit(3) as i32).unsigned_abs() as u64 + 1
/// }, 2);
/// assert_eq!(report.rounds, 2);
/// assert!(check_consistency(space, &tables).is_consistent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if `tables` contains duplicate owners.
pub fn optimize_tables<L>(tables: &mut [NeighborTable], latency: L, rounds: usize) -> OptimizeReport
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    let mut report = OptimizeReport {
        rounds,
        ..Default::default()
    };
    let at = owner_index(tables);
    for _ in 0..rounds {
        // Snapshot the current tables for candidate discovery (reads see
        // the previous round, like a synchronous gossip round).
        let by_owner: HashMap<NodeId, Vec<NodeId>> = tables
            .iter()
            .map(|t| {
                (
                    t.owner(),
                    t.iter().map(|(_, _, e)| e.node).collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(by_owner.len(), tables.len(), "duplicate table owners");

        for t in 0..tables.len() {
            let me = tables[t].owner();
            // Candidate pool: my neighbors plus my neighbors' neighbors.
            let mut pool: Vec<NodeId> = Vec::new();
            for (_, _, e) in tables[t].iter() {
                pool.push(e.node);
                if let Some(theirs) = by_owner.get(&e.node) {
                    pool.extend(theirs.iter().copied());
                }
            }
            pool.sort();
            pool.dedup();
            for candidate in pool {
                if candidate == me {
                    continue;
                }
                let k = me.csuf_len(&candidate);
                let digit = candidate.digit(k);
                match tables[t].get(k, digit) {
                    Some(current) if current.node == me || current.node == candidate => {}
                    Some(current) => {
                        if latency(&me, &candidate) < latency(&me, &current.node) {
                            swap_entry(tables, &at, t, current.node, candidate);
                            report.replacements += 1;
                        }
                    }
                    None => {
                        // Consistency says this suffix is unpopulated, yet a
                        // candidate carries it — cannot happen with
                        // consistent input tables.
                        debug_assert!(false, "candidate for an empty entry");
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::assert_reverse_sets_follow_entries;
    use crate::consistency::check_consistency;
    use crate::oracle::build_consistent_tables;
    use hyperring_id::IdSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n {
            set.insert(space.random_id(&mut rng));
        }
        set.into_iter().collect()
    }

    /// A deterministic fake latency: hash of the unordered pair.
    fn fake_latency(a: &NodeId, b: &NodeId) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        if a < b {
            (a, b).hash(&mut h);
        } else {
            (b, a).hash(&mut h);
        }
        1 + h.finish() % 100_000
    }

    #[test]
    fn optimization_preserves_consistency() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 5);
        let mut tables = build_consistent_tables(space, &v);
        let report = optimize_tables(&mut tables, fake_latency, 3);
        assert!(report.replacements > 0, "dense network must find swaps");
        assert_reverse_sets_follow_entries(&tables);
        let c = check_consistency(space, &tables);
        assert!(c.is_consistent(), "{c}");
    }

    #[test]
    fn optimization_never_increases_entry_latency() {
        let space = IdSpace::new(8, 4).unwrap();
        let v = ids(space, 40, 6);
        let mut tables = build_consistent_tables(space, &v);
        let before: Vec<u64> = tables
            .iter()
            .flat_map(|t| {
                let me = t.owner();
                t.iter()
                    .filter(move |(_, _, e)| e.node != me)
                    .map(move |(_, _, e)| fake_latency(&me, &e.node))
            })
            .collect();
        optimize_tables(&mut tables, fake_latency, 2);
        let after: Vec<u64> = tables
            .iter()
            .flat_map(|t| {
                let me = t.owner();
                t.iter()
                    .filter(move |(_, _, e)| e.node != me)
                    .map(move |(_, _, e)| fake_latency(&me, &e.node))
            })
            .collect();
        assert_eq!(before.len(), after.len(), "no entry appears or vanishes");
        let sum_before: u64 = before.iter().sum();
        let sum_after: u64 = after.iter().sum();
        assert!(sum_after <= sum_before);
    }

    #[test]
    fn second_pass_converges() {
        let space = IdSpace::new(4, 5).unwrap();
        let v = ids(space, 50, 7);
        let mut tables = build_consistent_tables(space, &v);
        optimize_tables(&mut tables, fake_latency, 4);
        // Once candidates stop changing, further rounds do nothing.
        let r = optimize_tables(&mut tables, fake_latency, 1);
        let r2 = optimize_tables(&mut tables, fake_latency, 1);
        assert!(r2.replacements <= r.replacements);
        let r3 = optimize_tables(&mut tables, fake_latency, 1);
        assert_eq!(r3.replacements, 0, "fixed point not reached");
        assert_reverse_sets_follow_entries(&tables);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, 10, 8);
        let mut tables = build_consistent_tables(space, &v);
        let r = optimize_tables(&mut tables, fake_latency, 0);
        assert_eq!(r.replacements, 0);
        assert_eq!(r.rounds, 0);
    }
}
