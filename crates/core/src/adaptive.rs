//! Adaptive neighbor selection — proximity-aware slot filling and
//! demand-driven promotion of secondary neighbors.
//!
//! Definition 3.8 constrains only *which suffix* a table entry's node must
//! carry, never *which node* among the suffix-equivalent candidates, so the
//! choice is a pure performance knob (see
//! [`NeighborSelection`](crate::NeighborSelection)). This module provides
//! the two adaptive mechanisms the lookup-storm experiment drives:
//!
//! 1. **Fill-time proximity** ([`build_proximate_tables`]): like the
//!    omniscient oracle, but each `(level, digit)` slot takes the
//!    *lowest-delay* candidate for its owner rather than the globally
//!    smallest id. This is the static, all-knowing bound on what PRR-style
//!    locality can buy.
//! 2. **Demand-driven promotion** ([`promote_secondaries`]): a running
//!    network only observes the nodes that appear in its forwarding
//!    traffic. A [`DemandProfile`] accumulates, per `(owner, level,
//!    digit)` slot, how often the slot forwarded a lookup and which lookup
//!    sources the owner thereby observed; `promote_secondaries` then
//!    swaps hot slots to strictly closer observed candidates — the
//!    "locally self-adjusting" discipline, using only information a real
//!    node would have.
//!
//! Both mechanisms replace entries only with nodes that fit the slot's
//! suffix constraint, so consistency is preserved by construction (the
//! tests double-check with the Definition 3.8 checker).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hyperring_id::{IdSpace, NodeId, Suffix};

use crate::table::{Entry, NeighborTable, NodeState};

/// Builds a consistent table for every node in `ids` where each slot holds
/// the candidate with the lowest latency to the table's owner (ties broken
/// by smallest id, so construction is deterministic for a deterministic
/// oracle).
///
/// Differs from [`build_consistent_tables`](crate::build_consistent_tables)
/// only in the choice among suffix-equivalent candidates; the result
/// satisfies Definition 3.8 exactly as the oracle's does.
///
/// # Examples
///
/// ```
/// use hyperring_core::{build_proximate_tables, check_consistency};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(8, 5)?;
/// let v: Vec<_> = ["72430", "10353", "62332", "13141", "31701"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let tables = build_proximate_tables(space, &v, |a, b| {
///     (a.digit(4) as i64 - b.digit(4) as i64).unsigned_abs()
/// });
/// assert!(check_consistency(space, &tables).is_consistent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if `ids` is empty, contains duplicates, or contains an
/// identifier outside `space`.
pub fn build_proximate_tables<L>(space: IdSpace, ids: &[NodeId], latency: L) -> Vec<NeighborTable>
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    build_tables_with(space, ids, |x, _, _, cands| {
        // First-wins min over a sorted list = smallest id among the
        // latency minimizers.
        cands
            .iter()
            .copied()
            .min_by_key(|c| (latency(x, c), *c))
            .expect("picker called with candidates")
    })
}

/// Like [`build_proximate_tables`], but each slot examines only a bounded
/// pseudo-random subset of at most `sample` suffix-equivalent candidates —
/// the information a joining node that probes a handful of advertised
/// peers would actually have, rather than the omniscient argmin.
///
/// The subset is derived deterministically from `(owner, level, digit,
/// seed)`, so a fixed seed yields a fixed network. Any candidate carries
/// the slot's required suffix, so consistency holds regardless of which
/// subset is drawn; what varies is only locality — the slack that
/// [`promote_secondaries`] later recovers from observed traffic.
///
/// # Panics
///
/// Panics if `sample` is 0, or on the same degenerate inputs as
/// [`build_proximate_tables`].
pub fn build_proximate_tables_sampled<L>(
    space: IdSpace,
    ids: &[NodeId],
    latency: L,
    sample: usize,
    seed: u64,
) -> Vec<NeighborTable>
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    assert!(sample > 0, "sample size must be positive");
    build_tables_with(space, ids, |x, i, j, cands| {
        if cands.len() <= sample {
            return cands
                .iter()
                .copied()
                .min_by_key(|c| (latency(x, c), *c))
                .expect("picker called with candidates");
        }
        // FNV-1a over the slot coordinates seeds a splitmix-style stream
        // of candidate indices; stable across platforms and releases so
        // goldens can pin the resulting tables.
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
            if best.is_none_or(|(l, id)| key < (l, id)) {
                best = Some(key);
            }
        }
        best.expect("sample is positive").1
    })
}

/// Shared construction: bucket all candidates by suffix slot, fill every
/// table with `pick`'s choice among the slot's suffix-equivalent
/// candidates (self entries fixed by Definition 3.8), then register
/// reverse neighbors exactly as the oracle does.
fn build_tables_with<P>(space: IdSpace, ids: &[NodeId], pick: P) -> Vec<NeighborTable>
where
    P: Fn(&NodeId, usize, u8, &[NodeId]) -> NodeId,
{
    assert!(!ids.is_empty(), "cannot build an empty network");
    for id in ids {
        assert!(space.contains(id), "id {id} not in space");
    }
    {
        let mut sorted: Vec<&NodeId> = ids.iter().collect();
        sorted.sort();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate node identifier"
        );
    }

    // Bucket *all* candidates by (parent suffix, extending digit) — the
    // oracle keeps only the smallest per bucket, but proximity needs the
    // full list because the argmin depends on the table's owner. The
    // bucket lists are built in sorted-id order (ids scanned after a
    // sort), which makes the min-by tie-break deterministic.
    let b = space.base() as usize;
    let mut sorted_ids: Vec<NodeId> = ids.to_vec();
    sorted_ids.sort_unstable();
    let mut repr: HashMap<Suffix, Vec<Vec<NodeId>>> = HashMap::new();
    for &id in &sorted_ids {
        for k in 0..space.digit_count() {
            let row = repr
                .entry(id.suffix(k))
                .or_insert_with(|| vec![Vec::new(); b]);
            row[id.digit(k) as usize].push(id);
        }
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
                        row.and_then(|r| {
                            let cands = &r[j as usize];
                            if cands.is_empty() {
                                None
                            } else {
                                Some(pick(&x, i, j, cands))
                            }
                        })
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

    // Reverse-neighbor registration, exactly as the oracle's second pass.
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

/// Forwarding-traffic observations accumulated during a lookup storm.
///
/// Every time node `forwarder`'s `(level, digit)` entry advances a lookup
/// that originated at `source`, the storm calls
/// [`record_hop`](Self::record_hop). The profile then knows (a) which
/// slots are hot and (b) which nodes the forwarder has *observed* — the
/// candidate pool a real node could promote from without any omniscient
/// oracle.
#[derive(Debug, Clone, Default)]
pub struct DemandProfile {
    /// Lookups forwarded through each `(owner, level, digit)` slot.
    slot_traffic: BTreeMap<(NodeId, usize, u8), u64>,
    /// Lookup sources each forwarder has seen traffic from.
    observed: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl DemandProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `forwarder`'s `(level, digit)` entry advanced a lookup
    /// originated by `source`.
    pub fn record_hop(&mut self, forwarder: NodeId, level: usize, digit: u8, source: NodeId) {
        *self
            .slot_traffic
            .entry((forwarder, level, digit))
            .or_insert(0) += 1;
        if source != forwarder {
            self.observed.entry(forwarder).or_default().insert(source);
        }
    }

    /// Lookups forwarded through `owner`'s `(level, digit)` slot.
    pub fn slot_traffic(&self, owner: &NodeId, level: usize, digit: u8) -> u64 {
        self.slot_traffic
            .get(&(*owner, level, digit))
            .copied()
            .unwrap_or(0)
    }

    /// The lookup sources `owner` has observed, in id order.
    pub fn observed(&self, owner: &NodeId) -> impl Iterator<Item = &NodeId> + '_ {
        self.observed.get(owner).into_iter().flatten()
    }

    /// Total hops recorded.
    pub fn total_hops(&self) -> u64 {
        self.slot_traffic.values().sum()
    }
}

/// Outcome of a [`promote_secondaries`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PromotionReport {
    /// `(owner, candidate)` pairs examined.
    pub examined: usize,
    /// Entries swapped to a strictly closer observed candidate.
    pub promoted: usize,
}

/// Promotes observed secondary neighbors into hot table slots.
///
/// For each table owner `me` and each lookup source `c` that `me` observed
/// forwarding traffic from, `c` legally fits exactly one slot of `me`'s
/// table: `(k, c[k])` with `k = |csuf(me, c)|`. If that slot forwarded at
/// least `min_traffic` lookups and `c` is strictly closer to `me` than the
/// slot's current occupant, the slot is swapped to `c` (state `S`, like
/// [`optimize_tables`](crate::optimize_tables)). Iteration order is
/// deterministic (id order), so a fixed storm yields a fixed outcome.
///
/// Consistency is preserved: an entry is only replaced by another node
/// carrying the slot's desired suffix.
pub fn promote_secondaries<L>(
    tables: &mut [NeighborTable],
    demand: &DemandProfile,
    latency: L,
    min_traffic: u64,
) -> PromotionReport
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    let mut report = PromotionReport::default();
    for t in tables.iter_mut() {
        let me = t.owner();
        for &c in demand.observed(&me) {
            if c == me {
                continue;
            }
            report.examined += 1;
            let k = me.csuf_len(&c);
            let digit = c.digit(k);
            if demand.slot_traffic(&me, k, digit) < min_traffic {
                continue;
            }
            match t.get(k, digit) {
                Some(current) if current.node == me || current.node == c => {}
                Some(current) => {
                    if latency(&me, &c) < latency(&me, &current.node) {
                        t.set(
                            k,
                            digit,
                            Entry {
                                node: c,
                                state: NodeState::S,
                            },
                        );
                        report.promoted += 1;
                    }
                }
                // The slot can be empty only if no member carries the
                // suffix — but `c` does, so with consistent input tables
                // this cannot happen.
                None => debug_assert!(false, "observed candidate for an empty entry"),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::oracle::build_consistent_tables;
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
    fn proximate_tables_pass_the_checker() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 5);
        let tables = build_proximate_tables(space, &v, fake_latency);
        let report = check_consistency(space, &tables);
        assert!(report.is_consistent(), "{report}");
    }

    #[test]
    fn proximate_fill_never_loses_to_the_oracle() {
        let space = IdSpace::new(8, 4).unwrap();
        let v = ids(space, 50, 9);
        let oracle = build_consistent_tables(space, &v);
        let prox = build_proximate_tables(space, &v, fake_latency);
        let total = |tables: &[NeighborTable]| -> u64 {
            tables
                .iter()
                .map(|t| {
                    let me = t.owner();
                    t.iter()
                        .filter(|(_, _, e)| e.node != me)
                        .map(|(_, _, e)| fake_latency(&me, &e.node))
                        .sum::<u64>()
                })
                .sum()
        };
        assert!(total(&prox) <= total(&oracle));
        // Same slots are populated in both builds (consistency dictates
        // which suffixes exist, not which carrier fills them).
        for (a, b) in oracle.iter().zip(prox.iter()) {
            assert_eq!(a.owner(), b.owner());
            assert_eq!(a.filled(), b.filled());
        }
    }

    #[test]
    fn proximate_build_is_deterministic() {
        let space = IdSpace::new(4, 5).unwrap();
        let v = ids(space, 40, 11);
        let a = build_proximate_tables(space, &v, fake_latency);
        let b = build_proximate_tables(space, &v, fake_latency);
        assert_eq!(
            crate::digest::tables_digest(&a),
            crate::digest::tables_digest(&b)
        );
    }

    #[test]
    fn sampled_fill_is_consistent_deterministic_and_promotable() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 21);
        let a = build_proximate_tables_sampled(space, &v, fake_latency, 2, 7);
        let b = build_proximate_tables_sampled(space, &v, fake_latency, 2, 7);
        assert_eq!(
            crate::digest::tables_digest(&a),
            crate::digest::tables_digest(&b)
        );
        let report = check_consistency(space, &a);
        assert!(report.is_consistent(), "{report}");
        // Bounded knowledge leaves slack that dense demand recovers: with
        // every node observed, promotion must close some of the gap to
        // the omniscient fill.
        let total = |tables: &[NeighborTable]| -> u64 {
            tables
                .iter()
                .map(|t| {
                    let me = t.owner();
                    t.iter()
                        .filter(|(_, _, e)| e.node != me)
                        .map(|(_, _, e)| fake_latency(&me, &e.node))
                        .sum::<u64>()
                })
                .sum()
        };
        let full = build_proximate_tables(space, &v, fake_latency);
        assert!(total(&full) < total(&a), "sampling left no slack");
        let mut promoted = a.clone();
        let mut demand = DemandProfile::new();
        for t in promoted.iter() {
            let me = t.owner();
            for &src in &v {
                if src == me {
                    continue;
                }
                let k = me.csuf_len(&src);
                demand.record_hop(me, k, src.digit(k), src);
            }
        }
        let rep = promote_secondaries(&mut promoted, &demand, fake_latency, 1);
        assert!(rep.promoted > 0);
        assert!(total(&promoted) < total(&a));
        let report = check_consistency(space, &promoted);
        assert!(report.is_consistent(), "{report}");
    }

    #[test]
    fn promotion_swaps_hot_slots_and_preserves_consistency() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 13);
        let mut tables = build_consistent_tables(space, &v);
        // Synthesize demand: every node observes every other, every slot
        // is hot — promotion should then reach the fill-time optimum for
        // all slots whose best candidate appeared as a source.
        let mut demand = DemandProfile::new();
        for t in tables.iter() {
            let me = t.owner();
            for &src in &v {
                if src == me {
                    continue;
                }
                let k = me.csuf_len(&src);
                demand.record_hop(me, k, src.digit(k), src);
            }
        }
        let before: u64 = tables
            .iter()
            .map(|t| {
                let me = t.owner();
                t.iter()
                    .filter(|(_, _, e)| e.node != me)
                    .map(|(_, _, e)| fake_latency(&me, &e.node))
                    .sum::<u64>()
            })
            .sum();
        let report = promote_secondaries(&mut tables, &demand, fake_latency, 1);
        assert!(report.promoted > 0, "dense demand must promote something");
        let after: u64 = tables
            .iter()
            .map(|t| {
                let me = t.owner();
                t.iter()
                    .filter(|(_, _, e)| e.node != me)
                    .map(|(_, _, e)| fake_latency(&me, &e.node))
                    .sum::<u64>()
            })
            .sum();
        assert!(after < before);
        let c = check_consistency(space, &tables);
        assert!(c.is_consistent(), "{c}");
    }

    #[test]
    fn promotion_respects_the_traffic_threshold() {
        let space = IdSpace::new(8, 4).unwrap();
        let v = ids(space, 30, 17);
        let mut tables = build_consistent_tables(space, &v);
        let mut demand = DemandProfile::new();
        // One observation per slot, threshold of two: nothing may move.
        for t in tables.iter() {
            let me = t.owner();
            for &src in &v {
                if src == me {
                    continue;
                }
                let k = me.csuf_len(&src);
                demand.record_hop(me, k, src.digit(k), src);
            }
        }
        let digest = crate::digest::tables_digest(&tables);
        let report = promote_secondaries(&mut tables, &demand, fake_latency, u64::MAX);
        assert_eq!(report.promoted, 0);
        assert_eq!(crate::digest::tables_digest(&tables), digest);
    }

    #[test]
    fn demand_profile_counts_hops() {
        let space = IdSpace::new(4, 3).unwrap();
        let a = space.parse_id("012").unwrap();
        let b = space.parse_id("311").unwrap();
        let mut d = DemandProfile::new();
        d.record_hop(a, 0, 1, b);
        d.record_hop(a, 0, 1, b);
        d.record_hop(a, 1, 2, b);
        assert_eq!(d.slot_traffic(&a, 0, 1), 2);
        assert_eq!(d.slot_traffic(&a, 1, 2), 1);
        assert_eq!(d.slot_traffic(&b, 0, 1), 0);
        assert_eq!(d.total_hops(), 3);
        assert_eq!(d.observed(&a).collect::<Vec<_>>(), vec![&b]);
        assert_eq!(d.observed(&b).count(), 0);
    }
}
