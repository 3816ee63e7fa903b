//! Neighbor selection — the choice among suffix-equivalent candidates:
//! proximity-aware slot filling, demand-driven promotion of secondary
//! neighbors, and gossip rounds of local optimization.
//!
//! Definition 3.8 constrains only *which suffix* a table entry's node must
//! carry, never *which node* among the suffix-equivalent candidates, so the
//! choice is a pure performance knob. This module provides three ways to
//! make it:
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
//! 3. **Gossip optimization** ([`optimize_tables`]): the paper's problem 3
//!    (§1), deferred there to future work. Each round every node swaps
//!    entries for strictly closer candidates among the nodes in its own
//!    and its neighbors' tables.
//!
//! Promotion and gossip share one step: a candidate fits exactly one slot,
//! and replaces its occupant only if strictly closer. Every mechanism
//! replaces entries only with nodes that fit the slot's suffix constraint,
//! so consistency is preserved by construction (the tests double-check
//! with the Definition 3.8 checker).
//!
//! Every builder of `V` — the oracle's smallest id and both proximity
//! fills — is one sweep, `build_tables_with`, that differs only in the
//! candidate it picks: the ids are sorted once, each level's candidates
//! are contiguous slices of that order, and reverse neighbors are
//! registered target by target.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hyperring_id::{IdSpace, NodeId};

use crate::digest::Fnv;
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
    build_tables_with(space, ids, |x, _, _, cands| nearest(&latency, x, cands))
}

/// The index of the candidate nearest to `x`: the first of the latency
/// minimizers, so the smallest id among them (candidates ascend by id).
fn nearest<L>(latency: &L, x: &NodeId, cands: &[NodeId]) -> usize
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    (0..cands.len())
        .min_by_key(|&c| latency(x, &cands[c]))
        .expect("picker called with candidates")
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
            return nearest(&latency, x, cands);
        }
        // FNV-1a over the slot coordinates seeds a splitmix-style stream
        // of candidate indices; stable across platforms and releases so
        // goldens can pin the resulting tables.
        let mut fnv = Fnv::seeded(seed);
        for &d in x.digits_lsd().iter() {
            fnv.mix(d as u64 + 1);
        }
        fnv.mix(i as u64 + 1);
        fnv.mix(j as u64 + 1);
        let mut h = fnv.finish();
        // Ties on latency go to the smaller index, which is the smaller id.
        let mut best: Option<(u64, usize)> = None;
        for _ in 0..sample {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let c = ((h >> 33) as usize) % cands.len();
            let key = (latency(x, &cands[c]), c);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.expect("sample is positive").1
    })
}

/// The construction of `V` under the oracle and both proximity builders:
/// every table filled with `pick`'s choice among each slot's
/// suffix-equivalent candidates (an index into them; they come in
/// ascending id order), self entries fixed by Definition 3.8, then every
/// reverse neighbor registered.
///
/// One sweep over the ids, sorted once. At level `i` the arrangement holds
/// each group of nodes sharing a length-`i` suffix as one contiguous slice
/// in ascending id order. A stable counting sort on digit `i` splits each
/// group into its `b` slot slices, still in id order; those are the
/// candidates of every group member's level-`i` row, and the next level's
/// groups. A group of one has no candidates left, so the sweep ends with
/// the last group of two.
///
/// An entry `x → y` other than a self entry sits at slot `(k, y[k])`,
/// `k = |csuf(x, y)|`, which is also where `y` records `x`, so no id is
/// searched for: a counting sort buckets the picks by target, sources in
/// ascending input position. Then each table is built in one visit: its
/// entries in `(level, digit)` order, then its reverse neighbors, which is
/// the order its arena always interned them in.
pub(crate) fn build_tables_with<P>(space: IdSpace, ids: &[NodeId], pick: P) -> Vec<NeighborTable>
where
    P: Fn(&NodeId, usize, u8, &[NodeId]) -> usize,
{
    assert!(!ids.is_empty(), "cannot build an empty network");
    for id in ids {
        assert!(space.contains(id), "id {id} not in space");
    }
    let (n, b) = (ids.len(), space.base() as usize);
    // The arrangement: ids, and beside them their input positions.
    let mut pos: Vec<u32> = (0..n as u32).collect();
    pos.sort_unstable_by_key(|&p| ids[p as usize]);
    let mut row: Vec<NodeId> = pos.iter().map(|&p| ids[p as usize]).collect();
    assert!(
        row.windows(2).all(|w| w[0] != w[1]),
        "duplicate node identifier"
    );

    // `picked[i][p * b + j]`: the input position of the node in slot
    // `(i, j)` of table `p` other than a self entry, or `NONE`.
    const NONE: u32 = u32::MAX;
    let mut picked: Vec<Vec<u32>> = Vec::new();
    let (mut next_row, mut next_pos) = (row.clone(), pos.clone());
    let (mut groups, mut next_groups) = (vec![(0, n)], Vec::new());
    let (mut at, mut put) = (vec![0; b + 1], vec![0; b]);
    for i in 0..space.digit_count() {
        if groups.is_empty() {
            break;
        }
        let mut level = vec![NONE; n * b];
        next_groups.clear();
        for &(lo, hi) in &groups {
            // Digit `j`'s candidates land in `next_row[lo + at[j]..lo + at[j + 1]]`.
            at.fill(0);
            for x in &row[lo..hi] {
                at[x.digit(i) as usize + 1] += 1;
            }
            for j in 0..b {
                at[j + 1] += at[j];
            }
            put.copy_from_slice(&at[..b]);
            for k in lo..hi {
                let j = row[k].digit(i) as usize;
                next_row[lo + put[j]] = row[k];
                next_pos[lo + put[j]] = pos[k];
                put[j] += 1;
            }
            for k in lo..hi {
                let (x, p) = (row[k], pos[k] as usize);
                let own = x.digit(i) as usize;
                for j in (0..b).filter(|&j| j != own && at[j] < at[j + 1]) {
                    let (from, to) = (lo + at[j], lo + at[j + 1]);
                    level[p * b + j] = next_pos[from + pick(&x, i, j as u8, &next_row[from..to])];
                }
            }
            let split = (0..b).map(|j| (lo + at[j], lo + at[j + 1]));
            next_groups.extend(split.filter(|(from, to)| to - from > 1));
        }
        picked.push(level);
        std::mem::swap(&mut row, &mut next_row);
        std::mem::swap(&mut pos, &mut next_pos);
        std::mem::swap(&mut groups, &mut next_groups);
    }

    // `sources[start[y]..start[y + 1]]`: the tables that store `y`.
    let row_of = |p: usize| picked.iter().flat_map(move |l| &l[p * b..(p + 1) * b]);
    let mut start = vec![0; n + 1];
    for &q in picked.iter().flatten().filter(|&&q| q != NONE) {
        start[q as usize + 1] += 1;
    }
    for y in 0..n {
        start[y + 1] += start[y];
    }
    let mut sources = vec![0u32; start[n]];
    let mut put = start.clone();
    for p in 0..n {
        for &q in row_of(p).filter(|&&q| q != NONE) {
            sources[put[q as usize]] = p as u32;
            put[q as usize] += 1;
        }
    }
    ids.iter()
        .enumerate()
        .map(|(y, &me)| {
            let mut t = NeighborTable::new(space, me);
            // Interns nothing: the owner is interned first.
            t.set_self_entries(NodeState::S);
            for (s, &q) in row_of(y).enumerate().filter(|&(_, &q)| q != NONE) {
                let (node, state) = (ids[q as usize], NodeState::S);
                t.set(s / b, (s % b) as u8, Entry { node, state });
            }
            t.add_reverse_run(sources[start[y]..start[y + 1]].iter().map(|&p| {
                let x = ids[p as usize];
                (x.csuf_len(&me), x)
            }));
            t
        })
        .collect()
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
/// [`optimize_tables`]). Iteration order is deterministic (id order), so
/// a fixed storm yields a fixed outcome.
///
/// Consistency is preserved: an entry is only replaced by another node
/// carrying the slot's desired suffix. Reverse sets follow the swap.
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
    let at = owner_index(tables);
    for t in 0..tables.len() {
        let me = tables[t].owner();
        let observed = || demand.observed(&me).copied().filter(move |&c| c != me);
        report.examined += observed().count();
        let hot = observed().filter(|c| {
            let k = me.csuf_len(c);
            demand.slot_traffic(&me, k, c.digit(k)) >= min_traffic
        });
        report.promoted += improve_slots(tables, &at, t, hot, &latency);
    }
    report
}

/// Outcome of an [`optimize_tables`] pass.
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
/// any table of a node its table stores (exactly what a node could learn
/// from one message exchange). Reads see the previous round, like a
/// synchronous gossip round. All entries keep state `S` (the optimization
/// runs on settled networks), and reverse sets follow every swap.
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
        let by_owner: HashMap<NodeId, Vec<NodeId>> = tables
            .iter()
            .map(|t| (t.owner(), t.iter().map(|(_, _, e)| e.node).collect()))
            .collect();
        assert_eq!(by_owner.len(), tables.len(), "duplicate table owners");
        for t in 0..tables.len() {
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
            report.replacements += improve_slots(tables, &at, t, pool, &latency);
        }
    }
    report
}

/// Each table's position in `tables`, by owner.
fn owner_index(tables: &[NeighborTable]) -> HashMap<NodeId, usize> {
    tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.owner(), i))
        .collect()
}

/// The step both optimizers repeat. Each candidate `c` other than the
/// owner `me` of table `t` fits exactly one of its slots, `(k, c[k])` with
/// `k = |csuf(me, c)|`; if `c` is strictly closer to `me` than the
/// occupant, the slot takes `c` (state `S`). Reverse sets follow: `me`
/// stored the occupant in that one slot only, so the occupant forgets `me`
/// everywhere, and `c` records it. A node without a table in `tables`
/// (`at` indexes them) keeps no sets. Returns the slots swapped.
fn improve_slots<L>(
    tables: &mut [NeighborTable],
    at: &HashMap<NodeId, usize>,
    t: usize,
    candidates: impl IntoIterator<Item = NodeId>,
    latency: &L,
) -> usize
where
    L: Fn(&NodeId, &NodeId) -> u64,
{
    let me = tables[t].owner();
    let mut swapped = 0;
    for c in candidates.into_iter().filter(|&c| c != me) {
        let k = me.csuf_len(&c);
        let digit = c.digit(k);
        match tables[t].get(k, digit) {
            Some(old) if old.node != me && old.node != c => {
                if latency(&me, &c) < latency(&me, &old.node) {
                    let (node, state) = (c, NodeState::S);
                    tables[t].set(k, digit, Entry { node, state });
                    if let Some(&o) = at.get(&old.node) {
                        tables[o].remove_reverse(&me);
                    }
                    if let Some(&n) = at.get(&c) {
                        tables[n].add_reverse(k, digit, me);
                    }
                    swapped += 1;
                }
            }
            Some(_) => {}
            // The slot can be empty only if no member carries the suffix —
            // but `c` does, so with consistent input tables this cannot
            // happen.
            None => debug_assert!(false, "candidate for an empty entry"),
        }
    }
    swapped
}

/// Asserts that every reverse set is exactly what the entries imply: `y`
/// holds `x` in `R(k, y[k])`, `k = |csuf(x, y)|`, iff `x` stores `y`.
#[cfg(test)]
pub(crate) fn assert_reverse_sets_follow_entries(tables: &[NeighborTable]) {
    let owners: BTreeSet<NodeId> = tables.iter().map(|t| t.owner()).collect();
    let mut implied = BTreeSet::new();
    for t in tables {
        let x = t.owner();
        for (_, _, e) in t.iter().filter(|(_, _, e)| e.node != x) {
            if owners.contains(&e.node) {
                let k = x.csuf_len(&e.node);
                implied.insert((e.node, k, e.node.digit(k), x));
            }
        }
    }
    let mut held = BTreeSet::new();
    for t in tables {
        held.extend(
            t.reverse_runs()
                .map(|(level, digit, x)| (t.owner(), level, digit, x)),
        );
    }
    let missing: Vec<_> = implied.difference(&held).take(3).collect();
    let stale: Vec<_> = held.difference(&implied).take(3).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "(target, level, digit, source): missing {missing:?}, stale {stale:?}"
    );
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

    /// The sum of `fake_latency` over every entry other than a self entry.
    fn total_latency(tables: &[NeighborTable]) -> u64 {
        tables
            .iter()
            .flat_map(|t| {
                let me = t.owner();
                t.iter()
                    .filter(move |(_, _, e)| e.node != me)
                    .map(move |(_, _, e)| fake_latency(&me, &e.node))
            })
            .sum()
    }

    /// Every node of `v` forwarded one lookup from every other, through
    /// the slot the source fits.
    fn dense_demand(v: &[NodeId]) -> DemandProfile {
        let mut demand = DemandProfile::new();
        for &me in v {
            for &src in v.iter().filter(|&&src| src != me) {
                let k = me.csuf_len(&src);
                demand.record_hop(me, k, src.digit(k), src);
            }
        }
        demand
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
        assert!(total_latency(&prox) <= total_latency(&oracle));
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
        let full = build_proximate_tables(space, &v, fake_latency);
        assert!(
            total_latency(&full) < total_latency(&a),
            "sampling left no slack"
        );
        let mut promoted = a.clone();
        let demand = dense_demand(&v);
        let rep = promote_secondaries(&mut promoted, &demand, fake_latency, 1);
        assert!(rep.promoted > 0);
        assert_reverse_sets_follow_entries(&promoted);
        assert!(total_latency(&promoted) < total_latency(&a));
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
        let demand = dense_demand(&v);
        let before = total_latency(&tables);
        let report = promote_secondaries(&mut tables, &demand, fake_latency, 1);
        assert!(report.promoted > 0, "dense demand must promote something");
        assert_reverse_sets_follow_entries(&tables);
        let after = total_latency(&tables);
        assert!(after < before);
        let c = check_consistency(space, &tables);
        assert!(c.is_consistent(), "{c}");
    }

    #[test]
    fn promotion_respects_the_traffic_threshold() {
        let space = IdSpace::new(8, 4).unwrap();
        let v = ids(space, 30, 17);
        let mut tables = build_consistent_tables(space, &v);
        // One observation per slot, threshold of two: nothing may move.
        let demand = dense_demand(&v);
        let digest = crate::digest::tables_digest(&tables);
        let report = promote_secondaries(&mut tables, &demand, fake_latency, u64::MAX);
        assert_eq!(report.promoted, 0);
        assert_eq!(crate::digest::tables_digest(&tables), digest);
    }

    /// A latency of the ids' digits alone (no std hasher), so the pins
    /// below hold across toolchains.
    fn digit_latency(a: &NodeId, b: &NodeId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (lo, hi) = (lo.digits_lsd(), hi.digits_lsd());
        let digits = lo.iter().chain(hi.iter());
        let mut z = digits.fold(0u64, |z, &d| z.wrapping_mul(31).wrapping_add(d as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        1 + (z ^ (z >> 31)) % 100_000
    }

    #[test]
    fn optimize_tables_digests_are_pinned() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 5);
        let observed = [1, 2, 4].map(|rounds| {
            let mut tables = build_consistent_tables(space, &v);
            let r = optimize_tables(&mut tables, digit_latency, rounds);
            (r.replacements, crate::digest::tables_digest(&tables))
        });
        let golden = [
            (668, 0x543278a1565f6f67),
            (718, 0xaaf62a03c7a59131),
            (749, 0xfbad815105325cc0),
        ];
        assert_eq!(observed, golden);
    }

    #[test]
    fn promote_secondaries_digest_is_pinned() {
        let space = IdSpace::new(8, 5).unwrap();
        let v = ids(space, 60, 21);
        let mut tables = build_proximate_tables_sampled(space, &v, digit_latency, 2, 7);
        // A fixed storm: 4000 (forwarder, source) draws from an LCG.
        let mut demand = DemandProfile::new();
        let mut h: u64 = 43;
        for _ in 0..4000 {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (me, src) = (v[(h >> 33) as usize % 60], v[(h >> 13) as usize % 60]);
            let k = me.csuf_len(&src).min(space.digit_count() - 1);
            demand.record_hop(me, k, src.digit(k), src);
        }
        let r = promote_secondaries(&mut tables, &demand, digit_latency, 2);
        let observed = (
            r.examined,
            r.promoted,
            crate::digest::tables_digest(&tables),
        );
        assert_eq!(observed, (2381, 411, 0xc114977cb80cffde));
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
        let filled: Vec<usize> = tables.iter().map(|t| t.filled()).collect();
        let before = total_latency(&tables);
        optimize_tables(&mut tables, fake_latency, 2);
        let after: Vec<usize> = tables.iter().map(|t| t.filled()).collect();
        assert_eq!(filled, after, "no entry appears or vanishes");
        assert!(total_latency(&tables) <= before);
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
