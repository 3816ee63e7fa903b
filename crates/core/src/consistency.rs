//! The consistency checker: Definition 3.8 of the paper, plus reachability.
//!
//! A network `⟨V, N(V)⟩` is *consistent* iff for every node `x` and entry
//! `(i, j)`:
//!
//! * **(a) false-negative freedom** — if some node carries the desired
//!   suffix `j ∘ x[i-1..0]`, the entry stores such a node;
//! * **(b) false-positive freedom** — if no node carries the desired
//!   suffix, the entry is empty.
//!
//! By Lemma 3.1, (a) is equivalent to every node being reachable from every
//! other node; [`check_reachability`] verifies that equivalence directly.
//!
//! One checker, one oracle:
//!
//! * [`check_consistency`] — interns the table owners in a
//!   [`CompactSuffixIndex`] and walks every borrowed table against it by
//!   range descent: `O(n · d · b · log n)` after the index build, with no
//!   table cloned and `≈ (d + 12) · n` bytes of check-phase memory.
//!   [`digest_and_check_streaming`] folds the canonical table digest out of
//!   the same walk, and [`IncrementalChecker`](crate::IncrementalChecker)
//!   re-runs it over the dirty tables only.
//! * [`check_consistency_naive`] — the specification transcribed
//!   literally, scanning all of `V` per entry (`O(n² · d · b)`): the
//!   reference implementation the checker is tested and benchmarked
//!   against. It shares no logic with it.
//!
//! Both report identical [`Violation`] lists: witnesses are always the
//! *smallest* live node carrying the desired suffix.

use std::fmt;

use hyperring_id::{IdSpace, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::digest::{digest_entry, digest_reverse_sets, digest_table_prefix, Fnv};
use crate::routing::route;
use crate::suffix_compact::CompactSuffixIndex;
use crate::table::{Entry, NeighborTable, NodeState};

/// One consistency violation found by [`check_consistency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Condition (a) violated: nodes with the desired suffix exist but the
    /// entry is empty.
    FalseNegative {
        /// The node whose table is inconsistent.
        node: NodeId,
        /// Entry level.
        level: usize,
        /// Entry digit.
        digit: u8,
        /// A node that should have been stored (a witness).
        witness: NodeId,
    },
    /// Condition (b) violated: the entry stores a node although no live
    /// node has the desired suffix (or it stores a node with the *wrong*
    /// suffix).
    FalsePositive {
        /// The node whose table is inconsistent.
        node: NodeId,
        /// Entry level.
        level: usize,
        /// Entry digit.
        digit: u8,
        /// The bogus stored node.
        stored: NodeId,
    },
    /// An entry stores a node that is not a member of the network at all.
    UnknownNeighbor {
        /// The node whose table is inconsistent.
        node: NodeId,
        /// Entry level.
        level: usize,
        /// Entry digit.
        digit: u8,
        /// The stored, unknown node.
        stored: NodeId,
    },
    /// An entry still records state `T` although the join process is over.
    StaleState {
        /// The node whose table holds the stale entry.
        node: NodeId,
        /// Entry level.
        level: usize,
        /// Entry digit.
        digit: u8,
        /// The neighbor still recorded as `T`.
        stored: NodeId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::FalseNegative {
                node,
                level,
                digit,
                witness,
            } => write!(
                f,
                "false negative: {node} entry ({level},{digit}) empty but {witness} exists"
            ),
            Violation::FalsePositive {
                node,
                level,
                digit,
                stored,
            } => write!(
                f,
                "false positive: {node} entry ({level},{digit}) stores {stored} with wrong/ghost suffix"
            ),
            Violation::UnknownNeighbor {
                node,
                level,
                digit,
                stored,
            } => write!(
                f,
                "unknown neighbor: {node} entry ({level},{digit}) stores non-member {stored}"
            ),
            Violation::StaleState {
                node,
                level,
                digit,
                stored,
            } => write!(
                f,
                "stale state: {node} entry ({level},{digit}) records {stored} as T"
            ),
        }
    }
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    violations: Vec<Violation>,
    nodes: usize,
    entries_checked: usize,
}

impl ConsistencyReport {
    /// Assembles the report of a pass over `nodes` tables of `space`
    /// (`d · b` entries each) from the violations found, in table order.
    pub(crate) fn assemble(space: IdSpace, nodes: usize, violations: Vec<Violation>) -> Self {
        ConsistencyReport {
            violations,
            nodes,
            entries_checked: nodes * space.digit_count() * space.base() as usize,
        }
    }

    /// Whether no violation was found.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in table order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Number of nodes checked.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of table entries checked.
    pub fn entries_checked(&self) -> usize {
        self.entries_checked
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_consistent() {
            write!(
                f,
                "consistent: {} nodes, {} entries",
                self.nodes, self.entries_checked
            )
        } else {
            writeln!(
                f,
                "INCONSISTENT: {} violations over {} nodes",
                self.violations.len(),
                self.nodes
            )?;
            for v in self.violations.iter().take(20) {
                writeln!(f, "  {v}")?;
            }
            if self.violations.len() > 20 {
                writeln!(f, "  … and {} more", self.violations.len() - 20)?;
            }
            Ok(())
        }
    }
}

/// Checks one node's table against a **sealed** [`CompactSuffixIndex`] by
/// range descent, without constructing a single `Suffix` or `NodeId`
/// witness on the happy path.
///
/// Invariant driving the walk: in suffix order, the carriers of the
/// owner's length-`i` suffix `x[i-1..0]` form one contiguous range, and
/// within that range the digit at position `i` ascends. So the per-digit
/// carrier sub-ranges of level `i` fall out of `b` binary searches, and
/// descending to level `i+1` just narrows to the owner's own digit's
/// sub-range. Per entry the checks reduce to: sub-range emptiness (the
/// witness-existence test), a membership binary search for the stored
/// node, and the integer `fits` predicate — which equals
/// `has_suffix(desired_suffix(i, j))` by definition. A witness `NodeId`
/// is only materialized on the (rare) false-negative path, via the
/// index's numeric-minimum query — the same "smallest carrier"
/// [`check_consistency_naive`] and
/// [`build_consistent_tables`](crate::build_consistent_tables) choose.
///
/// `on_entry` is invoked for every **non-empty** entry in slot order
/// (level-major, digit ascending) — the hook the combined digest+check
/// pass uses to fold the digest out of the same traversal.
pub(crate) fn check_table(
    space: IdSpace,
    t: &NeighborTable,
    index: &CompactSuffixIndex,
    mut on_entry: impl FnMut(usize, u8, &Entry),
) -> Vec<Violation> {
    let x = t.owner();
    let b = space.base() as usize;
    let mut violations = Vec::new();
    let mut bounds = vec![0usize; b + 1];
    // Carriers of the empty suffix: everyone.
    let (mut lo, mut hi) = (0usize, index.len());
    for i in 0..space.digit_count() {
        bounds[0] = lo; // every digit is >= 0
        for (j, bound) in bounds.iter_mut().enumerate().skip(1).take(b - 1) {
            *bound = index.lower_bound_digit(lo, hi, i, j as u8);
        }
        bounds[b] = hi; // every digit is < b
        for j in 0..b {
            let (sub_lo, sub_hi) = (bounds[j], bounds[j + 1]);
            let j = j as u8;
            match (t.get(i, j), sub_lo < sub_hi) {
                (None, true) => {
                    let w = index
                        .min_in_range(sub_lo, sub_hi)
                        .expect("non-empty carrier range has a minimum");
                    violations.push(Violation::FalseNegative {
                        node: x,
                        level: i,
                        digit: j,
                        witness: index.resolve(w),
                    });
                }
                (None, false) => {}
                (Some(e), carried) => {
                    on_entry(i, j, &e);
                    if !index.contains(&e.node) {
                        violations.push(Violation::UnknownNeighbor {
                            node: x,
                            level: i,
                            digit: j,
                            stored: e.node,
                        });
                    } else if !carried || !t.fits(i, j, &e.node) {
                        violations.push(Violation::FalsePositive {
                            node: x,
                            level: i,
                            digit: j,
                            stored: e.node,
                        });
                    } else if e.state == NodeState::T {
                        violations.push(Violation::StaleState {
                            node: x,
                            level: i,
                            digit: j,
                            stored: e.node,
                        });
                    }
                }
            }
        }
        let own = x.digit(i) as usize;
        (lo, hi) = (bounds[own], bounds[own + 1]);
    }
    violations
}

/// Collects the borrowed tables and interns their owners in a sealed
/// [`CompactSuffixIndex`] — the membership every entry is judged against.
///
/// # Panics
///
/// Panics if `tables` is empty or contains duplicate owners.
fn index_owners<'a>(
    space: IdSpace,
    tables: impl IntoIterator<Item = &'a NeighborTable>,
) -> (Vec<&'a NeighborTable>, CompactSuffixIndex) {
    let refs: Vec<&NeighborTable> = tables.into_iter().collect();
    assert!(!refs.is_empty(), "no tables to check");
    let mut index = CompactSuffixIndex::new(space);
    for t in &refs {
        index.insert(t.owner());
    }
    assert_eq!(index.len(), refs.len(), "duplicate table owners");
    index.seal();
    (refs, index)
}

/// Checks Definition 3.8 over a closed set of tables (one per live node),
/// and additionally flags entries still recorded as `T` — after all joins
/// have completed, every neighbor must be known to be an S-node.
///
/// Takes anything that yields `&NeighborTable` — `&tables` over an owned
/// `Vec` or slice, or
/// [`SimNetwork::tables_iter`](crate::SimNetwork::tables_iter) over the
/// engines' arena-backed tables — and walks each table in place against a
/// [`CompactSuffixIndex`] of the owners, one table after another. Nothing
/// is cloned: the check-phase overhead is the index (`≈ (d + 12) · n`
/// bytes) plus one reference per node. Violations come back in table
/// order, and the reported witness for a missing entry is always the
/// smallest carrier of the desired suffix.
///
/// # Examples
///
/// ```
/// use hyperring_core::{build_consistent_tables, check_consistency};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 3)?;
/// let ids: Vec<_> = ["012", "230", "111"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let mut tables = build_consistent_tables(space, &ids);
/// assert!(check_consistency(space, &tables).is_consistent());
/// // Blanking a required entry is detected as a false negative.
/// tables[0].clear(0, 1);
/// let report = check_consistency(space, &tables);
/// assert!(!report.is_consistent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if `tables` is empty or contains duplicate owners.
pub fn check_consistency<'a, I>(space: IdSpace, tables: I) -> ConsistencyReport
where
    I: IntoIterator<Item = &'a NeighborTable>,
{
    let (refs, index) = index_owners(space, tables);
    let violations = refs
        .iter()
        .flat_map(|t| check_table(space, t, &index, |_, _, _| {}))
        .collect();
    ConsistencyReport::assemble(space, refs.len(), violations)
}

/// One pass, two answers: the canonical
/// [`tables_digest`](crate::tables_digest) **and** the Definition-3.8
/// report, folding the digest out of the checker's own slot walk so each
/// table's arena is read once instead of twice. The digest is
/// byte-identical to `tables_digest` over the same sequence (the golden
/// values must never move); the report is identical to
/// [`check_consistency`].
///
/// # Panics
///
/// Panics if `tables` is empty or contains duplicate owners.
pub fn digest_and_check_streaming<'a, I>(space: IdSpace, tables: I) -> (u64, ConsistencyReport)
where
    I: IntoIterator<Item = &'a NeighborTable>,
{
    let (refs, index) = index_owners(space, tables);
    let mut h = Fnv::new();
    let mut violations = Vec::new();
    for t in &refs {
        digest_table_prefix(&mut h, t);
        violations.extend(check_table(space, t, &index, |level, digit, e| {
            digest_entry(&mut h, level, digit, e);
        }));
        digest_reverse_sets(&mut h, t);
    }
    let report = ConsistencyReport::assemble(space, refs.len(), violations);
    (h.finish(), report)
}

/// Definition 3.8 transcribed literally: for every entry, scan all of `V`
/// for carriers of the desired suffix. `O(n² · d · b)` — kept as the
/// reference implementation that [`check_consistency`] is tested and
/// benchmarked against, not for production use.
///
/// # Panics
///
/// Panics if `tables` is empty or contains duplicate owners.
pub fn check_consistency_naive(space: IdSpace, tables: &[NeighborTable]) -> ConsistencyReport {
    assert!(!tables.is_empty(), "no tables to check");
    let members: Vec<NodeId> = tables.iter().map(|t| t.owner()).collect();
    {
        let mut sorted = members.clone();
        sorted.sort();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate table owners"
        );
    }

    let mut report = ConsistencyReport {
        nodes: tables.len(),
        ..Default::default()
    };
    for t in tables {
        let x = t.owner();
        for i in 0..space.digit_count() {
            for j in 0..space.base() as u8 {
                report.entries_checked += 1;
                let desired = t.desired_suffix(i, j);
                // The full scan the index replaces: smallest carrier wins.
                let witness = members
                    .iter()
                    .filter(|m| m.has_suffix(&desired))
                    .min()
                    .copied();
                match (t.get(i, j), witness) {
                    (None, Some(w)) => report.violations.push(Violation::FalseNegative {
                        node: x,
                        level: i,
                        digit: j,
                        witness: w,
                    }),
                    (Some(e), w) => {
                        if !members.contains(&e.node) {
                            report.violations.push(Violation::UnknownNeighbor {
                                node: x,
                                level: i,
                                digit: j,
                                stored: e.node,
                            });
                        } else if w.is_none() || !e.node.has_suffix(&desired) {
                            report.violations.push(Violation::FalsePositive {
                                node: x,
                                level: i,
                                digit: j,
                                stored: e.node,
                            });
                        } else if e.state == NodeState::T {
                            report.violations.push(Violation::StaleState {
                                node: x,
                                level: i,
                                digit: j,
                                stored: e.node,
                            });
                        }
                    }
                    (None, None) => {}
                }
            }
        }
    }
    report
}

/// Verifies Lemma 3.1 directly: every node can route to every other node
/// within `d` hops. Returns the list of failing `(source, target)` pairs
/// (empty means fully reachable).
///
/// Quadratic in the number of nodes — intended for tests and small-to-mid
/// networks; `check_consistency` is the linear-time proxy (the two agree by
/// Lemma 3.1). Takes owned tables (`&tables`) and borrowed ones (e.g.
/// [`SimNetwork::tables_iter`](crate::SimNetwork::tables_iter)) alike.
pub fn check_reachability<'a>(
    tables: impl IntoIterator<Item = &'a NeighborTable>,
) -> Vec<(NodeId, NodeId)> {
    let tables: Vec<&NeighborTable> = tables.into_iter().collect();
    let by_owner = ByOwner::new(&tables);
    let mut failures = Vec::new();
    for s in &tables {
        for t in &tables {
            if s.owner() != t.owner() && !by_owner.delivers(s.owner(), t.owner()) {
                failures.push((s.owner(), t.owner()));
            }
        }
    }
    failures
}

/// The tables sorted by owner, for the reachability checks' routes. A
/// sorted vec + binary search instead of a `HashMap<NodeId, _>`: the
/// per-hop lookup inside `route` is the hot path here, and word compares
/// beat SipHashing ids n²·d times.
struct ByOwner<'a>(Vec<(NodeId, &'a NeighborTable)>);

impl<'a> ByOwner<'a> {
    fn new(tables: &[&'a NeighborTable]) -> Self {
        let mut by_id: Vec<_> = tables.iter().map(|t| (t.owner(), *t)).collect();
        by_id.sort_unstable_by_key(|p| p.0);
        ByOwner(by_id)
    }

    /// Whether [`route`] delivers from `src` to `dst` over these tables.
    fn delivers(&self, src: NodeId, dst: NodeId) -> bool {
        route(src, dst, |id| {
            self.0
                .binary_search_by(|p| p.0.cmp(id))
                .ok()
                .map(|i| self.0[i].1)
        })
        .is_delivered()
    }
}

/// Lemma 3.1 spot-checked instead of proved exhaustively: routes
/// `k_pairs` seeded-random ordered `(source, target)` pairs (drawn with
/// replacement, `source ≠ target`) and returns the failing ones. The
/// all-pairs [`check_reachability`] is `O(n² · d)` — unusable by
/// n ≈ 4096 — while a sample keeps the assertion affordable at any `n`;
/// the scale experiment runs it at every size it bootstraps.
///
/// Deterministic for a fixed `(tables, k_pairs, seed)`; failures are a
/// subset of what `check_reachability` would report (each failing pair it
/// returns is a genuine routing failure, duplicates removed). Networks
/// with fewer than two nodes have no pairs to draw: the result is empty.
pub fn check_reachability_sampled(
    tables: &[&NeighborTable],
    k_pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let n = tables.len();
    if n < 2 {
        return Vec::new();
    }
    let by_owner = ByOwner::new(tables);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures = Vec::new();
    for _ in 0..k_pairs {
        let s = rng.gen_range(0..n);
        let mut t = rng.gen_range(0..n - 1);
        if t >= s {
            t += 1;
        }
        let (src, dst) = (by_owner.0[s].0, by_owner.0[t].0);
        if !by_owner.delivers(src, dst) {
            failures.push((src, dst));
        }
    }
    failures.sort_unstable();
    failures.dedup();
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::build_consistent_tables;
    use crate::table::Entry;

    fn ids(space: IdSpace, ss: &[&str]) -> Vec<NodeId> {
        ss.iter().map(|s| space.parse_id(s).unwrap()).collect()
    }

    #[test]
    fn oracle_network_is_consistent_and_reachable() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, &["0123", "3210", "1111", "2222", "0001", "1001"]);
        let tables = build_consistent_tables(space, &v);
        let report = check_consistency(space, &tables);
        assert!(report.is_consistent(), "{report}");
        assert_eq!(report.nodes(), 6);
        assert_eq!(report.entries_checked(), 6 * 4 * 4);
        assert!(check_reachability(&tables).is_empty());
    }

    #[test]
    fn false_negative_detected_and_breaks_reachability() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let mut tables = build_consistent_tables(space, &v);
        // Blank 012's level-0 entry toward digit 1 (the only path to 111
        // from 012 starts there).
        tables[0].clear(0, 1);
        let report = check_consistency(space, &tables);
        assert!(!report.is_consistent());
        assert!(matches!(
            report.violations()[0],
            Violation::FalseNegative {
                level: 0,
                digit: 1,
                ..
            }
        ));
        let failures = check_reachability(&tables);
        assert!(failures
            .iter()
            .any(|(s, t)| s.to_string() == "012" && t.to_string() == "111"));
    }

    #[test]
    fn false_positive_detected() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230"]);
        let mut tables = build_consistent_tables(space, &v);
        // 012 claims a neighbor with suffix "3" although none exists.
        let ghost = space.parse_id("230").unwrap();
        // Occupying (0, 0): desired suffix "0"; 230 fits "0". Use an entry
        // whose desired suffix no member carries: (0, 3).
        // 230 does not end in 3, so `set` would trip the fits() debug
        // assertion; craft the violation via a node that fits but is dead.
        let dead = space.parse_id("013").unwrap();
        tables[0].set(
            0,
            3,
            Entry {
                node: dead,
                state: NodeState::S,
            },
        );
        let _ = ghost;
        let report = check_consistency(space, &tables);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::UnknownNeighbor { .. })));
    }

    #[test]
    fn stale_t_state_detected() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230"]);
        let mut tables = build_consistent_tables(space, &v);
        let other = space.parse_id("230").unwrap();
        tables[0].set(
            0,
            0,
            Entry {
                node: other,
                state: NodeState::T,
            },
        );
        let report = check_consistency(space, &tables);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::StaleState { .. })));
    }

    #[test]
    fn report_display_is_informative() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let tables = build_consistent_tables(space, &v);
        let ok = check_consistency(space, &tables);
        assert!(ok.to_string().contains("consistent"));
        let mut broken = build_consistent_tables(space, &v);
        broken[0].clear(0, 1);
        let bad = check_consistency(space, &broken);
        assert!(bad.to_string().contains("INCONSISTENT"));
        assert!(bad.to_string().contains("false negative"));
    }

    #[test]
    fn indexed_checker_matches_naive_on_clean_and_corrupted_tables() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, &["0123", "3210", "1111", "2222", "0001", "1001"]);
        let mut tables = build_consistent_tables(space, &v);
        let clean_fast = check_consistency(space, &tables);
        let clean_naive = check_consistency_naive(space, &tables);
        assert_eq!(clean_fast.violations(), clean_naive.violations());
        assert_eq!(clean_fast.entries_checked(), clean_naive.entries_checked());

        tables[0].clear(0, 1);
        tables[2].clear(1, 2);
        let fast = check_consistency(space, &tables);
        let naive = check_consistency_naive(space, &tables);
        assert_eq!(fast.violations(), naive.violations());
        assert!(!fast.is_consistent());
    }
}
