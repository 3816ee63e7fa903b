//! Dirty-set incremental Definition-3.8 checking for churn loops.
//!
//! A churn wave touches a small fraction of the network, but
//! [`check_consistency`](crate::check_consistency)
//! re-verifies every entry of every table each time it runs. The
//! [`IncrementalChecker`] caches per-table results between calls and
//! re-verifies only the tables whose result *could* have changed:
//!
//! 1. **own mutation** — the table's [version](crate::NeighborTable::version)
//!    advanced since it was last checked (the version clock draws a fresh
//!    process-unique value on every entry mutation, so equal versions
//!    guarantee identical entries);
//! 2. **witness delta** — for every node `y` that joined or departed, each
//!    suffix `y[k-1..0]` whose canonical witness changed invalidates the
//!    tables of all carriers of `y[k-2..0]` (exactly the owners with an
//!    entry whose desired suffix is `y[k-1..0]`);
//! 3. **membership reference** — tables [storing](crate::NeighborTable::stores)
//!    a joined/departed node, whose `UnknownNeighbor` verdict may flip.
//!
//! Everything else keeps its cached violation list. The union is a sound
//! over-approximation — a table outside it has identical entries and sees
//! identical witness/membership answers for all of its `d · b` desired
//! suffixes, so re-checking it would reproduce the cached result — and
//! [`with_full_every`](IncrementalChecker::with_full_every) schedules a
//! periodic full pass as a belt-and-braces cross-check. Reports are
//! bit-identical to a from-scratch check (the equivalence is
//! pinned by the `streaming` integration tests across crash/repair waves).

use std::collections::{HashMap, HashSet};

use hyperring_id::IdSpace;

use crate::consistency::{check_table, ConsistencyReport, Violation};
use crate::suffix_compact::CompactSuffixIndex;
use crate::table::NeighborTable;

/// Incrementally re-verifies Definition 3.8 across check calls, caching
/// per-table results and re-checking only the dirty set.
///
/// Feed every call the *complete* current table set (typically
/// [`SimNetwork::tables_iter`](crate::SimNetwork::tables_iter)); the
/// checker diffs membership itself — joins and departures are inferred
/// from the owner set, no explicit notifications needed.
///
/// # Examples
///
/// ```
/// use hyperring_core::{build_consistent_tables, IncrementalChecker};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 3)?;
/// let ids: Vec<_> = ["012", "230", "111", "321"]
///     .iter().map(|s| space.parse_id(s).unwrap()).collect();
/// let mut checker = IncrementalChecker::new(space);
/// let tables = build_consistent_tables(space, &ids);
/// assert!(checker.check(tables.iter()).is_consistent());
/// // Nothing changed: the second call re-verifies zero tables.
/// assert!(checker.check(tables.iter()).is_consistent());
/// assert_eq!(checker.last_reverified(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IncrementalChecker {
    space: IdSpace,
    /// Live membership, kept in sync with the owners of the checked tables.
    index: CompactSuffixIndex,
    /// Sealed snapshot of `index` at the end of the previous check; the
    /// "before" side of the witness-delta comparison. `None` until the
    /// first check (which is always a full pass).
    prev: Option<CompactSuffixIndex>,
    /// Table version (arena id → version clock value) at last verification.
    last_version: HashMap<u32, u64>,
    /// Cached violations per table (arena id); absent means "clean".
    cached: HashMap<u32, Vec<Violation>>,
    checks: u64,
    full_every: u64,
    last_reverified: usize,
}

impl IncrementalChecker {
    /// Creates a checker with no periodic full pass (purely incremental
    /// after the first call).
    pub fn new(space: IdSpace) -> Self {
        IncrementalChecker {
            space,
            index: CompactSuffixIndex::new(space),
            prev: None,
            last_version: HashMap::new(),
            cached: HashMap::new(),
            checks: 0,
            full_every: 0,
            last_reverified: 0,
        }
    }

    /// Schedules a full (non-incremental) pass every `k`-th call to
    /// [`check`](Self::check) as a cross-check of the dirty-set logic;
    /// `k = 0` disables the periodic pass.
    pub fn with_full_every(mut self, k: u64) -> Self {
        self.full_every = k;
        self
    }

    /// Number of tables actually re-verified by the most recent
    /// [`check`](Self::check) (the dirty-set size; equals the node count
    /// on a full pass).
    pub fn last_reverified(&self) -> usize {
        self.last_reverified
    }

    /// The membership index the checker maintains (live owners of the last
    /// checked table set).
    pub fn index(&self) -> &CompactSuffixIndex {
        &self.index
    }

    /// Checks the current table set, re-verifying only tables whose result
    /// could have changed since the previous call. The report is identical
    /// to [`check_consistency`](crate::check_consistency)
    /// over the same tables.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or contains duplicate owners.
    pub fn check<'a, I>(&mut self, tables: I) -> ConsistencyReport
    where
        I: IntoIterator<Item = &'a NeighborTable>,
    {
        let force_full = self.prev.is_none()
            || (self.full_every > 0 && self.checks.is_multiple_of(self.full_every));
        self.check_inner(tables, force_full)
    }

    /// [`check`](Self::check), but unconditionally re-verifies every table
    /// (still updating the cache, so subsequent incremental calls resume
    /// from a known-good baseline).
    pub fn check_full<'a, I>(&mut self, tables: I) -> ConsistencyReport
    where
        I: IntoIterator<Item = &'a NeighborTable>,
    {
        self.check_inner(tables, true)
    }

    fn check_inner<'a, I>(&mut self, tables: I, force_full: bool) -> ConsistencyReport
    where
        I: IntoIterator<Item = &'a NeighborTable>,
    {
        let refs: Vec<&NeighborTable> = tables.into_iter().collect();
        assert!(!refs.is_empty(), "no tables to check");
        let d = self.space.digit_count();

        // Membership sync: joins are owners the index lacks, departures
        // are index members no table owns any more. Both invalidate the
        // witnesses of every suffix the changed id carries.
        let mut changed: Vec<hyperring_id::NodeId> = Vec::new();
        let mut current: HashSet<u32> = HashSet::with_capacity(refs.len());
        for t in &refs {
            let owner = t.owner();
            if self.index.insert(owner) {
                changed.push(owner);
            }
            current.insert(self.index.index_of(&owner).expect("just ensured live"));
        }
        let departed: Vec<u32> = self
            .index
            .order()
            .iter()
            .copied()
            .filter(|idx| !current.contains(idx))
            .collect();
        for idx in departed {
            let id = self.index.resolve(idx);
            self.index.remove(&id);
            self.last_version.remove(&idx);
            self.cached.remove(&idx);
            changed.push(id);
        }
        assert_eq!(self.index.len(), refs.len(), "duplicate table owners");
        self.index.seal();

        // Dirty set: arena ids of tables to re-verify.
        let dirty: HashSet<u32> = if force_full {
            current.iter().copied().collect()
        } else {
            let prev = self.prev.as_ref().expect("incremental pass has a baseline");
            let mut dirty = HashSet::new();
            // 1. Own mutation, detected by the version clock.
            for t in &refs {
                let idx = self.index.index_of(&t.owner()).expect("live owner");
                if self.last_version.get(&idx) != Some(&t.version()) {
                    dirty.insert(idx);
                }
            }
            for y in &changed {
                let yd = y.digits_lsd();
                for k in 1..=d {
                    // 2. Witness delta at suffix length k invalidates the
                    // carriers of the length-(k-1) parent suffix: exactly
                    // the owners holding an entry desiring y[k-1..0].
                    let before = prev.witness_idx(&yd[..k]).map(|i| prev.resolve(i));
                    let after = self
                        .index
                        .witness_idx(&yd[..k])
                        .map(|i| self.index.resolve(i));
                    if before != after {
                        for pos in self.index.suffix_range(&yd[..k - 1]) {
                            dirty.insert(self.index.order()[pos]);
                        }
                    }
                }
            }
            // 3. Tables referencing a joined/departed node: their
            // UnknownNeighbor verdict may flip without a witness moving.
            if !changed.is_empty() {
                for t in &refs {
                    let idx = self.index.index_of(&t.owner()).expect("live owner");
                    if !dirty.contains(&idx) && changed.iter().any(|y| t.stores(y)) {
                        dirty.insert(idx);
                    }
                }
            }
            dirty
        };

        // Re-verify the dirty tables and assemble the report in current
        // table order, mixing cached and fresh results (the cache is keyed
        // by arena id, so a table keeps its verdict across reorderings).
        let mut violations = Vec::new();
        self.last_reverified = 0;
        for t in &refs {
            let idx = self.index.index_of(&t.owner()).expect("live owner");
            if dirty.contains(&idx) {
                self.last_reverified += 1;
                self.last_version.insert(idx, t.version());
                let fresh = check_table(self.space, t, &self.index, |_, _, _| {});
                if fresh.is_empty() {
                    self.cached.remove(&idx);
                } else {
                    self.cached.insert(idx, fresh);
                }
            }
            if let Some(v) = self.cached.get(&idx) {
                violations.extend(v.iter().cloned());
            }
        }
        self.checks += 1;
        self.prev = Some(self.index.clone());
        ConsistencyReport::assemble(self.space, refs.len(), violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::oracle::build_consistent_tables;
    use crate::table::{Entry, NodeState};
    use hyperring_id::NodeId;

    fn ids(space: IdSpace, ss: &[&str]) -> Vec<NodeId> {
        ss.iter().map(|s| space.parse_id(s).unwrap()).collect()
    }

    #[test]
    fn unchanged_tables_reverify_nothing() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, &["0123", "3210", "1111", "2222", "0001", "1001"]);
        let tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space);
        assert!(checker.check(tables.iter()).is_consistent());
        assert_eq!(
            checker.last_reverified(),
            tables.len(),
            "first pass is full"
        );
        assert!(checker.check(tables.iter()).is_consistent());
        assert_eq!(checker.last_reverified(), 0);
    }

    #[test]
    fn mutation_is_recheck_detected_and_repair_clears_it() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let mut tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space);
        assert!(checker.check(tables.iter()).is_consistent());

        let removed = tables[0].get(0, 1).unwrap();
        tables[0].clear(0, 1);
        let report = checker.check(tables.iter());
        assert!(!report.is_consistent());
        let fresh = check_consistency(space, tables.iter());
        assert_eq!(report.violations(), fresh.violations());
        assert_eq!(checker.last_reverified(), 1, "only the mutated table");

        tables[0].set(0, 1, removed);
        assert!(checker.check(tables.iter()).is_consistent());
    }

    #[test]
    fn departure_dirties_witness_carriers_and_storers() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, &["0123", "3210", "1111", "2222", "0001", "1001"]);
        let tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space);
        assert!(checker.check(tables.iter()).is_consistent());

        // 1001 vanishes without anyone cleaning up: survivors still store
        // it (UnknownNeighbor) and its suffix classes lost a witness.
        let survivors: Vec<NeighborTable> = tables
            .iter()
            .filter(|t| t.owner() != v[5])
            .cloned()
            .collect();
        let report = checker.check(survivors.iter());
        let fresh = check_consistency(space, survivors.iter());
        assert_eq!(report.violations(), fresh.violations());
        assert!(!report.is_consistent(), "dangling references must surface");

        // Rebuilt tables over the survivors come back clean.
        let rebuilt = build_consistent_tables(
            space,
            &survivors.iter().map(|t| t.owner()).collect::<Vec<_>>(),
        );
        let report = checker.check(rebuilt.iter());
        assert!(report.is_consistent(), "{report}");
    }

    #[test]
    fn incremental_index_matches_fresh_build_after_departure() {
        let space = IdSpace::new(4, 4).unwrap();
        let v = ids(space, &["0123", "3210", "1111", "2222", "0001", "1001"]);
        let mut checker = IncrementalChecker::new(space);
        assert!(checker
            .check(&build_consistent_tables(space, &v))
            .is_consistent());
        // 1001 departs; tables rebuilt over the survivors.
        let tables = build_consistent_tables(space, &v[..5]);
        let report = checker.check(&tables);
        assert!(report.is_consistent(), "{report}");
        assert_eq!(checker.index().len(), 5);
        assert!(!checker.index().contains(&v[5]));
        // And the incremental index agrees with a from-scratch check.
        let fresh = check_consistency(space, &tables);
        assert_eq!(report.violations(), fresh.violations());
    }

    #[test]
    fn join_is_detected_without_notification() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space);
        assert!(checker.check(tables.iter()).is_consistent());

        // 321 joins; the old tables now have false negatives toward it.
        let mut grown = v.clone();
        grown.push(space.parse_id("321").unwrap());
        let new_tables = build_consistent_tables(space, &grown);
        let report = checker.check(new_tables.iter());
        assert!(report.is_consistent(), "{report}");

        // A joiner nobody integrated: stale old tables plus a fresh table.
        let joiner = space.parse_id("133").unwrap();
        let mut lonely = NeighborTable::new(space, joiner);
        lonely.set_self_entries(NodeState::S);
        let mut mixed: Vec<NeighborTable> = tables.clone();
        mixed.push(lonely);
        let report = checker.check(mixed.iter());
        let fresh = check_consistency(space, mixed.iter());
        assert_eq!(report.violations(), fresh.violations());
        assert!(!report.is_consistent());
    }

    #[test]
    fn periodic_full_pass_runs_on_schedule() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space).with_full_every(2);
        checker.check(tables.iter()); // call 0: first pass, full
        checker.check(tables.iter()); // call 1: incremental
        assert_eq!(checker.last_reverified(), 0);
        checker.check(tables.iter()); // call 2: scheduled full pass
        assert_eq!(checker.last_reverified(), tables.len());
    }

    #[test]
    fn corrupt_entry_matches_streaming_verdict() {
        let space = IdSpace::new(4, 3).unwrap();
        let v = ids(space, &["012", "230", "111"]);
        let mut tables = build_consistent_tables(space, &v);
        let mut checker = IncrementalChecker::new(space);
        checker.check(tables.iter());
        // Stale-T plus an unknown neighbor in one wave.
        let other = space.parse_id("230").unwrap();
        tables[0].set(
            0,
            0,
            Entry {
                node: other,
                state: NodeState::T,
            },
        );
        // Fits (1,1) of owner 230 (desired suffix "10") but is no member.
        let dead = space.parse_id("310").unwrap();
        tables[1].set(
            1,
            1,
            Entry {
                node: dead,
                state: NodeState::S,
            },
        );
        let report = checker.check(tables.iter());
        let fresh = check_consistency(space, tables.iter());
        assert_eq!(report.violations(), fresh.violations());
        assert_eq!(report.violations().len(), 2);
    }
}
