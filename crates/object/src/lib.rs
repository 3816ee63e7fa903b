//! Object location over hypercube routing — the application layer the
//! paper's introduction motivates (PRR's "accessing nearby copies of
//! replicated objects", Napster/Gnutella-style file sharing).
//!
//! The paper itself builds only the routing substrate and notes that the
//! schemes it generalizes (PRR, Tapestry, Pastry) differ in "the technique
//! each uses to resolve the final routing hop". This crate implements the
//! standard resolution: **surrogate routing**. An object's identifier is
//! hashed into the node ID space; the query walks the suffix levels and,
//! where the desired digit's entry is empty, deterministically falls over
//! to the next cyclically-populated digit. With *consistent* tables
//! (Definition 3.8), entry occupancy at a given level/digit is a global
//! property of the network — false-positive and false-negative freedom —
//! so every source resolves the **same root node** for an object; that
//! uniqueness is exactly why the paper's consistency guarantee matters to
//! applications, and the property tests here verify it on live tables
//! produced by join-protocol runs.
//!
//! The store *borrows* its tables ([`ObjectStore::over`]) and reads them
//! once, into rows of node indices: routing a lookup hashes its start and
//! then resolves no identifier, and a hit borrows its directory row, so a
//! storm of millions of lookups allocates nothing. The free functions
//! ([`surrogate_root_with`] and its wrappers) walk any `NodeId -> table`
//! lookup directly and are what the store's walk is tested against.
//! After membership changes,
//! [`ObjectStore::retarget`] (or the [`unbind`](ObjectStore::unbind) /
//! [`bind`](UnboundStore::bind) pair, when the new tables are built while
//! the store is set aside) rebinds the directory state to fresh tables
//! and republishes every object to its new root.
//!
//! # Examples
//!
//! ```
//! use hyperring_object::ObjectStore;
//! use hyperring_core::build_consistent_tables;
//! use hyperring_id::IdSpace;
//! use rand::SeedableRng;
//!
//! let space = IdSpace::new(16, 8)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let mut ids = std::collections::BTreeSet::new();
//! while ids.len() < 24 { ids.insert(space.random_id(&mut rng)); }
//! let ids: Vec<_> = ids.into_iter().collect();
//!
//! let tables = build_consistent_tables(space, &ids);
//! let mut store = ObjectStore::over(space, &tables);
//! let receipt = store.publish(ids[0], "skylark.mp3");
//! let hit = store.lookup(ids[5], "skylark.mp3").expect("object published");
//! assert_eq!(hit.root, receipt.root);
//! assert_eq!(hit.homes, [ids[0]]);
//! assert!(store.lookup(ids[5], "missing.mp3").is_none());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::marker::PhantomData;

use hyperring_core::NeighborTable;
use hyperring_id::{IdBuildHasher, IdSpace, NodeId};

/// One overlay hop taken by surrogate routing: `from`'s `(level, digit)`
/// entry advanced the query to `to`.
///
/// The digit is the entry actually used — after cyclic fallover — not
/// necessarily the object's own digit at that level. Self-hops (the entry
/// resolving back to `from`) are not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The forwarding node.
    pub from: NodeId,
    /// The table level whose entry was used.
    pub level: usize,
    /// The digit of the entry used (post-fallover).
    pub digit: u8,
    /// The next node on the path.
    pub to: NodeId,
}

/// Resolves the surrogate root of `object_id` from `start`, reporting
/// every overlay hop to `on_hop` — the allocation-free routing core.
///
/// Walks levels `0..d`; at each level the desired digit is the object's,
/// falling over cyclically (`j, j+1, …, mod b`) to the first populated
/// entry. Given consistent tables every start resolves the same node.
///
/// Returns the root and the number of overlay hops (self-hops excluded).
/// A walk that reaches a node `lookup` has no table for (a stale entry's
/// crashed, departed or joining node) ends there, at any level.
///
/// # Panics
///
/// Panics if a level has no populated entry at all (impossible: self
/// entries are always present).
pub fn surrogate_root_with<'a, F, V>(
    space: IdSpace,
    start: NodeId,
    object_id: &NodeId,
    mut lookup: F,
    mut on_hop: V,
) -> (NodeId, usize)
where
    F: FnMut(&NodeId) -> Option<&'a NeighborTable>,
    V: FnMut(Hop),
{
    let b = space.base() as u8;
    let mut at = start;
    let mut hops = 0;
    for level in 0..space.digit_count() {
        let Some(table) = lookup(&at) else {
            break;
        };
        let want = object_id.digit(level);
        let (digit, next) = (0..b)
            .map(|delta| (want + delta) % b)
            .find_map(|j| table.get(level, j).map(|e| (j, e.node)))
            .unwrap_or_else(|| panic!("level {level} of {at} has no populated entry"));
        if next != at {
            on_hop(Hop {
                from: at,
                level,
                digit,
                to: next,
            });
            at = next;
            hops += 1;
        }
    }
    (at, hops)
}

/// Resolves the surrogate root of `object_id` from `start` and returns the
/// overlay path taken (deduplicated self-hops, `start` included). Allocates
/// the path vector; the storm-grade variant is [`surrogate_root_with`].
///
/// # Panics
///
/// As [`surrogate_root_with`].
pub fn surrogate_route<'a, F>(
    space: IdSpace,
    start: NodeId,
    object_id: &NodeId,
    lookup: F,
) -> (NodeId, Vec<NodeId>)
where
    F: FnMut(&NodeId) -> Option<&'a NeighborTable>,
{
    let mut path = vec![start];
    let (root, _) = surrogate_root_with(space, start, object_id, lookup, |h| path.push(h.to));
    (root, path)
}

/// Proof of publication: where an object landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The object's hashed identifier.
    pub object_id: NodeId,
    /// The root (directory) node for the object.
    pub root: NodeId,
    /// Overlay hops taken from the publishing home to the root.
    pub hops: usize,
}

/// A successful lookup, borrowing the answering directory row from the
/// store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupHit<'s> {
    /// The object's hashed identifier.
    pub object_id: NodeId,
    /// The root node that answered.
    pub root: NodeId,
    /// Nodes holding a copy of the object, in publication order.
    pub homes: &'s [NodeId],
    /// Overlay hops taken from the querier to the root.
    pub hops: usize,
}

/// Plane word of an empty slot.
const EMPTY: u32 = u32::MAX;

/// A root's directory: one `(object id, homes)` row an object, homes in
/// publication order. A root holds a few rows, so a lookup scans them.
type Directory = Vec<(NodeId, Vec<NodeId>)>;

/// A directory service over a set of (consistent) neighbor tables:
/// per-root object directories plus publish/lookup via surrogate routing.
///
/// Construct with [`ObjectStore::over`], borrowing the network's tables
/// directly (e.g. `ObjectStore::over(net.space(), net.tables_iter())`
/// over a `SimNetwork`) — no table is cloned, and routing allocates
/// nothing per lookup. After membership changes, rebind with
/// [`retarget`](Self::retarget) (or [`unbind`](Self::unbind) +
/// [`bind`](UnboundStore::bind) when the store must be set aside while
/// the network mutates) and republished objects move to their new roots
/// (PRR's dynamic root-maintenance machinery is out of the paper's — and
/// this crate's — scope).
///
/// # The routing plane
///
/// `over` reads every table once and keeps what routing needs as node
/// *indices*: node `i` is the `i`-th table of the caller's iteration, and
/// each of its levels is one row of `b` words — the index of the entry's
/// node, or `EMPTY`. A walk hashes its start once, then moves over
/// indices only. Two things keep it equal, hop for hop and panic for
/// panic, to [`surrogate_root_with`] over the same tables:
///
/// - an entry naming a node that has no table here (a *dangling* entry:
///   the tables of a network after crashes) gets an index past the last
///   table; it has no rows, so a walk that steps on it ends there, as the
///   free walk does, and [`contains`](Self::contains) says it is no
///   live node;
/// - a node's rows stop after the last level that holds anything but its
///   self entry alone: from there up every cyclic fallover lands on the
///   node itself and the walk cannot move.
///
/// The plane is a snapshot of the tables at `over`; the borrow the store
/// keeps is what makes that sound — nobody can mutate a table under it.
#[derive(Debug)]
pub struct ObjectStore<'a> {
    space: IdSpace,
    /// Node index -> identifier: the owners in the caller's order, then
    /// the dangling nodes in order of first mention.
    ids: Vec<NodeId>,
    /// Identifier -> node index, consulted for a walk's start only. Its
    /// keys are the owners and entries of the tables given to `over`.
    index: HashMap<NodeId, u32, IdBuildHasher>,
    /// Node `i`'s rows are `row_start[i]..row_start[i + 1]`, level 0
    /// first; one entry past the last table, none for dangling nodes.
    row_start: Vec<u32>,
    /// `b` words a row.
    rows: Vec<u32>,
    /// Directory rows by root index.
    directories: Vec<Directory>,
    /// The plane copies nothing but stays valid only while the tables
    /// cannot change.
    tables: PhantomData<&'a NeighborTable>,
}

impl<'a> ObjectStore<'a> {
    /// Creates a store borrowing the given tables — the primary
    /// constructor; every table is read once and none is cloned.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty.
    pub fn over(space: IdSpace, tables: impl IntoIterator<Item = &'a NeighborTable>) -> Self {
        let tables: Vec<&NeighborTable> = tables.into_iter().collect();
        assert!(!tables.is_empty(), "store needs at least one node");
        let (b, d) = (space.base() as usize, space.digit_count());
        // Bounds every row, word and node index below.
        assert!(tables.len() * d * b < EMPTY as usize, "too many tables");
        let mut ids: Vec<NodeId> = tables.iter().map(|t| t.owner()).collect();
        let mut index: HashMap<NodeId, u32, IdBuildHasher> =
            (ids.iter().zip(0..)).map(|(&id, i)| (id, i)).collect();
        let mut row_start = Vec::with_capacity(tables.len() + 1);
        let mut rows: Vec<u32> = Vec::new();
        for (table, me) in tables.iter().zip(0u32..) {
            let first = rows.len();
            row_start.push((first / b) as u32);
            rows.resize(first + d * b, EMPTY);
            for (level, digit, entry) in table.iter() {
                rows[first + level * b + digit as usize] =
                    *index.entry(entry.node).or_insert_with(|| {
                        ids.push(entry.node);
                        (ids.len() - 1) as u32
                    });
            }
            // A level whose filled words all name `me` cannot move a walk.
            let depth = rows[first..]
                .chunks(b)
                .rposition(|row| !row.contains(&me) || row.iter().any(|&w| w != me && w != EMPTY))
                .map_or(0, |level| level + 1);
            rows.truncate(first + depth * b);
        }
        row_start.push((rows.len() / b) as u32);
        rows.shrink_to_fit();
        ObjectStore {
            space,
            directories: vec![Directory::new(); ids.len()],
            ids,
            index,
            row_start,
            rows,
            tables: PhantomData,
        }
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Live nodes, in the order their tables were given to
    /// [`over`](Self::over).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids[..self.len()].iter().copied()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Whether `id` is a live node; a walk that ends on any other node
    /// ended on a dangling entry.
    pub fn contains(&self, id: &NodeId) -> bool {
        self.index_of(id).is_some()
    }

    /// Whether the store has no nodes (never true: construction requires
    /// at least one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes an object name into the node ID space (SHA-1, as the paper
    /// suggests for IDs).
    pub fn object_id(&self, name: &str) -> NodeId {
        self.space.id_from_hash(name.as_bytes())
    }

    /// The index of a live node.
    fn index_of(&self, id: &NodeId) -> Option<u32> {
        let i = *self.index.get(id)?;
        ((i as usize) < self.len()).then_some(i)
    }

    /// The index a walk from `start` begins at.
    fn start(&self, start: &NodeId) -> u32 {
        self.index_of(start)
            .unwrap_or_else(|| panic!("unknown start {start}"))
    }

    /// [`surrogate_root_with`] over the plane: the root's index and the
    /// number of overlay hops from node `start`.
    fn walk(&self, start: u32, object_id: &NodeId, mut on_hop: impl FnMut(Hop)) -> (u32, usize) {
        let b = self.space.base() as usize;
        let mut at = start as usize;
        let mut hops = 0;
        for level in 0..self.space.digit_count() {
            let Some(&end) = self.row_start.get(at + 1) else {
                break;
            };
            let row = self.row_start[at] as usize + level;
            if row >= end as usize {
                break;
            }
            let row = &self.rows[row * b..][..b];
            let want = object_id.digit(level) as usize;
            let digit = (want..b)
                .chain(0..want)
                .find(|&j| row[j] != EMPTY)
                .unwrap_or_else(|| {
                    panic!("level {level} of {} has no populated entry", self.ids[at])
                });
            let next = row[digit] as usize;
            if next != at {
                on_hop(Hop {
                    from: self.ids[at],
                    level,
                    digit: digit as u8,
                    to: self.ids[next],
                });
                at = next;
                hops += 1;
            }
        }
        (at as u32, hops)
    }

    /// The surrogate root for an object id, resolved from `start`. A walk
    /// that steps on a dangling entry ends there and returns that node,
    /// which [`contains`](Self::contains) does not hold.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a live node; never on a dangling entry.
    pub fn root_from(&self, start: NodeId, object_id: &NodeId) -> (NodeId, usize) {
        self.root_from_with(start, object_id, |_| {})
    }

    /// As [`root_from`](Self::root_from), reporting every overlay hop to
    /// `on_hop` — the storm workload's per-hop load/demand accounting
    /// hook.
    ///
    /// # Panics
    ///
    /// As [`root_from`](Self::root_from).
    pub fn root_from_with(
        &self,
        start: NodeId,
        object_id: &NodeId,
        on_hop: impl FnMut(Hop),
    ) -> (NodeId, usize) {
        let (root, hops) = self.walk(self.start(&start), object_id, on_hop);
        (self.ids[root as usize], hops)
    }

    /// Publishes `name` from `home`: the object pointer is stored in the
    /// root's directory (the object's bytes stay at `home`, as in PRR).
    ///
    /// # Panics
    ///
    /// Panics if `home` is not a live node; a walk that ends on a dangling
    /// entry files the pointer there.
    pub fn publish(&mut self, home: NodeId, name: &str) -> PublishReceipt {
        let object_id = self.object_id(name);
        let (root, hops) = self.walk(self.start(&home), &object_id, |_| {});
        self.file(root, object_id, home);
        PublishReceipt {
            object_id,
            root: self.ids[root as usize],
            hops,
        }
    }

    /// Adds `home` to `object_id`'s row at root index `root`, once.
    fn file(&mut self, root: u32, object_id: NodeId, home: NodeId) {
        let dir = &mut self.directories[root as usize];
        match dir.iter_mut().find(|(id, _)| *id == object_id) {
            Some((_, homes)) if !homes.contains(&home) => homes.push(home),
            Some(_) => {}
            None => dir.push((object_id, vec![home])),
        }
    }

    /// Looks `name` up from `from`; `None` if nobody published it.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not a live node; never on a dangling entry.
    pub fn lookup(&self, from: NodeId, name: &str) -> Option<LookupHit<'_>> {
        let object_id = self.object_id(name);
        let (root, hops) = self.walk(self.start(&from), &object_id, |_| {});
        let (_, homes) =
            (self.directories[root as usize].iter()).find(|(id, _)| *id == object_id)?;
        Some(LookupHit {
            object_id,
            root: self.ids[root as usize],
            homes,
            hops,
        })
    }

    /// Releases the borrowed tables, keeping only the directory state —
    /// use when the network must be mutated while the store survives,
    /// then [`bind`](UnboundStore::bind) to the fresh tables.
    pub fn unbind(self) -> UnboundStore {
        UnboundStore {
            space: self.space,
            directories: (self.ids.into_iter().zip(self.directories))
                .filter(|(_, dir)| !dir.is_empty())
                .collect(),
        }
    }

    /// Rebinds the store to fresh tables in one step (after
    /// joins/leaves), republishing every directory row from its homes so
    /// objects move to their new roots. Returns the rebound store and the
    /// number of objects whose root changed.
    pub fn retarget<'b>(
        self,
        tables: impl IntoIterator<Item = &'b NeighborTable>,
    ) -> (ObjectStore<'b>, usize) {
        self.unbind().bind(tables)
    }

    /// Total directory rows currently stored, per node — the paper's P3
    /// (load balance) measured directly.
    pub fn directory_load(&self) -> BTreeMap<NodeId, usize> {
        (self.ids.iter().zip(&self.directories))
            .filter(|(_, dir)| !dir.is_empty())
            .map(|(root, dir)| (*root, dir.len()))
            .collect()
    }
}

/// An [`ObjectStore`] with its table borrow released: directory state
/// only, waiting to be [`bind`](Self::bind)ed to fresh tables.
#[derive(Debug)]
pub struct UnboundStore {
    space: IdSpace,
    /// The non-empty directories, by root.
    directories: Vec<(NodeId, Directory)>,
}

impl UnboundStore {
    /// Binds the directory state to fresh tables, republishing every row
    /// from its surviving homes (homes that left the network drop their
    /// copies). Returns the bound store and the number of objects whose
    /// root changed.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty.
    pub fn bind<'b>(
        self,
        tables: impl IntoIterator<Item = &'b NeighborTable>,
    ) -> (ObjectStore<'b>, usize) {
        let mut store = ObjectStore::over(self.space, tables);
        let moved = republish(&mut store, self.directories);
        (store, moved)
    }
}

/// Re-homes every directory row of `old` onto `store`'s current tables.
/// Rows of one object under two old roots (tables that were inconsistent
/// when it was published) merge, the first-republished row's homes first;
/// each old row that lands on another root counts as moved.
fn republish(store: &mut ObjectStore<'_>, old: Vec<(NodeId, Directory)>) -> usize {
    let mut moved = 0;
    for (old_root, dir) in old {
        for (oid, homes) in dir {
            // Homes that left the network drop their copies.
            let live_homes: Vec<NodeId> = homes.into_iter().filter(|h| store.contains(h)).collect();
            let Some(first) = live_homes.first() else {
                continue;
            };
            let (root, _) = store.walk(store.start(first), &oid, |_| {});
            if store.ids[root as usize] != old_root {
                moved += 1;
            }
            for home in live_homes {
                store.file(root, oid, home);
            }
        }
    }
    moved
}

/// Returns the set of distinct roots observed when resolving `object_id`
/// from every node — a diagnostic for the uniqueness property (singleton
/// iff resolution is consistent).
pub fn roots_from_everywhere(store: &ObjectStore<'_>, object_id: &NodeId) -> BTreeSet<NodeId> {
    store
        .nodes()
        .map(|n| store.root_from(n, object_id).0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::build_consistent_tables;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn make_network(
        b: u16,
        d: usize,
        n: usize,
        seed: u64,
    ) -> (IdSpace, Vec<NodeId>, Vec<NeighborTable>) {
        let space = IdSpace::new(b, d).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = std::collections::BTreeSet::new();
        while ids.len() < n {
            ids.insert(space.random_id(&mut rng));
        }
        let ids: Vec<NodeId> = ids.into_iter().collect();
        let tables = build_consistent_tables(space, &ids);
        (space, ids, tables)
    }

    #[test]
    fn every_source_resolves_the_same_root() {
        let (space, _ids, tables) = make_network(8, 5, 40, 3);
        let store = ObjectStore::over(space, &tables);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let oid = space.random_id(&mut rng);
            let roots = roots_from_everywhere(&store, &oid);
            assert_eq!(roots.len(), 1, "object {oid} resolved {roots:?}");
        }
    }

    #[test]
    fn exact_owner_is_its_own_root() {
        // An object id equal to a node id must resolve to that node.
        let (space, ids, tables) = make_network(4, 4, 30, 5);
        let store = ObjectStore::over(space, &tables);
        for id in &ids {
            let (root, hops) = store.root_from(ids[0], id);
            assert_eq!(root, *id);
            assert!(hops <= 4);
        }
    }

    #[test]
    fn publish_then_lookup_roundtrip_from_everywhere() {
        let (space, ids, tables) = make_network(16, 6, 32, 7);
        let mut store = ObjectStore::over(space, &tables);
        let names = ["alpha.txt", "beta.bin", "gamma.iso", "delta.tar"];
        for (i, name) in names.iter().enumerate() {
            store.publish(ids[i], name);
        }
        for name in names {
            for from in &ids {
                let hit = store.lookup(*from, name).expect("published object found");
                assert_eq!(hit.homes.len(), 1);
            }
        }
        assert!(store.lookup(ids[0], "nope").is_none());
    }

    #[test]
    fn replicas_accumulate_homes() {
        let (space, ids, tables) = make_network(16, 6, 32, 8);
        let mut store = ObjectStore::over(space, &tables);
        store.publish(ids[1], "popular.mp3");
        store.publish(ids[2], "popular.mp3");
        store.publish(ids[1], "popular.mp3"); // duplicate publish is idempotent
        let hit = store.lookup(ids[3], "popular.mp3").unwrap();
        assert_eq!(hit.homes, vec![ids[1], ids[2]]);
    }

    #[test]
    fn retarget_moves_roots_and_preserves_lookups() {
        let (space, ids, tables) = make_network(16, 6, 24, 11);
        let mut store = ObjectStore::over(space, &tables);
        for (i, name) in ["a", "b", "c", "d", "e", "f", "g", "h"].iter().enumerate() {
            store.publish(ids[i % ids.len()], name);
        }
        // Grow the network: fresh oracle tables over a superset.
        let mut rng = StdRng::seed_from_u64(77);
        let mut all: std::collections::BTreeSet<NodeId> = ids.iter().copied().collect();
        while all.len() < 48 {
            all.insert(space.random_id(&mut rng));
        }
        let all: Vec<NodeId> = all.into_iter().collect();
        let grown = build_consistent_tables(space, &all);
        let (store, _moved) = store.retarget(&grown);
        for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
            let hit = store
                .lookup(all[0], name)
                .expect("survives membership change");
            assert!(!hit.homes.is_empty());
        }
    }

    #[test]
    fn unbind_bind_drops_departed_homes() {
        let (space, ids, tables) = make_network(16, 5, 20, 21);
        let mut store = ObjectStore::over(space, &tables);
        store.publish(ids[0], "lonely");
        store.publish(ids[1], "shared");
        store.publish(ids[2], "shared");
        let unbound = store.unbind();
        // Shrink the network: ids[0] departs.
        let survivors: Vec<NodeId> = ids[1..].to_vec();
        let shrunk = build_consistent_tables(space, &survivors);
        let (store, _moved) = unbound.bind(&shrunk);
        assert!(store.lookup(ids[1], "lonely").is_none(), "home departed");
        let hit = store.lookup(ids[1], "shared").unwrap();
        assert_eq!(hit.homes, vec![ids[1], ids[2]]);
    }

    #[test]
    fn rebinding_merges_the_rows_of_one_object() {
        // Holed tables route one name from two homes to two roots; on
        // consistent tables both rows reach one root and keep both homes.
        let space = IdSpace::new(4, 4).unwrap();
        let homes = [
            space.parse_id("0012").unwrap(),
            space.parse_id("0112").unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(36);
        let mut ids: std::collections::BTreeSet<NodeId> = homes.into_iter().collect();
        while ids.len() < 40 {
            ids.insert(space.random_id(&mut rng));
        }
        let ids: Vec<NodeId> = ids.into_iter().collect();
        let consistent = build_consistent_tables(space, &ids);
        let mut holed = consistent.clone();
        for table in &mut holed {
            let owner = table.owner();
            let others: Vec<(usize, u8)> = (table.iter())
                .filter(|(_, _, e)| e.node != owner)
                .map(|(level, digit, _)| (level, digit))
                .collect();
            for (level, digit) in others {
                if rng.gen_range(0..3) == 0 {
                    table.clear(level, digit);
                }
            }
        }
        let mut store = ObjectStore::over(space, &holed);
        let name = (0..)
            .map(|i| format!("split-{i}"))
            .find(|name| {
                let oid = store.object_id(name);
                store.root_from(homes[0], &oid).0 != store.root_from(homes[1], &oid).0
            })
            .unwrap();
        store.publish(homes[0], &name);
        store.publish(homes[1], &name);
        let (store, moved) = store.retarget(&consistent);
        assert!(moved >= 1);
        let mut found = store.lookup(ids[0], &name).unwrap().homes.to_vec();
        found.sort();
        assert_eq!(found, homes);
    }

    #[test]
    fn route_and_root_agree() {
        let (space, ids, tables) = make_network(8, 5, 40, 19);
        let store = ObjectStore::over(space, &tables);
        let mut rng = StdRng::seed_from_u64(23);
        let by_owner: HashMap<NodeId, &NeighborTable> =
            tables.iter().map(|t| (t.owner(), t)).collect();
        for _ in 0..50 {
            let oid = space.random_id(&mut rng);
            let start = ids[0];
            let (root_a, path) =
                surrogate_route(space, start, &oid, |id| by_owner.get(id).copied());
            let (root_b, hops) = store.root_from(start, &oid);
            assert_eq!(root_a, root_b);
            assert_eq!(path.len() - 1, hops);
            // The hop stream reconstructs the path exactly.
            let mut replayed = vec![start];
            store.root_from_with(start, &oid, |h| {
                assert_eq!(h.from, *replayed.last().unwrap());
                assert!(h.level < space.digit_count());
                replayed.push(h.to);
            });
            assert_eq!(replayed, path);
        }
    }

    #[test]
    fn directory_load_is_spread() {
        // P3 sanity: with many objects, no single node hoards the
        // directory (load is hash-spread).
        let (space, ids, tables) = make_network(16, 6, 64, 13);
        let mut store = ObjectStore::over(space, &tables);
        for i in 0..256 {
            store.publish(ids[i % ids.len()], &format!("file-{i}"));
        }
        let load = store.directory_load();
        let max = load.values().max().copied().unwrap_or(0);
        let total: usize = load.values().sum();
        assert_eq!(total, 256);
        assert!(
            max <= 32,
            "one node holds {max} of 256 directory rows — not balanced"
        );
    }

    #[test]
    #[should_panic(expected = "unknown start")]
    fn lookup_from_stranger_panics() {
        let (space, ids, tables) = make_network(4, 4, 10, 2);
        let store = ObjectStore::over(space, &tables);
        let stranger = (0..space.capacity().unwrap())
            .map(|v| space.id_from_value(v).unwrap())
            .find(|x| !ids.contains(x))
            .unwrap();
        let _ = store.root_from(stranger, &ids[0]);
    }
}
