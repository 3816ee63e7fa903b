//! Heap footprint of a grown network, counted exactly.
//!
//! A node's durable state is its table plus reverse-neighbor sets; effect
//! buffers, join queues and directory versions are scratch and must not
//! accumulate per node or per join. These tests pin that with a counting
//! allocator instead of RSS, so the numbers repeat to the byte on any
//! host. Counters are per thread: each test measures only the allocations
//! of its own (single-threaded) simulation, whatever else the harness runs
//! beside it.
//!
//! `cargo test -p hyperring-core --test footprint -- --nocapture` prints
//! live bytes, the peak, and the live blocks by allocation size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;

use hyperring_core::{
    bootstrap, build_consistent_tables, check_consistency, Effect, Entry, JoinEngine,
    NeighborTable, NodeInput, NodeState, ProtocolOptions, SimNetworkBuilder, SimNode,
    TableSnapshot,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::UniformDelay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct allocation sizes the histogram can hold; further sizes are
/// left out of it (the byte totals stay exact).
const SLOTS: usize = 1024;

/// One thread's heap: bytes live, their high-water mark, and live blocks
/// by requested size (open addressing, size 0 marks a free slot).
struct Heap {
    live: isize,
    peak: isize,
    blocks: [(usize, isize); SLOTS],
}

impl Heap {
    /// Books one block of `size` bytes allocated (`sign` = 1) or freed
    /// (`sign` = -1). Must not allocate.
    fn book(&mut self, size: usize, sign: isize) {
        self.live += sign * size as isize;
        self.peak = self.peak.max(self.live);
        let mut i = size % SLOTS;
        for _ in 0..SLOTS {
            let slot = &mut self.blocks[i];
            if slot.0 == size || slot.0 == 0 {
                *slot = (size, slot.1 + sign);
                return;
            }
            i = (i + 1) % SLOTS;
        }
    }
}

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives the thread.
    static HEAP: RefCell<Heap> = const {
        RefCell::new(Heap { live: 0, peak: 0, blocks: [(0, 0); SLOTS] })
    };
}

fn book(size: usize, sign: isize) {
    let _ = HEAP.try_with(|h| h.borrow_mut().book(size, sign));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it touches only a
// thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            book(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        book(layout.size(), -1);
        // SAFETY: `p` came from `System` with this `layout`, as above.
        unsafe { System.dealloc(p, layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with this `layout`, as above.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            book(layout.size(), -1);
            book(new_size, 1);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A measurement window on this thread's heap, opened by [`Window::open`].
struct Window {
    base: isize,
}

impl Window {
    /// Starts a window: live bytes and the peak count from here.
    fn open() -> Self {
        HEAP.with(|h| {
            let mut h = h.borrow_mut();
            h.peak = h.live;
            Window { base: h.live }
        })
    }

    /// Bytes allocated since `open` and still live.
    fn live(&self) -> usize {
        HEAP.with(|h| (h.borrow().live - self.base).max(0) as usize)
    }

    /// The most bytes that were live at once since `open`.
    fn peak(&self) -> usize {
        HEAP.with(|h| (h.borrow().peak - self.base).max(0) as usize)
    }

    /// Prints the totals and the twelve sizes holding the most live bytes
    /// on this thread (visible under `--nocapture`).
    fn print(&self, what: &str, nodes: usize) {
        let mut rows: Vec<(usize, isize)> = HEAP.with(|h| {
            let blocks = h.borrow().blocks;
            blocks.into_iter().filter(|&(_, n)| n > 0).collect()
        });
        rows.sort_by_key(|&(size, n)| std::cmp::Reverse(size as isize * n));
        println!(
            "{what}: live {} B ({} B/node), peak {} B",
            self.live(),
            self.live() / nodes,
            self.peak()
        );
        println!("{:>10} {:>8} {:>12}", "size B", "blocks", "bytes");
        for (size, n) in rows.into_iter().take(12) {
            println!("{size:>10} {n:>8} {:>12}", size as isize * n);
        }
    }
}

fn space() -> IdSpace {
    IdSpace::new(16, 8).unwrap()
}

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// A network grown in concurrent waves keeps, at quiescence, its tables
/// and little else. It reads 2 550 B of heap per node for a 128-slot
/// table, the actor array's inline nodes included (2 902 B while every
/// node carried its join and extension state inline); the bound is that
/// + 3 %.
#[test]
fn quiescent_network_holds_under_3_kib_per_node() {
    const N: usize = 2048;
    let ids = distinct(space(), N, 7);
    let heap = Window::open();
    let net = bootstrap(space(), ProtocolOptions::new(), &ids, 256);
    let per_node = heap.live() / N;
    heap.print("batched bootstrap, n=2048, waves of 256", N);
    assert!(
        per_node <= 2_550 * 103 / 100,
        "{per_node} B of live heap per node at quiescence"
    );
    let report = net.check_consistency();
    assert!(report.is_consistent(), "{report}");
}

/// §6.1 growth, one join at a time: memory follows the network, not the
/// number of joins performed — no per-join copy of anything O(n) survives.
#[test]
fn sequential_bootstrap_peaks_under_8_mib() {
    const N: usize = 1024;
    let ids = distinct(space(), N, 11);
    let heap = Window::open();
    let tables = bootstrap(space(), ProtocolOptions::new(), &ids, 1).tables();
    let peak = heap.peak();
    heap.print("sequential bootstrap, n=1024", N);
    assert!(
        peak <= 8 << 20,
        "{peak} B of heap live at once during a sequential bootstrap"
    );
    assert!(check_consistency(space(), &tables).is_consistent());
}

/// One concurrent wave in the shape of the `join_wave` benchmark, a
/// quarter its size: the peak over `run()` is what the wave adds to the
/// built network at its busiest, the event queue's traffic included. A
/// slab that grows by doubling, or holds its high-water mark until the
/// queue drains, shows here first.
///
/// Peak: 4 452 937 B (8 849 036 B while a snapshot row was a decoded
/// 36-byte `SnapshotRow`); the bound is that + 3 %.
#[test]
fn join_wave_peak_heap_is_pinned() {
    const MEMBERS: usize = 3072;
    const JOINERS: usize = 1024;
    let ids = distinct(space(), MEMBERS + JOINERS, 13);
    let (members, joiners) = ids.split_at(MEMBERS);
    let mut rng = StdRng::seed_from_u64(13);
    let mut b = SimNetworkBuilder::new(space());
    b.with_member_tables(build_consistent_tables(space(), members));
    for joiner in joiners {
        b.add_joiner(*joiner, members[rng.gen_range(0..MEMBERS)], 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 60_000), 13);
    let heap = Window::open();
    let report = net.run();
    let peak = heap.peak();
    heap.print("join wave, 3072 members + 1024 joiners", MEMBERS + JOINERS);
    assert!(!report.truncated && net.all_in_system());
    assert!(
        peak <= 4_452_937 * 103 / 100,
        "{peak} B of heap live at once"
    );
    assert!(net.check_consistency().is_consistent());
}

/// Building `V` in the shape of the `lookup_storm` benchmark: what the
/// builder holds at its busiest beyond the tables it returns is its sort
/// and its pick buffers, not a row of candidates per suffix.
///
/// Peak: 11 227 940 B (22 514 752 B with a row of candidates per suffix);
/// live: 8 322 464 B. Each bound is that + 3 %.
#[test]
fn oracle_build_heap_is_pinned() {
    const N: usize = 4096;
    let ids = distinct(space(), N, 17);
    let heap = Window::open();
    let tables = build_consistent_tables(space(), &ids);
    let (live, peak) = (heap.live(), heap.peak());
    heap.print("oracle build, n=4096", N);
    assert_eq!(tables.len(), N);
    assert!(
        peak <= 11_227_940 * 103 / 100,
        "{peak} B of heap live at once"
    );
    assert!(live <= 8_322_464 * 103 / 100, "{live} B of heap live after");
}

/// Every actor holds its engine inline, so a field added here is paid by
/// every node of every workload. State that only some nodes use at some
/// times (the join variables, the extensions) goes behind a pointer
/// instead. Both sizes are pinned as measured, so a change either way
/// shows here.
#[test]
fn engine_and_sim_node_fit_their_inline_budgets() {
    use std::mem::size_of;
    let engine = size_of::<JoinEngine>();
    assert_eq!(engine, 528, "JoinEngine is {engine} B inline");
    let node = size_of::<SimNode>();
    assert_eq!(node, 536, "SimNode is {node} B inline");
}

/// A slot's four states — empty, vacated, `T`, `S` — share one 4-byte
/// word, and a vacated slot's repair bookkeeping (attempts, backoff wait)
/// lives in that word: a table with slots under repair has the size, and
/// owns the heap, of one without.
#[test]
fn vacated_slots_cost_no_memory() {
    assert_eq!(std::mem::size_of::<NeighborTable>(), 168);
    let owner = space().parse_id("0012abcd").unwrap();
    let mut t = NeighborTable::new(space(), owner);
    t.set_self_entries(NodeState::S);
    let before = owned_heap(&t);
    for level in 0..8 {
        t.vacate(level, (owner.digit(level) + 1) % 16);
    }
    assert_eq!(owned_heap(&t), before);
}

/// Heap bytes a clone of `v` allocates: everything `v` owns, counted.
fn owned_heap<T: Clone>(v: &T) -> usize {
    let heap = Window::open();
    let copy = v.clone();
    let held = heap.live();
    drop(copy);
    held
}

/// Heap `e` owns beyond its table: its join and extension state.
fn state_beyond_table(e: &JoinEngine) -> usize {
    owned_heap(e) - owned_heap(e.table())
}

/// A member answering a join wave under the base protocol owns nothing but
/// its table at any point of the wave; a joiner owns its join state until
/// it switches to S-node, and nothing but its table after.
#[test]
fn only_joiners_hold_join_state_and_only_until_in_system() {
    const MEMBERS: usize = 192;
    const JOINERS: usize = 64;
    let ids = distinct(space(), MEMBERS + JOINERS, 19);
    let (members, joiners) = ids.split_at(MEMBERS);
    let mut b = SimNetworkBuilder::new(space());
    b.with_member_tables(build_consistent_tables(space(), members));
    for (i, joiner) in joiners.iter().enumerate() {
        b.add_joiner(*joiner, members[i], 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 60_000), 19);
    let mut joining_seen = 0;
    loop {
        let report = net.run_limited(500);
        for (i, e) in net.engines().enumerate() {
            let beyond = state_beyond_table(e);
            if i < MEMBERS || e.is_in_system() {
                assert_eq!(beyond, 0, "{} holds {beyond} B beyond its table", e.id());
            } else {
                assert!(beyond > 0, "joiner {} holds no join state", e.id());
                joining_seen += 1;
            }
        }
        if !report.truncated {
            break;
        }
    }
    assert!(net.all_in_system());
    assert!(joining_seen > 0, "no checkpoint fell mid-join");
}

/// A delivery moves one message through `Effect` → `NodeInput` → queue
/// slot → engine. At 128 bytes or less the compiler copies each hop with
/// inline moves; above that every hop is a `memcpy` call, which was a
/// quarter of a `churn` profile at 224 bytes. What keeps them small: the
/// id is 33 bytes (a digit count and 32 packed bytes) and a snapshot one
/// pointer.
#[test]
fn message_path_types_fit_inline_moves() {
    use std::mem::size_of;
    assert_eq!(size_of::<NodeId>(), 33);
    assert_eq!(size_of::<TableSnapshot>(), 8);
    for (name, size) in [
        ("Effect", size_of::<Effect>()),
        ("NodeInput", size_of::<NodeInput>()),
    ] {
        assert!(size <= 128, "{name} is {size} B");
    }
}

/// A snapshot keeps its rows as the wire sends them: at b=16, d=8 a row is
/// 7 bytes (a decoded row is 36), behind one shared header, so 56 rows hold
/// at most 56·7 + 128 bytes of heap.
#[test]
fn a_56_row_snapshot_holds_7_bytes_a_row() {
    let owner = space().parse_id("0012abcd").unwrap();
    let mut t = NeighborTable::new(space(), owner);
    for slot in 0..56 {
        let (level, digit) = (slot / 16, (slot % 16) as u8);
        let mut digits = owner.digits_lsd().to_vec();
        digits[level] = digit;
        let node = space().id_from_digits(&digits).unwrap();
        let state = NodeState::S;
        t.set(level, digit, Entry { node, state });
    }
    let heap = Window::open();
    let snap = t.snapshot_levels(0, 8);
    let held = heap.live();
    assert_eq!(snap.len(), 56);
    assert!(held <= 56 * 7 + 128, "{held} B of heap for 56 rows");
}
