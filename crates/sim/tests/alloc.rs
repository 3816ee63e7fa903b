//! What the event queue allocates, counted exactly: nothing per event in
//! a steady run, and nothing left over once the queue drains.
//!
//! The queue keeps each payload in a slab slot, written once when it is
//! sent; the queue before it boxed every event, one allocation and one
//! free per delivery. Counters are per thread, so only this test's own
//! simulation is counted, whatever else the harness runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hyperring_sim::{Actor, ConstantDelay, Context, Simulator, UniformDelay};

thread_local! {
    /// Bytes live, and bytes ever allocated, on this thread.
    static HEAP: Cell<(isize, usize)> = const { Cell::new((0, 0)) };
}

fn book(size: usize, sign: isize) {
    let _ = HEAP.try_with(|h| {
        let (live, total) = h.get();
        let total = if sign > 0 { total + size } else { total };
        h.set((live + sign * size as isize, total));
    });
}

fn live() -> isize {
    HEAP.with(|h| h.get().0)
}

fn allocated() -> usize {
    HEAP.with(|h| h.get().1)
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

const ACTORS: usize = 64;

/// Forwards a message `[hops left, stride, ..]` to the actor `stride`
/// places on, and re-arms its one timer, `timer` µs out, on every delivery
/// (the old arming goes stale in the queue, as a retry timer's does when
/// its reply arrives). The 64 bytes of payload stand for a protocol
/// message.
struct Relay {
    timer: u64,
}

impl Actor for Relay {
    type Msg = [u64; 8];
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Context<'_, [u64; 8], ()>, _from: usize, msg: [u64; 8]) {
        ctx.set_timer((), self.timer);
        if msg[0] > 0 {
            let to = (ctx.me() + msg[1] as usize) % ACTORS;
            ctx.send(to, [msg[0] - 1, msg[1], 0, 0, 0, 0, 0, 0]);
        }
    }
}

#[test]
fn a_steady_queue_allocates_nothing_and_a_drained_one_holds_nothing() {
    let relays = (0..ACTORS).map(|_| Relay { timer: 2_000 }).collect();
    let mut sim = Simulator::new(relays, UniformDelay::new(50, 150), 3);
    let before = live();

    // About 1k messages in flight, 150 hops each on an odd stride (so
    // every actor sees traffic), and a stale timer key per delivery of
    // the last 2 ms.
    for i in 0..1_000 {
        let msg = [150, 2 * (i % 16) as u64 + 1, 0, 0, 0, 0, 0, 0];
        sim.inject_at(i as u64 / 10, i % ACTORS, (i * 7) % ACTORS, msg);
    }
    let warm = sim.run_limited(30_000);
    assert!(warm.truncated);
    let pending = sim.pending();
    assert!(pending > 1_000, "{pending} events queued");

    let start = allocated();
    let steady = sim.run_limited(100_000);
    let spent = allocated() - start;
    assert_eq!(steady.delivered, warm.delivered + 100_000);
    assert_eq!(
        steady.timers_fired, warm.timers_fired,
        "a timer fired mid-run"
    );
    assert_eq!(spent, 0, "{spent} B allocated over 100k deliveries");

    let end = sim.run();
    assert!(!end.truncated);
    assert_eq!(end.delivered, 1_000 * 151);
    assert_eq!(end.timers_fired, ACTORS as u64);
    assert_eq!(sim.pending(), 0);
    assert_eq!(live() - before, 0, "bytes still held by a drained queue");
}

/// The same traffic at one latency, which is the timer's too: every key
/// is scheduled no earlier than the last, so none goes through the
/// queue's heap. The keys of the current millisecond join its FIFO run
/// straight away, and the later ones wait in its calendar until their
/// bucket is sorted onto the run.
#[test]
fn a_steady_run_of_time_ordered_keys_allocates_nothing_either() {
    let relays = (0..ACTORS).map(|_| Relay { timer: 2_000 }).collect();
    let mut sim = Simulator::new(relays, ConstantDelay(2_000), 3);
    let before = live();
    for i in 0..1_000 {
        let msg = [150, 2 * (i % 16) as u64 + 1, 0, 0, 0, 0, 0, 0];
        sim.inject_at(i as u64 / 10, i % ACTORS, (i * 7) % ACTORS, msg);
    }
    let warm = sim.run_limited(30_000);
    assert!(warm.truncated);
    let pending = sim.pending();
    assert!(pending > 1_000, "{pending} events queued");

    let start = allocated();
    let steady = sim.run_limited(100_000);
    let spent = allocated() - start;
    assert_eq!(steady.delivered, warm.delivered + 100_000);
    assert_eq!(steady.timers_fired, 0, "a timer fired mid-run");
    assert_eq!(spent, 0, "{spent} B allocated over 100k deliveries");

    let end = sim.run();
    assert!(!end.truncated);
    assert_eq!(end.delivered, 1_000 * 151);
    assert_eq!(end.timers_fired, ACTORS as u64);
    assert_eq!(sim.pending(), 0);
    assert_eq!(live() - before, 0, "bytes still held by a drained queue");
}

/// The same traffic spread over 1–100 ms, so over the current epoch and
/// most of the calendar's buckets, and a timer re-armed 140 ms out, past
/// the calendar's 131 ms window: the buckets' chunks come and go from one
/// spare list, the run is refilled by sorting a bucket onto it, and the
/// stale timer keys wait in the heap, all without allocating.
///
/// About 20 deliveries a millisecond keep some 2 800 stale timer keys in
/// the heap and at most 3 900 payloads in the slab, inside a capacity
/// step of each. A store that grows at a new high-water mark allocates
/// when the mark is crossed, whichever queue it serves: at 150 ms the
/// payloads wander across 4 096, and the slab adds its seventeenth page
/// of 256 mid-run; at 200 ms the heap's keys do, and it doubles.
#[test]
fn a_steady_run_over_the_whole_calendar_allocates_nothing_either() {
    let relays = (0..ACTORS).map(|_| Relay { timer: 140_000 }).collect();
    let mut sim = Simulator::new(relays, UniformDelay::new(1_000, 100_000), 3);
    let before = live();
    for i in 0..1_000 {
        let msg = [150, 2 * (i % 16) as u64 + 1, 0, 0, 0, 0, 0, 0];
        sim.inject_at(i as u64 * 100, i % ACTORS, (i * 7) % ACTORS, msg);
    }
    let warm = sim.run_limited(30_000);
    assert!(warm.truncated);
    let pending = sim.pending();
    assert!(pending > 1_000, "{pending} events queued");

    let start = allocated();
    let steady = sim.run_limited(100_000);
    let spent = allocated() - start;
    assert_eq!(steady.delivered, warm.delivered + 100_000);
    assert_eq!(steady.timers_fired, 0, "a timer fired mid-run");
    assert_eq!(spent, 0, "{spent} B allocated over 100k deliveries");

    let end = sim.run();
    assert!(!end.truncated);
    assert_eq!(end.delivered, 1_000 * 151);
    // Every actor's last arming fires; as the traffic thins out at the
    // end, some actors idle past 140 ms between deliveries, and an
    // earlier arming fires too.
    assert!(end.timers_fired >= ACTORS as u64, "{}", end.timers_fired);
    assert_eq!(sim.pending(), 0);
    assert_eq!(live() - before, 0, "bytes still held by a drained queue");
}
