//! The timer queue shared by every engine on a runtime thread, keyed by
//! `(engine, timer)`. It is the heap half of the simulator's queue: a
//! binary heap of deadlines beside an index naming each key's live
//! arming. Canceling drops the key from the index, re-arming stamps a new
//! generation, and a superseded entry is dropped when it reaches the
//! head. A heap is enough, and the simulator's FIFO run beside it would
//! save nothing: the run makes pops cheaper, but a retry policy's timers
//! are armed by requests and canceled by replies, few fire (a lossless
//! join wave, `udp_wave`, fires none), and the heap is cleared whenever
//! nothing is armed.
//!
//! Time is an absolute microsecond clock supplied by the caller (wall or
//! virtual) that never runs backwards. A deadline is due once the clock
//! reaches the tick it falls in.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

use hyperring_id::IdBuildHasher;

/// A timer queue over keys `K`, with microsecond deadlines.
#[derive(Debug)]
pub struct TimerWheel<K> {
    tick_us: u64,
    /// Every arming not yet popped, live or stale.
    heap: BinaryHeap<Entry<K>>,
    /// key -> generation of its live arming (the owner's keys: a fixed hasher).
    armed: HashMap<K, u64, IdBuildHasher>,
    generation: u64,
}

/// `(deadline_us, generation, key)`, ordered by `(deadline_us, generation)`
/// reversed: the max-heap pops the earliest deadline, then arming, first.
#[derive(Debug)]
struct Entry<K>(u64, u64, K);

impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<K> Eq for Entry<K> {}

impl<K: Clone + Eq + Hash> TimerWheel<K> {
    /// A queue with the given tick granularity. The start time is unused
    /// (there is no cursor); the benchmark's timer probe still passes it.
    ///
    /// # Panics
    ///
    /// Panics if `tick_us` is zero.
    pub fn new(tick_us: u64, _now_us: u64) -> Self {
        assert!(tick_us > 0, "tick granularity must be positive");
        TimerWheel {
            tick_us,
            heap: BinaryHeap::new(),
            armed: HashMap::default(),
            generation: 0,
        }
    }

    /// Number of currently armed timers.
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arms (or re-arms, superseding) `key` to fire at `deadline_us`.
    pub fn arm(&mut self, key: K, deadline_us: u64) {
        self.generation += 1;
        self.armed.insert(key.clone(), self.generation);
        self.heap.push(Entry(deadline_us, self.generation, key));
    }

    /// Cancels `key` if armed (a no-op otherwise); its entry goes stale.
    pub fn cancel(&mut self, key: &K) {
        self.armed.remove(key);
    }

    /// The earliest moment the caller must wake, in microseconds, or
    /// `None` when nothing is armed. The bound is conservative: never
    /// later than the earliest live deadline, but earlier when the head
    /// is stale — wake, [`advance`](Self::advance), and re-query.
    pub fn next_deadline_us(&self) -> Option<u64> {
        let head = self.heap.peek().map(|e| e.0);
        head.filter(|_| !self.armed.is_empty())
    }

    /// Advances to `now_us` and returns every timer due, earliest deadline
    /// first (ties in arming order), disarmed: the owner re-arms to retry.
    pub fn advance(&mut self, now_us: u64) -> Vec<K> {
        if self.armed.is_empty() {
            self.heap.clear(); // every entry is stale
        }
        let (tick, target) = (self.tick_us, now_us / self.tick_us);
        let mut due = Vec::new();
        while self.heap.peek().is_some_and(|e| e.0 / tick <= target) {
            let Entry(_, generation, key) = self.heap.pop().expect("head checked");
            if self.armed.get(&key) == Some(&generation) {
                self.armed.remove(&key);
                due.push(key);
            }
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new(100, 0);
        w.arm(1, 1_000);
        w.arm(2, 500);
        w.arm(3, 2_000);
        assert_eq!(w.len(), 3);
        assert!(w.next_deadline_us().unwrap() <= 500);
        assert_eq!(w.advance(400), Vec::<u32>::new());
        assert_eq!(w.advance(1_500), vec![2, 1]);
        assert_eq!(w.advance(2_500), vec![3]);
        assert!(w.is_empty());
        assert_eq!(w.next_deadline_us(), None);
    }

    /// A deadline is due once the clock reaches its tick; the deadlines
    /// due together fire earliest first, equal ones in arming order.
    #[test]
    fn one_tick_fires_together_in_deadline_then_arming_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new(100, 0);
        w.arm(3, 1_000);
        w.arm(1, 1_000);
        w.arm(2, 1_000);
        w.arm(3, 1_000); // re-arming moves 3 behind 1 and 2
        w.arm(5, 1_099);
        w.arm(4, 1_050);
        w.arm(6, 1_100);
        assert_eq!(w.advance(999), Vec::<u32>::new());
        assert_eq!(w.advance(1_000), vec![1, 2, 3, 4, 5]);
        assert_eq!(w.advance(1_100), vec![6]);
    }

    #[test]
    fn cancel_and_rearm_supersede() {
        let mut w: TimerWheel<&'static str> = TimerWheel::new(50, 0);
        w.arm("a", 1_000);
        w.cancel(&"a");
        assert_eq!(w.advance(5_000), Vec::<&str>::new());
        w.arm("b", 6_000);
        w.arm("b", 9_000); // re-arm pushes the deadline out
        assert_eq!(w.advance(7_000), Vec::<&str>::new());
        assert_eq!(w.advance(9_100), vec!["b"]);
        w.cancel(&"b"); // canceling after fire is a no-op
    }

    /// Deadlines from 100 to 20 million ticks out fire in their own tick.
    #[test]
    fn long_deadlines_fire_on_time() {
        let mut w: TimerWheel<u32> = TimerWheel::new(100, 0);
        // Level 1 (beyond 64 ticks), level 2, level 3, and overflow.
        w.arm(1, 100 * 100);
        w.arm(2, 100 * 5_000);
        w.arm(3, 100 * 300_000);
        w.arm(4, 100 * 20_000_000); // beyond 64^4 ticks
        assert_eq!(w.advance(100 * 99), Vec::<u32>::new());
        assert_eq!(w.advance(100 * 101), vec![1]);
        assert_eq!(w.advance(100 * 5_001), vec![2]);
        assert_eq!(w.advance(100 * 300_001), vec![3]);
        assert_eq!(w.advance(100 * 20_000_001), vec![4]);
        assert!(w.is_empty());
    }

    #[test]
    fn conservative_next_deadline_still_converges() {
        let mut w: TimerWheel<u32> = TimerWheel::new(100, 0);
        w.arm(7, 100 * 1_000); // sits above level 0 initially
        let mut now = 0u64;
        let mut fired = Vec::new();
        for _ in 0..1_000 {
            match w.next_deadline_us() {
                None => break,
                Some(wake) => {
                    now = now.max(wake);
                    fired.extend(w.advance(now));
                }
            }
        }
        assert_eq!(fired, vec![7]);
        assert!((100_000..110_000).contains(&now), "no large overshoot");
    }

    /// Stale entries do not outlive their deadlines: once the clock
    /// passes every deadline ever armed, the heap holds nothing. With
    /// nothing armed, an `advance` drops them all, however far out.
    #[test]
    fn stale_entries_are_gone_past_their_deadlines() {
        let mut w: TimerWheel<u32> = TimerWheel::new(100, 0);
        for round in 0..10u64 {
            for k in 0..1_000u32 {
                w.arm(k, 10_000 + round * 1_000 + u64::from(k));
                if k % 3 == 0 {
                    w.cancel(&k);
                }
            }
        }
        w.arm(5_000, 50_000); // stays armed, so advance pops one by one
        assert_eq!(w.heap.len(), 10_001);
        assert_eq!(w.len(), 667);
        let fired = w.advance(30_000);
        assert_eq!(fired.len(), 666);
        assert_eq!(w.heap.len(), 1, "only the live arming is left");
        assert_eq!(w.advance(60_000), vec![5_000]);
        assert!(w.is_empty());
        assert_eq!(w.heap.len(), 0);
        assert_eq!(w.next_deadline_us(), None);
        w.arm(1, 3_600_000_000);
        w.arm(1, 7_200_000_000);
        w.cancel(&1);
        assert_eq!(w.heap.len(), 2);
        assert_eq!(w.next_deadline_us(), None, "stale entries wake no one");
        assert_eq!(w.advance(60_100), Vec::<u32>::new());
        assert_eq!(w.heap.len(), 0);
    }

    /// Randomized differential test against a sorted-map reference model.
    #[test]
    fn matches_reference_model_under_random_ops() {
        use std::collections::BTreeMap;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w: TimerWheel<u16> = TimerWheel::new(100, 0);
        let mut reference: BTreeMap<u16, u64> = BTreeMap::new();
        let mut now = 0u64;
        for _ in 0..3_000 {
            match next() % 4 {
                0 | 1 => {
                    let key = (next() % 40) as u16;
                    let deadline = now + next() % 2_000_000; // up to 2 s out
                    w.arm(key, deadline);
                    reference.insert(key, deadline);
                }
                2 => {
                    let key = (next() % 40) as u16;
                    w.cancel(&key);
                    reference.remove(&key);
                }
                _ => {
                    now += next() % 50_000;
                    let mut fired = w.advance(now);
                    fired.sort_unstable();
                    let mut expected: Vec<u16> = reference
                        .iter()
                        // The wheel fires at tick granularity: a deadline
                        // inside the cursor's tick counts as due.
                        .filter(|(_, &d)| d / 100 <= now / 100)
                        .map(|(&k, _)| k)
                        .collect();
                    for k in &expected {
                        reference.remove(k);
                    }
                    expected.sort_unstable();
                    assert_eq!(fired, expected, "divergence at now={now}");
                }
            }
            // The loop's poll(2) timeout: never past a live deadline.
            match (w.next_deadline_us(), reference.values().min()) {
                (None, None) => {}
                (Some(wake), Some(&earliest)) => {
                    assert!(wake <= earliest, "woke at {wake} after {earliest}")
                }
                (wake, earliest) => panic!("wake {wake:?} with earliest {earliest:?}"),
            }
        }
    }
}
