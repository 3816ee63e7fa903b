//! A hierarchical timer wheel shared by every engine on a runtime thread.
//!
//! The socket runtime hosts many engines per OS thread, so their timers
//! live in one wheel keyed by `(engine, timer)`. The wheel is the
//! classic hashed-and-hierarchical design: [`LEVELS`] levels of [`SLOTS`]
//! slots each, level `l` spanning `SLOTS^(l+1)` ticks, deadlines cascading
//! down a level as their window approaches, and an overflow list for
//! deadlines beyond the top level's horizon. A per-level occupancy bitmask
//! lets [`advance`](TimerWheel::advance) jump straight between non-empty
//! slots, so sparse wheels cost nothing to fast-forward across long idle
//! stretches.
//!
//! Cancellation and re-arming are O(1): the wheel never removes slot
//! entries eagerly, it stamps every arming with a generation and lets
//! stale entries die when their slot drains. The simulator does the same
//! without the stamp: its armed map names the payload slot of the live
//! arming, canceling or re-arming empties the old slot in place, and the
//! old key dies when it reaches the head of the queue. Timer semantics
//! therefore match across runtimes (re-arming supersedes, canceling a
//! non-armed timer is a no-op).
//!
//! Time is an absolute microsecond clock supplied by the caller (wall or
//! virtual); the wheel only requires that `advance` never run backwards.

use std::collections::HashMap;
use std::hash::Hash;

use hyperring_id::IdBuildHasher;

/// Slots per level (64 keeps slot indexing a 6-bit shift and the
/// occupancy mask one machine word).
pub const SLOTS: usize = 64;
/// Hierarchy depth: with a 100 µs tick the top level spans ~28 minutes.
pub const LEVELS: usize = 4;

/// A hierarchical timer wheel over keys `K`, with microsecond deadlines.
#[derive(Debug)]
pub struct TimerWheel<K> {
    tick_us: u64,
    /// The tick the wheel's cursor sits on (its notion of "now").
    tick: u64,
    /// `levels[l][s]` holds `(key, generation, deadline_us)` entries.
    levels: Vec<Vec<Vec<(K, u64, u64)>>>,
    /// Bit `s` of `masks[l]` set iff `levels[l][s]` is non-empty.
    masks: [u64; LEVELS],
    overflow: Vec<(K, u64, u64)>,
    /// key -> (generation, deadline_us). Under a retry policy every
    /// request arms a key and every reply cancels one, so the index runs
    /// on the fixed [`IdBuildHasher`]: its keys are ones the owner
    /// inserted, never ones an outside party picks.
    armed: HashMap<K, (u64, u64), IdBuildHasher>,
    generation: u64,
}

impl<K: Clone + Eq + Hash> TimerWheel<K> {
    /// A wheel with the given tick granularity, starting at `now_us`.
    ///
    /// # Panics
    ///
    /// Panics if `tick_us` is zero.
    pub fn new(tick_us: u64, now_us: u64) -> Self {
        assert!(tick_us > 0, "tick granularity must be positive");
        TimerWheel {
            tick_us,
            tick: now_us / tick_us,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            masks: [0; LEVELS],
            overflow: Vec::new(),
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
    /// Deadlines at or before the wheel's cursor fire on the next
    /// [`advance`](Self::advance).
    pub fn arm(&mut self, key: K, deadline_us: u64) {
        self.generation += 1;
        let generation = self.generation;
        self.armed.insert(key.clone(), (generation, deadline_us));
        self.place(key, generation, deadline_us);
    }

    /// Cancels `key` if armed (a no-op otherwise). The slot entry, if any,
    /// goes stale and is discarded when its slot drains.
    pub fn cancel(&mut self, key: &K) {
        self.armed.remove(key);
    }

    fn place(&mut self, key: K, generation: u64, deadline_us: u64) {
        let deadline_tick = deadline_us / self.tick_us;
        let delta = deadline_tick.saturating_sub(self.tick);
        for level in 0..LEVELS {
            let span = (SLOTS as u64).pow(level as u32 + 1);
            if delta < span {
                let shift = 6 * level as u32;
                let slot = ((deadline_tick >> shift) as usize) & (SLOTS - 1);
                self.levels[level][slot].push((key, generation, deadline_us));
                self.masks[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push((key, generation, deadline_us));
    }

    #[inline]
    fn live(&self, key: &K, generation: u64) -> bool {
        self.armed.get(key).map(|&(g, _)| g) == Some(generation)
    }

    /// The earliest moment the caller must wake, in microseconds, or
    /// `None` when nothing is armed. The bound is conservative: never
    /// later than the earliest live deadline, but possibly earlier (a
    /// stale slot or a cascade boundary) — wake,
    /// [`advance`](Self::advance), and re-query.
    pub fn next_deadline_us(&self) -> Option<u64> {
        if self.armed.is_empty() {
            return None;
        }
        let cursor = (self.tick as usize) & (SLOTS - 1);
        let ahead = self.masks[0].rotate_right(cursor as u32);
        if ahead != 0 {
            let off = ahead.trailing_zeros() as u64;
            let t = self.tick + off;
            let slot = &self.levels[0][(t as usize) & (SLOTS - 1)];
            let best = slot
                .iter()
                .filter(|(k, g, d)| *d / self.tick_us == t && self.live(k, *g))
                .map(|&(_, _, d)| d)
                .min();
            return Some(best.unwrap_or(t * self.tick_us));
        }
        // Everything live sits in a higher level or the overflow list;
        // wake at the next cascade boundary so re-placement can run. (The
        // bound misses nothing earlier: a live deadline below the boundary
        // is by construction placed in level 0.)
        Some((self.tick + (SLOTS - cursor) as u64) * self.tick_us)
    }

    /// Advances the wheel to `now_us` and returns every timer that fired,
    /// earliest-deadline first (ties in arming order). Fired timers are
    /// disarmed; the owner re-arms explicitly to retry.
    pub fn advance(&mut self, now_us: u64) -> Vec<K> {
        let target = now_us / self.tick_us;
        if self.armed.is_empty() {
            // Nothing can fire; drop stale entries wholesale and jump.
            if self.tick < target {
                for level in 0..LEVELS {
                    if self.masks[level] != 0 {
                        for slot in &mut self.levels[level] {
                            slot.clear();
                        }
                        self.masks[level] = 0;
                    }
                }
                self.overflow.clear();
                self.tick = target;
            }
            return Vec::new();
        }
        let mut due: Vec<(u64, u64, K)> = Vec::new();
        loop {
            // Drain the level-0 slot under the cursor.
            let idx = (self.tick as usize) & (SLOTS - 1);
            if self.masks[0] >> idx & 1 == 1 {
                let mut slot = std::mem::take(&mut self.levels[0][idx]);
                slot.retain(|&(ref key, generation, deadline)| {
                    if deadline / self.tick_us > self.tick {
                        return true; // later wrap of this slot
                    }
                    if self.armed.get(key).map(|&(g, _)| g) == Some(generation) {
                        self.armed.remove(key);
                        due.push((deadline, generation, key.clone()));
                    }
                    false
                });
                if slot.is_empty() {
                    self.masks[0] &= !(1 << idx);
                }
                self.levels[0][idx] = slot;
            }
            if self.tick >= target {
                break;
            }
            // Jump: the nearest of (next occupied level-0 slot, next
            // cascade boundary, the target itself).
            let cursor = (self.tick as usize) & (SLOTS - 1);
            let to_boundary = (SLOTS - cursor) as u64;
            let ahead = self.masks[0].rotate_right(cursor as u32) & !1;
            let to_entry = if ahead == 0 {
                u64::MAX
            } else {
                u64::from(ahead.trailing_zeros())
            };
            let jump = to_boundary.min(to_entry).min(target - self.tick).max(1);
            self.tick += jump;
            if (self.tick as usize) & (SLOTS - 1) == 0 {
                self.cascade();
            }
        }
        due.sort_by_key(|d| (d.0, d.1));
        due.into_iter().map(|(_, _, k)| k).collect()
    }

    /// Re-places the higher-level slots whose window the cursor just
    /// entered (called only with the cursor on a level-0 boundary).
    fn cascade(&mut self) {
        for level in 1..LEVELS {
            let shift = 6 * level as u32;
            if self.tick & ((1u64 << shift) - 1) != 0 {
                break;
            }
            let idx = ((self.tick >> shift) as usize) & (SLOTS - 1);
            if self.masks[level] >> idx & 1 == 1 {
                let entries = std::mem::take(&mut self.levels[level][idx]);
                self.masks[level] &= !(1 << idx);
                for (key, generation, deadline) in entries {
                    if self.live(&key, generation) {
                        self.place(key, generation, deadline);
                    }
                }
            }
        }
        if self.tick & ((1u64 << (6 * LEVELS as u32)) - 1) == 0 {
            let overflow = std::mem::take(&mut self.overflow);
            for (key, generation, deadline) in overflow {
                if self.live(&key, generation) {
                    self.place(key, generation, deadline);
                }
            }
        }
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

    #[test]
    fn long_deadlines_cascade_down() {
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
        }
    }
}
