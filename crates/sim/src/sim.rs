use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::delay::{DelayModel, Fate};
use crate::event::{Key, Slab, Slot, Time, TIMER};
use crate::prefetch::Prefetch;

/// A simulated protocol participant.
///
/// Actors are addressed by dense indices `0..n`. They react to message
/// deliveries (and their own timer expiries) by mutating their state and
/// issuing further operations through the [`Context`]. Actors never block:
/// the paper's protocol is a pure event-driven state machine, and so is
/// this trait.
pub trait Actor {
    /// Message type exchanged between actors.
    type Msg;

    /// Timer identifier type. An actor arms timers for *itself* via
    /// [`Context::set_timer`]; actors without timers use `()`.
    type Timer: Clone + Eq + Hash;

    /// Handles a delivered message.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Msg, Self::Timer>,
        from: usize,
        msg: Self::Msg,
    );

    /// Handles an expired timer previously armed with
    /// [`Context::set_timer`]. The default does nothing.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg, Self::Timer>, _timer: Self::Timer) {}

    /// Names the cache lines this actor's next delivery will touch: the
    /// simulator asks the actor of the event queued next, one delivery
    /// ahead, with its message (`None` for a timer). Usually that event
    /// is delivered next. It is not when the delivery in between
    /// schedules an earlier one, or when it is a canceled timer. A hint
    /// changes nothing a run can observe. The default names nothing.
    fn prefetch(&self, _next: Option<&Self::Msg>, _lines: &mut Prefetch) {}
}

/// One operation an actor issued during a delivery, buffered until the
/// simulator applies it. A send's message is already in its slab slot.
#[derive(Debug)]
pub(crate) enum Op<T> {
    Send(usize, u32),
    SetTimer(T, Time),
    CancelTimer(T),
}

/// Handle an actor uses to interact with the simulation during a delivery.
pub struct Context<'a, M, T = ()> {
    now: Time,
    me: usize,
    out: &'a mut Vec<Op<T>>,
    slab: &'a mut Slab<M, T>,
}

impl<M, T> std::fmt::Debug for Context<'_, M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<'a, M, T> Context<'a, M, T> {
    /// Current virtual time in microseconds.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Index of the actor handling the event.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// Sends `msg` to actor `to`; its delivery (or loss) is decided by the
    /// delay model's [`Fate`].
    #[inline]
    pub fn send(&mut self, to: usize, msg: M) {
        let slot = self.slab.insert(Slot::Msg(self.me as u32, msg));
        self.out.push(Op::Send(to, slot));
    }

    /// Arms (or re-arms) timer `timer` to fire on this actor after `delay`
    /// microseconds. Re-arming an already-pending timer replaces it: only
    /// the latest deadline fires.
    #[inline]
    pub fn set_timer(&mut self, timer: T, delay: Time) {
        self.out.push(Op::SetTimer(timer, delay));
    }

    /// Cancels a pending timer. Canceling a timer that is not armed is a
    /// no-op, so callers need not track armed state precisely.
    #[inline]
    pub fn cancel_timer(&mut self, timer: T) {
        self.out.push(Op::CancelTimer(timer));
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Number of messages delivered.
    pub delivered: u64,
    /// Virtual time of the last delivery.
    pub finished_at: Time,
    /// Whether the run stopped because it hit the delivery limit rather
    /// than draining the event queue.
    pub truncated: bool,
    /// Number of timers that fired (canceled/superseded timers excluded).
    pub timers_fired: u64,
    /// Messages dropped by the delay model's [`Fate`].
    pub dropped: u64,
    /// Messages duplicated by the delay model's [`Fate`].
    pub duplicated: u64,
    /// Protocol trace records emitted during the run. The simulator itself
    /// never traces; trace-aware runtimes layered on top fill this in.
    pub traced: u64,
}

/// A key's epoch is `at >> EPOCH_BITS`: calendar buckets are 1 024 µs wide.
const EPOCH_BITS: u32 = 10;

/// Buckets in the calendar's ring, one per epoch after the current one:
/// a window of about 131 ms.
const BUCKETS: usize = 128;

/// Keys per chunk of a calendar bucket.
const CHUNK: usize = 16;

/// Chunks per page of the calendar's pool.
const PAGE: usize = 32;

/// No chunk: the end of a bucket's chain or of the spare list.
const NIL: u32 = u32::MAX;

/// The simulator's event queue: a FIFO run and a binary heap for the
/// current epoch, a calendar of the next 127, and the same heap again for
/// keys past the calendar's window.
///
/// - A key of the current epoch or an earlier one is appended to `run`
///   when it is scheduled no earlier than the run's last key, and goes to
///   `heap` otherwise. `seq` rises with every push, so the run is sorted
///   by `(at, seq)`.
/// - A key of one of the next 127 epochs goes, unsorted, to that epoch's
///   bucket of the [`Calendar`].
/// - A key further out goes to `heap` too. One heap serves both: a pop
///   takes the earlier of the two lanes' heads whatever they hold.
///
/// Every key of the calendar is later than every key of the current epoch
/// or an earlier one. So when the lanes hold such a key, the earliest key
/// is at one of their heads. When they hold none, the queue
/// [`advance`](Self::advance)s to the epoch of its next key: a far key's
/// in the heap, or the first non-empty bucket's, which is then sorted
/// into the run. The current epoch is thus never ahead of the next key,
/// and a key scheduled from a delivery finds the calendar ready for it.
#[derive(Debug, Default)]
struct Queue {
    /// Keys sorted by `(at, seq)`; those before `head` have popped.
    run: Vec<Key>,
    head: usize,
    heap: BinaryHeap<Key>,
    calendar: Calendar,
    /// The current epoch.
    epoch: u64,
}

// `Key`'s order is reversed: of two keys, the greater is the earlier
// event, and so is `Some` key beside `None`.
impl Queue {
    #[inline]
    fn push(&mut self, key: Key) {
        let epoch = key.at >> EPOCH_BITS;
        if epoch <= self.epoch {
            match self.run.last() {
                Some(back) if key.at < back.at => self.heap.push(key),
                _ => self.push_run(key),
            }
        } else if epoch - self.epoch < BUCKETS as u64 {
            self.calendar.push(epoch, key);
        } else {
            self.heap.push(key);
        }
    }

    /// Appends `key` to the run. A run that is full moves its unpopped
    /// keys to the front instead of growing, when they fill at most half
    /// of it.
    #[inline]
    fn push_run(&mut self, key: Key) {
        if self.run.len() == self.run.capacity() && 2 * self.head >= self.run.len() {
            self.run.drain(..self.head);
            self.head = 0;
        }
        self.run.push(key);
    }

    /// Whether `key` is of the current epoch or an earlier one, and so
    /// earlier than every key of the calendar.
    #[inline]
    fn is_current(&self, key: &Key) -> bool {
        key.at >> EPOCH_BITS <= self.epoch
    }

    /// Makes sure the earliest key is at a lane's head: when the lanes
    /// hold no key of the current epoch or an earlier one, moves to the
    /// epoch of the next key. That is a far key's in the heap, when it
    /// comes before the calendar's first non-empty bucket; otherwise it is
    /// that bucket's, and the bucket is sorted into the (empty) run.
    #[inline]
    fn advance(&mut self) {
        if self.calendar.len == 0
            || self.head < self.run.len()
            || self.heap.peek().is_some_and(|key| self.is_current(key))
        {
            return;
        }
        let next = self.calendar.next_after(self.epoch);
        match self.heap.peek() {
            Some(far) if far.at >> EPOCH_BITS < next => self.epoch = far.at >> EPOCH_BITS,
            _ => {
                self.epoch = next;
                self.calendar.drain_into(next, &mut self.run);
            }
        }
    }

    /// The earliest key, ranked by `(at, seq)`: the lanes' heads can
    /// share a time.
    #[inline]
    fn peek(&mut self) -> Option<&Key> {
        self.advance();
        self.run.get(self.head).max(self.heap.peek())
    }

    #[inline]
    fn pop(&mut self) -> Option<Key> {
        self.advance();
        let key = if self.run.get(self.head) > self.heap.peek() {
            self.head += 1;
            self.run[self.head - 1]
        } else {
            self.heap.pop()?
        };
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
        }
        if self.calendar.len == 0 {
            // Nothing waits in the calendar: its window starts from now.
            self.epoch = self.epoch.max(key.at >> EPOCH_BITS);
        }
        Some(key)
    }

    /// The earliest key and the one after it, read from the heads: the
    /// run's first two, the heap's root and the earlier of heap slots 1
    /// and 2. When the later of those two is not of the current epoch, the
    /// calendar's earliest key may come before it: that is the earliest of
    /// its first non-empty bucket, found by a scan.
    #[inline]
    fn next_two(&mut self) -> (Option<&Key>, Option<&Key>) {
        self.advance();
        let (run, heap) = (&self.run[self.head..], self.heap.as_slice());
        let (run0, heap0) = (run.first(), heap.first());
        let (next, after_next) = if run0 > heap0 {
            (run0, run.get(1).max(heap0))
        } else {
            let heap1 = match heap {
                [_, a, b, ..] => Some(a.max(b)),
                [_, a] => Some(a),
                _ => None,
            };
            (heap0, run0.max(heap1))
        };
        match after_next {
            Some(key) if self.is_current(key) => (next, after_next),
            _ => (next, after_next.max(self.calendar.first_after(self.epoch))),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.run.len() - self.head + self.calendar.len + self.heap.len()
    }

    /// Every queued key and the lane it waits in: the run's first, in
    /// order, then the calendar's and the heap's, in no particular order.
    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = (Lane, Key)> + '_ {
        let run = self.run[self.head..].iter().map(|&k| (Lane::Run, k));
        let calendar = self.calendar.keys().map(|k| (Lane::Calendar, k));
        let heap = self.heap.iter().map(|&k| (Lane::Heap, k));
        run.chain(calendar).chain(heap)
    }
}

/// Where a queued key waits.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Run,
    Heap,
    Calendar,
}

/// The next [`BUCKETS`] epochs' keys, one bucket per epoch, each in the
/// order it was pushed, which is `seq` order.
///
/// A bucket is a chain of chunks of [`CHUNK`] keys from one [`Pool`] that
/// every bucket shares, so the calendar holds about as many keys as are
/// pending in it, not as many as each bucket ever held. A bucket is sorted
/// through scratch lists that grow to twice what they need: like the
/// pool, they stop growing in a steady run, which allocates nothing.
#[derive(Debug)]
struct Calendar {
    buckets: [Bucket; BUCKETS],
    /// Bit `i` is set when bucket `i` holds a key.
    occupied: u128,
    pool: Pool,
    /// Keys held.
    len: usize,
    /// Scratch of [`drain_into`](Self::drain_into): a bucket's sort tags
    /// and its chain of chunks.
    tags: Vec<u64>,
    chain: Vec<u32>,
}

/// A bucket's first and last chunk (meaningless while it is empty), and
/// its number of keys.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    first: u32,
    last: u32,
    len: u32,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            buckets: [Bucket {
                first: NIL,
                last: NIL,
                len: 0,
            }; BUCKETS],
            occupied: 0,
            pool: Pool::default(),
            len: 0,
            tags: Vec::new(),
            chain: Vec::new(),
        }
    }
}

impl Calendar {
    /// Appends `key`, of `epoch`, to its bucket.
    #[inline]
    fn push(&mut self, epoch: u64, key: Key) {
        let i = epoch as usize % BUCKETS;
        let Bucket {
            mut first,
            mut last,
            len,
        } = self.buckets[i];
        if (len as usize).is_multiple_of(CHUNK) {
            let chunk = self.pool.take();
            if len == 0 {
                first = chunk;
                self.occupied |= 1 << i;
            } else {
                self.pool[last].next = chunk;
            }
            last = chunk;
        }
        self.pool[last].keys[len as usize % CHUNK] = key;
        self.buckets[i] = Bucket {
            first,
            last,
            len: len + 1,
        };
        self.len += 1;
    }

    /// The first epoch after `epoch` whose bucket holds a key. The
    /// calendar must hold one.
    #[inline]
    fn next_after(&self, epoch: u64) -> u64 {
        debug_assert!(self.occupied != 0);
        let from = (epoch + 1) % BUCKETS as u64;
        epoch + 1 + u64::from(self.occupied.rotate_right(from as u32).trailing_zeros())
    }

    /// The earliest key of the first non-empty bucket after `epoch`, if
    /// there is one: the calendar's earliest key.
    fn first_after(&self, epoch: u64) -> Option<&Key> {
        if self.len == 0 {
            return None;
        }
        let bucket = self.buckets[self.next_after(epoch) as usize % BUCKETS];
        let keys = self.pool.chain(bucket.first, bucket.len as usize);
        let keys = keys.flat_map(|(_, keys)| keys);
        keys.fold(None, |earliest, key| earliest.max(Some(key)))
    }

    /// Empties `epoch`'s bucket onto the end of `run`, sorted by `(at,
    /// seq)`, and gives its chunks back to the pool.
    ///
    /// Its keys share an epoch and come in `seq` order, so tagging each
    /// with its time within the epoch and its place in the bucket, and
    /// sorting the tags, sorts the keys: 8-byte tags move faster than
    /// 24-byte keys.
    fn drain_into(&mut self, epoch: u64, run: &mut Vec<Key>) {
        const WITHIN: u64 = (1 << EPOCH_BITS) - 1;
        let i = epoch as usize % BUCKETS;
        let Bucket { first, last, len } = self.buckets[i];
        let len = len as usize;
        reserve_twice(&mut self.tags, len);
        reserve_twice(&mut self.chain, len.div_ceil(CHUNK));
        for (chunk, keys) in self.pool.chain(first, len) {
            let start = self.chain.len() * CHUNK;
            let tag = |(j, k): (usize, &Key)| (k.at & WITHIN) << 32 | (start + j) as u64;
            self.tags.extend(keys.iter().enumerate().map(tag));
            self.chain.push(chunk);
        }
        self.tags.sort_unstable();
        reserve_twice(run, len);
        run.extend(self.tags.drain(..).map(|tag| {
            let place = tag as u32 as usize;
            self.pool[self.chain[place / CHUNK]].keys[place % CHUNK]
        }));
        self.chain.clear();
        self.pool.give_back(first, last);
        self.buckets[i].len = 0;
        self.occupied &= !(1 << i);
        self.len -= len;
    }

    /// Every key held, bucket by bucket.
    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        let buckets = self.buckets.iter();
        let chunks = buckets.flat_map(|b| self.pool.chain(b.first, b.len as usize));
        chunks.flat_map(|(_, keys)| keys.iter().copied())
    }
}

/// [`CHUNK`] keys of one bucket, in push order.
#[derive(Debug)]
struct Chunk {
    keys: [Key; CHUNK],
    /// The next chunk of its bucket's chain, or of the spare list.
    next: u32,
}

/// The calendar's chunks, in pages of [`PAGE`] that are never moved or
/// freed until the queue drains: chunk `c` is `pages[c / PAGE][c % PAGE]`.
/// Free chunks form a spare list. When it runs out, the pool grows by
/// half its pages, so it stops growing in a steady run.
#[derive(Debug)]
struct Pool {
    pages: Vec<Box<[Chunk]>>,
    /// First chunk of the spare list.
    spare: u32,
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            pages: Vec::new(),
            spare: NIL,
        }
    }
}

impl std::ops::Index<u32> for Pool {
    type Output = Chunk;

    #[inline]
    fn index(&self, chunk: u32) -> &Chunk {
        &self.pages[chunk as usize / PAGE][chunk as usize % PAGE]
    }
}

impl std::ops::IndexMut<u32> for Pool {
    #[inline]
    fn index_mut(&mut self, chunk: u32) -> &mut Chunk {
        &mut self.pages[chunk as usize / PAGE][chunk as usize % PAGE]
    }
}

impl Pool {
    /// A spare chunk, taken off the list.
    #[inline]
    fn take(&mut self) -> u32 {
        if self.spare == NIL {
            self.grow();
        }
        let chunk = self.spare;
        self.spare = self[chunk].next;
        chunk
    }

    /// The chunks of a chain of `len` keys from `first`, and their keys.
    fn chain(&self, first: u32, len: usize) -> impl Iterator<Item = (u32, &[Key])> {
        let (mut chunk, mut left) = (first, len);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let Chunk { keys, next } = &self[chunk];
            let keys = &keys[..CHUNK.min(left)];
            let this = chunk;
            (chunk, left) = (*next, left - keys.len());
            Some((this, keys))
        })
    }

    /// Puts a chain of chunks, from `first` to `last`, on the spare list.
    #[inline]
    fn give_back(&mut self, first: u32, last: u32) {
        self[last].next = self.spare;
        self.spare = first;
    }

    /// Adds half as many pages as the pool has (one, at first), all of
    /// them spare. The spare list is empty.
    #[cold]
    fn grow(&mut self) {
        const EMPTY: Key = Key {
            at: 0,
            seq: 0,
            to: 0,
            slot: 0,
        };
        let from = self.pages.len() * PAGE;
        let to = from + (self.pages.len() / 2).max(1) * PAGE;
        assert!(to < NIL as usize, "more than 2^32 calendar chunks");
        for page in (from..to).step_by(PAGE) {
            let chunks = (page + 1..=page + PAGE).map(|next| Chunk {
                keys: [EMPTY; CHUNK],
                next: if next == to { NIL } else { next as u32 },
            });
            self.pages.push(chunks.collect());
        }
        self.spare = from as u32;
    }
}

/// Makes room in `v` for `extra` more items. When it has to grow, it
/// grows to twice what it needs, so that a steady run, whose needs wander
/// a little above their last peak, stops growing it.
fn reserve_twice<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(2 * (v.len() + extra) - v.len());
    }
}

/// Deterministic discrete-event simulator over a set of actors.
///
/// One queue of 24-byte keys popped lowest `(time, seq)` first, where
/// `seq` counts every event ever scheduled, so ties at equal times break
/// by scheduling order. Given the same actors, delay model and seed, two
/// runs deliver the same events in the same order. A key due within the
/// current millisecond joins a FIFO run when it is scheduled no earlier
/// than the run's last key, and a binary heap otherwise; a key due in the
/// next 131 ms waits unsorted in a calendar of 1 ms buckets, each sorted
/// onto the run when its millisecond comes; a key due later waits in the
/// heap. A pop takes the earlier of the run's head and the heap's, so
/// most keys never pass through the heap. Under a constant delay every
/// key is scheduled in time order, so the heap stays empty.
///
/// A key names the slot of a paged slab where its payload waits: a
/// message is written there once, when the actor sends it, and read once,
/// when it is delivered; the queue never moves it, and a steady run
/// allocates nothing per event. When the queue drains, its lanes, the
/// slab and the timer index are dropped.
///
/// See the [crate docs](crate) for an example.
pub struct Simulator<A: Actor, D> {
    actors: Vec<A>,
    queue: Queue,
    slab: Slab<A::Msg, A::Timer>,
    /// Armed timers: `(actor, timer) → slot` of the live arming. Canceling
    /// or re-arming marks the old slot [`Slot::Canceled`], and its key is
    /// discarded when it reaches the head of the queue.
    armed: HashMap<(usize, A::Timer), u32>,
    delay: D,
    rng: StdRng,
    now: Time,
    seq: u64,
    delivered: u64,
    timers_fired: u64,
    dropped: u64,
    duplicated: u64,
    /// Scratch buffer actors write their ops into during a delivery.
    ops: Vec<Op<A::Timer>>,
}

impl<A: Actor, D> std::fmt::Debug for Simulator<A, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("actors", &self.actors.len())
            .field("now", &self.now)
            .field("seq", &self.seq)
            .field("delivered", &self.delivered)
            .field("pending", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<A: Actor, D: DelayModel> Simulator<A, D>
where
    A::Msg: Clone,
{
    /// Creates a simulator over `actors` with the given delay model and RNG
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics with 2^31 actors or more.
    pub fn new(actors: Vec<A>, delay: D, seed: u64) -> Self {
        assert!(actors.len() <= TIMER as usize, "too many actors");
        Simulator {
            actors,
            queue: Queue::default(),
            slab: Slab::new(),
            armed: HashMap::new(),
            delay,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            delivered: 0,
            timers_fired: 0,
            dropped: 0,
            duplicated: 0,
            ops: Vec::new(),
        }
    }

    // Accepted and ignored: the frozen `benchmark/` probes call this.
    // Goes when `benchmark/` is next touched (ROADMAP item 7(d), the thaw).
    #[doc(hidden)]
    pub fn set_shards(&mut self, _n: usize) {}

    /// Current virtual time (µs).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of actors.
    #[inline]
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// Whether the simulator has no actors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Shared access to an actor's state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn actor(&self, i: usize) -> &A {
        &self.actors[i]
    }

    /// Iterates over all actors in index order.
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        self.actors.iter()
    }

    /// Appends a fresh actor and returns its index.
    ///
    /// Safe to call mid-run (between [`step`](Self::step)s or after a
    /// [`run`](Self::run) drained the queue): existing actors, queued
    /// events, virtual time, and the RNG stream are untouched, and the
    /// new actor can immediately receive injections. This is the growth
    /// path incremental network construction builds on.
    ///
    /// # Panics
    ///
    /// Panics when the population would reach 2^31 actors.
    pub fn add_actor(&mut self, actor: A) -> usize {
        assert!(self.actors.len() < TIMER as usize, "too many actors");
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Schedules delivery of `msg` to `to` at the current time plus the
    /// model latency, as if sent by `from`.
    ///
    /// Injections are driver-level and always reliable: the delay model's
    /// [`Fate`] applies only to messages actors send, never to these.
    ///
    /// # Panics
    ///
    /// Panics if `to` or `from` is out of range.
    pub fn inject(&mut self, from: usize, to: usize, msg: A::Msg) {
        assert!(from < self.len() && to < self.len());
        let d = self.delay.delay(from, to, &mut self.rng);
        let slot = self.slab.insert(Slot::Msg(from as u32, msg));
        self.push_key(self.now + d, to as u32, slot);
    }

    /// Schedules delivery of `msg` at absolute virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()` or an index is out of range.
    pub fn inject_at(&mut self, at: Time, from: usize, to: usize, msg: A::Msg) {
        assert!(from < self.len() && to < self.len());
        assert!(at >= self.now, "cannot schedule in the past");
        let slot = self.slab.insert(Slot::Msg(from as u32, msg));
        self.push_key(at, to as u32, slot);
    }

    /// Queues the payload in `slot` for delivery to `to` (a timer key has
    /// [`TIMER`] set) at `at`, behind every event already scheduled then.
    fn push_key(&mut self, at: Time, to: u32, slot: u32) {
        self.queue.push(Key {
            at,
            seq: self.seq,
            to,
            slot,
        });
        self.seq += 1;
    }

    /// Applies the operations `me` buffered during one delivery.
    fn apply_ops(&mut self, me: usize) {
        let mut ops = std::mem::take(&mut self.ops);
        for op in ops.drain(..) {
            match op {
                Op::Send(to, slot) => {
                    assert!(to < self.len(), "send to unknown actor {to}");
                    match self.delay.fate(me, to, &mut self.rng) {
                        Fate::Deliver(d) => self.push_key(self.now + d, to as u32, slot),
                        Fate::Drop => {
                            self.dropped += 1;
                            self.slab.take(slot);
                        }
                        Fate::Duplicate(d1, d2) => {
                            self.duplicated += 1;
                            let copy = self.slab.duplicate(slot);
                            self.push_key(self.now + d1, to as u32, copy);
                            self.push_key(self.now + d2, to as u32, slot);
                        }
                    }
                }
                Op::SetTimer(timer, delay) => {
                    let slot = self.slab.insert(Slot::Timer(timer.clone()));
                    self.push_key(self.now + delay, me as u32 | TIMER, slot);
                    // Supersedes any prior arming: its key pops as stale.
                    if let Some(old) = self.armed.insert((me, timer), slot) {
                        self.slab.cancel(old);
                    }
                }
                Op::CancelTimer(timer) => {
                    if let Some(old) = self.armed.remove(&(me, timer)) {
                        self.slab.cancel(old);
                    }
                }
            }
        }
        self.ops = ops;
    }

    /// Time of the next event that will actually be delivered, if any.
    /// Canceled or superseded timer keys at the head of the queue are
    /// popped on the way: they would never fire, so discarding them (even
    /// past a run horizon) changes nothing observable. A message key is
    /// live by construction and its slot is not read.
    ///
    /// A drained queue releases its memory.
    fn next_live_at(&mut self) -> Option<Time> {
        while let Some(&key) = self.queue.peek() {
            if key.to & TIMER == 0 || !self.slab.is_canceled(key.slot) {
                return Some(key.at);
            }
            self.queue.pop();
            self.slab.take(key.slot);
        }
        self.queue = Queue::default();
        self.slab = Slab::new();
        self.armed = HashMap::new();
        self.ops = Vec::new();
        None
    }

    /// Delivers a single event (message or live timer); returns `false`
    /// when the queue is empty. Canceled or superseded timer events are
    /// discarded without advancing virtual time or any counter.
    pub fn step(&mut self) -> bool {
        if self.next_live_at().is_none() {
            return false;
        }
        self.deliver_head();
        true
    }

    /// Delivers the head of the queue, which `next_live_at` has just found
    /// live. Its slot is freed before the actor runs, so that the actor's
    /// first send can reuse it while it is in cache.
    fn deliver_head(&mut self) {
        let key = self.queue.pop().expect("peeked event vanished");
        debug_assert!(key.at >= self.now, "time went backwards");
        debug_assert!(self.ops.is_empty());
        self.prefetch_next();
        self.now = key.at;
        let me = key.actor();
        let payload = self.slab.take(key.slot);
        let mut ctx = Context {
            now: key.at,
            me,
            out: &mut self.ops,
            slab: &mut self.slab,
        };
        match payload {
            Slot::Msg(from, msg) => {
                self.delivered += 1;
                self.actors[me].on_message(&mut ctx, from as usize, msg);
            }
            Slot::Timer(timer) => {
                self.armed.remove(&(me, timer.clone()));
                self.timers_fired += 1;
                self.actors[me].on_timer(&mut ctx, timer);
            }
            Slot::Free(_) | Slot::Canceled => unreachable!("queued key without a payload"),
        }
        self.apply_ops(me);
        self.slab.trim();
    }

    /// Names what the next two deliveries will touch while this one runs,
    /// so that their cache misses overlap its work. The event after next
    /// has its actor and its slot named by address. The next event had
    /// both named one delivery ago, so its actor can read its message and
    /// name the lines behind them ([`Actor::prefetch`]).
    #[inline]
    fn prefetch_next(&mut self) {
        let mut lines = Prefetch::new();
        let (next, after_next) = self.queue.next_two();
        if let Some(key) = after_next {
            lines.line(&self.actors[key.actor()]);
            lines.line(self.slab.slot_ptr(key.slot));
        }
        if let Some(next) = next {
            let msg = self.slab.msg(next.slot);
            self.actors[next.actor()].prefetch(msg, &mut lines);
        }
    }

    fn report(&self, truncated: bool) -> RunReport {
        RunReport {
            delivered: self.delivered,
            finished_at: self.now,
            truncated,
            timers_fired: self.timers_fired,
            dropped: self.dropped,
            duplicated: self.duplicated,
            traced: 0,
        }
    }

    /// Total messages delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of undelivered events still queued (including stale timer
    /// entries awaiting discard).
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the event queue drains. Equivalent to
    /// [`run_limited`](Self::run_limited) with `u64::MAX`.
    pub fn run(&mut self) -> RunReport {
        self.run_limited(u64::MAX)
    }

    /// Runs until the queue drains or `max_deliveries` further events have
    /// been handled, whichever comes first.
    ///
    /// The limit is a safety net for liveness tests: the join protocol is
    /// proven to terminate, so hitting the limit indicates a bug. The
    /// report's `truncated` flag is set only when a deliverable event is
    /// left; stale timer entries do not count.
    pub fn run_limited(&mut self, max_deliveries: u64) -> RunReport {
        for _ in 0..max_deliveries {
            if !self.step() {
                return self.report(false);
            }
        }
        let truncated = self.next_live_at().is_some();
        self.report(truncated)
    }

    /// Runs until the queue drains or the next live event lies past
    /// virtual time `until`, whichever comes first. Events scheduled at
    /// exactly `until` are still delivered.
    ///
    /// This is the horizon for protocols with self-re-arming periodic
    /// timers (the failure detector): their queue never drains, so
    /// [`run`](Self::run) would not terminate. The report's `truncated`
    /// flag is set when undelivered events remain past the horizon.
    pub fn run_until(&mut self, until: Time) -> RunReport {
        loop {
            match self.next_live_at() {
                None => return self.report(false),
                Some(at) if at > until => return self.report(true),
                Some(_) => self.deliver_head(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantDelay, DelayModel, FaultyDelay, UniformDelay};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Counts deliveries and forwards `hops` times around a ring.
    struct Ring {
        n: usize,
        received: u32,
    }

    impl Actor for Ring {
        type Msg = u32;
        type Timer = ();
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: usize, hops: u32) {
            self.received += 1;
            if hops > 0 {
                let next = (ctx.me() + 1) % self.n;
                ctx.send(next, hops - 1);
            }
        }
    }

    fn ring(n: usize) -> Vec<Ring> {
        (0..n).map(|_| Ring { n, received: 0 }).collect()
    }

    #[test]
    fn ring_traversal_delivers_every_hop() {
        let mut sim = Simulator::new(ring(5), ConstantDelay(100), 1);
        sim.inject(0, 0, 10); // 10 forwards + initial delivery
        let r = sim.run();
        assert_eq!(r.delivered, 11);
        assert!(!r.truncated);
        assert_eq!(r.timers_fired, 0);
        assert_eq!(r.dropped, 0);
        assert_eq!(sim.now(), 1100);
        let total: u32 = sim.actors().map(|a| a.received).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn run_limited_truncates() {
        let mut sim = Simulator::new(ring(3), ConstantDelay(1), 1);
        sim.inject(0, 0, 1000);
        let r = sim.run_limited(10);
        assert!(r.truncated);
        assert_eq!(r.delivered, 10);
        assert_eq!(sim.pending(), 1);
    }

    /// Re-arms its tick forever: the queue never drains.
    struct Heartbeat {
        ticks: u32,
    }

    impl Actor for Heartbeat {
        type Msg = u32;
        type Timer = ();
        fn on_message(&mut self, ctx: &mut Context<'_, u32, ()>, _f: usize, _m: u32) {
            ctx.set_timer((), 100);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32, ()>, _t: ()) {
            self.ticks += 1;
            ctx.set_timer((), 100);
        }
    }

    #[test]
    fn run_until_bounds_a_self_rearming_timer() {
        let mut sim = Simulator::new(vec![Heartbeat { ticks: 0 }], ConstantDelay(0), 0);
        sim.inject_at(0, 0, 0, 0);
        let r = sim.run_until(1_000);
        // Ticks at 100, 200, ..., 1000 (the horizon itself still fires).
        assert_eq!(sim.actor(0).ticks, 10);
        assert!(r.truncated, "the re-armed tick at 1100 remains queued");
        assert_eq!(sim.now(), 1_000);
        // A later horizon resumes where the first left off.
        sim.run_until(1_250);
        assert_eq!(sim.actor(0).ticks, 12);
    }

    #[test]
    fn run_until_discards_stale_timers_without_overshooting() {
        struct OneShot {
            fired: u32,
        }
        impl Actor for OneShot {
            type Msg = u32;
            type Timer = u32;
            fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _f: usize, m: u32) {
                match m {
                    0 => ctx.set_timer(7, 50), // armed...
                    _ => ctx.cancel_timer(7),  // ...then canceled
                }
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u32>, _t: u32) {
                self.fired += 1;
            }
        }
        let mut sim = Simulator::new(vec![OneShot { fired: 0 }], ConstantDelay(0), 0);
        sim.inject_at(0, 0, 0, 0); // arms the timer for t = 50
        sim.inject_at(10, 0, 0, 1); // cancels it at t = 10
        sim.inject_at(80, 0, 0, 2); // past-horizon traffic
        let r = sim.run_until(60);
        assert_eq!(sim.actor(0).fired, 0, "canceled timer must not fire");
        assert!(r.truncated, "the t = 80 message is past the horizon");
        assert_eq!(r.delivered, 2);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(ring(7), UniformDelay::new(1, 1000), seed);
            sim.inject(0, 3, 50);
            sim.inject(0, 5, 50);
            let r = sim.run();
            (r.delivered, r.finished_at, sim.now())
        };
        assert_eq!(run(99), run(99));
        // Different seed ⇒ (almost surely) different finish time.
        assert_ne!(run(99).1, run(100).1);
    }

    /// Logs `(now, message)`; a message `m` with `m % 10 == 7` arms
    /// timer 0 ten µs out, one with `m % 10 == 8` cancels it, and a
    /// fired timer logs as message `u32::MAX`.
    struct Recorder {
        log: Vec<(Time, u32)>,
    }

    impl Actor for Recorder {
        type Msg = u32;
        type Timer = ();
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _f: usize, m: u32) {
            self.log.push((ctx.now(), m));
            match m % 10 {
                7 => ctx.set_timer((), 10),
                8 => ctx.cancel_timer(()),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _t: ()) {
            self.log.push((ctx.now(), u32::MAX));
        }
    }

    fn recorder() -> Simulator<Recorder, ConstantDelay> {
        Simulator::new(vec![Recorder { log: vec![] }], ConstantDelay(0), 0)
    }

    /// `(run, heap)` lengths. The calendar must be empty.
    fn lanes<A: Actor, D>(sim: &Simulator<A, D>) -> (usize, usize) {
        let mut lens = (0, 0);
        for (lane, _) in sim.queue.keys() {
            match lane {
                Lane::Run => lens.0 += 1,
                Lane::Heap => lens.1 += 1,
                Lane::Calendar => panic!("a key in the calendar at t = {}", sim.now),
            }
        }
        lens
    }

    #[test]
    fn inject_at_orders_by_time_then_seq() {
        let mut sim = recorder();
        sim.inject_at(50, 0, 0, 1);
        sim.inject_at(10, 0, 0, 2);
        sim.inject_at(50, 0, 0, 3);
        sim.run();
        assert_eq!(sim.actor(0).log, vec![(10, 2), (50, 1), (50, 3)]);
    }

    #[test]
    fn messages_and_timers_pop_by_time_then_scheduling_order() {
        /// Logs `(now, seq)`: a message carries the seq it was injected
        /// with; the message injected with seq 3 arms a timer that is
        /// scheduled sixth (seq 5) and falls due at t = 3.
        struct Log(Vec<(Time, u64)>);
        impl Actor for Log {
            type Msg = u64;
            type Timer = ();
            fn on_message(&mut self, ctx: &mut Context<'_, u64>, _f: usize, seq: u64) {
                self.0.push((ctx.now(), seq));
                if seq == 3 {
                    ctx.set_timer((), 2);
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _t: ()) {
                self.0.push((ctx.now(), 5));
            }
        }
        let mut sim = Simulator::new(vec![Log(vec![])], ConstantDelay(0), 0);
        for (seq, at) in [5u64, 3, 5, 1, 3].into_iter().enumerate() {
            sim.inject_at(at, 0, 0, seq as u64);
        }
        sim.run();
        let order = vec![(1, 3), (3, 1), (3, 4), (3, 5), (5, 0), (5, 2)];
        assert_eq!(sim.actor(0).0, order);
    }

    #[test]
    fn lane_heads_at_one_time_pop_by_seq_and_a_drained_run_leaves_an_empty_heap() {
        let mut sim = recorder();
        sim.inject_at(5, 0, 0, 1); // the run
        sim.inject_at(10, 0, 0, 2); // the run
        sim.inject_at(5, 0, 0, 3); // before the run's tail: the heap
        sim.inject_at(10, 0, 0, 4); // the run
        assert_eq!(lanes(&sim), (3, 1));
        // At t = 5 the heads tie: the run's, scheduled first, goes first.
        sim.run_until(5);
        assert_eq!(sim.actor(0).log, [(5, 1), (5, 3)]);
        // A heap key is earlier than the run's tail, which pops after it:
        // so the heap has drained before the run does, and a refilled run
        // never ties with an older heap key.
        sim.inject_at(10, 0, 0, 5);
        sim.inject_at(7, 0, 0, 6);
        assert_eq!(lanes(&sim), (3, 1));
        while lanes(&sim).0 > 0 {
            sim.step();
        }
        assert_eq!(lanes(&sim), (0, 0));
        sim.inject_at(10, 0, 0, 9); // at the time of the last delivery
        sim.run();
        let log = [(5, 1), (5, 3), (7, 6), (10, 2), (10, 4), (10, 5), (10, 9)];
        assert_eq!(sim.actor(0).log, log);
    }

    #[test]
    fn inject_at_now_after_a_run_until_peek_goes_ahead_of_the_run() {
        let mut sim = recorder();
        for (at, m) in [(10, 1), (20, 2), (30, 3)] {
            sim.inject_at(at, 0, 0, m);
        }
        // Delivers t = 10, then peeks t = 20 at the run's head and stops.
        let r = sim.run_until(15);
        assert!(r.truncated);
        assert_eq!((sim.now(), lanes(&sim)), (10, (2, 0)));
        sim.inject_at(sim.now(), 0, 0, 4);
        sim.inject_at(25, 0, 0, 5);
        assert_eq!(lanes(&sim), (2, 2));
        sim.run();
        let log = [(10, 1), (10, 4), (20, 2), (25, 5), (30, 3)];
        assert_eq!(sim.actor(0).log, log);
    }

    #[test]
    fn a_stale_timer_at_the_runs_head_is_discarded() {
        let mut sim = recorder();
        sim.inject_at(0, 0, 0, 7);
        assert!(sim.step()); // arms the timer for t = 10: the run
        sim.inject_at(20, 0, 0, 2); // the run, behind the timer
        sim.inject_at(3, 0, 0, 8); // the heap: cancels the timer at t = 3
        assert_eq!(lanes(&sim), (2, 1));
        let run_head = sim.queue.keys().next();
        assert!(matches!(run_head, Some((Lane::Run, k)) if k.to & TIMER != 0));
        assert!(sim.step());
        assert_eq!((sim.now(), lanes(&sim)), (3, (2, 0)));
        // One step discards the canceled timer and delivers t = 20.
        assert!(sim.step());
        assert_eq!((sim.now(), sim.delivered(), lanes(&sim)), (20, 3, (0, 0)));
        let r = sim.run();
        assert_eq!(r.timers_fired, 0);
        assert_eq!(sim.actor(0).log, [(0, 7), (3, 8), (20, 2)]);
    }

    #[test]
    fn a_constant_delay_run_never_touches_the_heap() {
        let mut sim = Simulator::new(ring(8), ConstantDelay(7), 1);
        for i in 0..8 {
            sim.inject(i, i, 50 + i as u32);
        }
        let mut longest = 0;
        loop {
            let (run, heap) = lanes(&sim);
            assert_eq!(heap, 0, "a key left the run at t = {}", sim.now());
            longest = longest.max(run);
            if !sim.step() {
                break;
            }
        }
        assert_eq!((longest, sim.delivered()), (8, 8 * 51 + 28));
    }

    #[test]
    fn empty_queue_run_is_noop() {
        let mut sim = Simulator::new(ring(2), ConstantDelay(1), 0);
        let r = sim.run();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.finished_at, 0);
        assert!(!sim.step());
    }

    #[test]
    fn add_actor_grows_population() {
        let mut sim = Simulator::new(ring(2), ConstantDelay(1), 0);
        let i = sim.add_actor(Ring { n: 3, received: 0 });
        assert_eq!(i, 2);
        assert_eq!(sim.len(), 3);
    }

    #[test]
    fn add_actor_mid_run_receives_injections() {
        let mut sim = Simulator::new(ring(3), ConstantDelay(10), 4);
        sim.inject(0, 0, 5);
        let first = sim.run();
        assert_eq!(first.delivered, 6);
        let t = sim.now();
        assert!(t > 0);

        // Grow the population after deliveries have occurred, then drive
        // traffic through the new actor.
        let i = sim.add_actor(Ring { n: 4, received: 0 });
        assert_eq!(i, 3);
        sim.inject(0, i, 2); // i → 0 → 1, three deliveries total
        let second = sim.run();
        assert_eq!(second.delivered, 9);
        assert_eq!(sim.actor(i).received, 1);
        // Time keeps advancing monotonically across the growth boundary.
        assert_eq!(sim.now(), t + 30);
        assert!(!second.truncated);
    }

    #[test]
    fn add_actor_between_steps_keeps_queued_events() {
        let mut sim = Simulator::new(ring(2), ConstantDelay(5), 0);
        sim.inject(0, 0, 3);
        assert!(sim.step()); // one delivery; more queued
        assert_eq!(sim.pending(), 1);
        let i = sim.add_actor(Ring { n: 2, received: 0 });
        // Queued pre-growth events still drain, untouched.
        let r = sim.run();
        assert_eq!(r.delivered, 4);
        assert_eq!(sim.actor(i).received, 0);
        assert_eq!(sim.len(), 3);
    }

    /// Re-sends a probe until an ack arrives, driven purely by timers.
    struct Prober {
        acked: bool,
        sent: u32,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum ProbeTimer {
        Resend,
    }

    #[derive(Clone)]
    enum ProbeMsg {
        Probe,
        Ack,
    }

    impl Actor for Prober {
        type Msg = ProbeMsg;
        type Timer = ProbeTimer;

        fn on_message(
            &mut self,
            ctx: &mut Context<'_, ProbeMsg, ProbeTimer>,
            from: usize,
            msg: ProbeMsg,
        ) {
            match msg {
                ProbeMsg::Probe => {
                    if ctx.me() == 1 {
                        ctx.send(from, ProbeMsg::Ack);
                    } else {
                        // Actor 0 starting: fire first probe, arm retry.
                        self.sent += 1;
                        ctx.send(1, ProbeMsg::Probe);
                        ctx.set_timer(ProbeTimer::Resend, 500);
                    }
                }
                ProbeMsg::Ack => {
                    self.acked = true;
                    ctx.cancel_timer(ProbeTimer::Resend);
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, ProbeMsg, ProbeTimer>, _t: ProbeTimer) {
            if !self.acked {
                self.sent += 1;
                ctx.send(1, ProbeMsg::Probe);
                ctx.set_timer(ProbeTimer::Resend, 500);
            }
        }
    }

    fn probers() -> Vec<Prober> {
        vec![
            Prober {
                acked: false,
                sent: 0,
            },
            Prober {
                acked: false,
                sent: 0,
            },
        ]
    }

    #[test]
    fn canceled_timer_never_fires() {
        // Fast ack: the resend timer is canceled before its deadline.
        let mut sim = Simulator::new(probers(), ConstantDelay(10), 3);
        sim.inject(0, 0, ProbeMsg::Probe);
        let r = sim.run();
        assert!(sim.actor(0).acked);
        assert_eq!(sim.actor(0).sent, 1);
        assert_eq!(r.timers_fired, 0);
        // The stale timer entry drained without advancing time.
        assert_eq!(r.finished_at, 30);
    }

    #[test]
    fn run_limited_at_the_exact_cap_ignores_stale_timers() {
        // Probe, probe, ack: the cap is reached exactly and only the
        // canceled resend timer is left in the queue.
        let mut sim = Simulator::new(probers(), ConstantDelay(10), 3);
        sim.inject(0, 0, ProbeMsg::Probe);
        let r = sim.run_limited(3);
        assert_eq!(r.delivered, 3);
        assert!(sim.actor(0).acked);
        assert!(!r.truncated, "a stale timer entry is not pending work");
        assert!(!sim.step());
    }

    #[test]
    fn timer_fires_and_retries_recover_from_drops() {
        // Drop every message whose fate roll says so; retries must still
        // land an ack eventually (drop_p well below 1).
        let faulty = FaultyDelay::new(ConstantDelay(10), 0.5, 0.0);
        let mut sim = Simulator::new(probers(), faulty, 12);
        sim.inject(0, 0, ProbeMsg::Probe);
        let r = sim.run_limited(10_000);
        assert!(!r.truncated);
        assert!(sim.actor(0).acked, "retries never landed");
        assert!(r.dropped > 0 || sim.actor(0).sent == 1);
        assert!(sim.actor(0).sent >= 1);
    }

    #[test]
    fn rearming_replaces_the_pending_deadline() {
        struct Rearm {
            fired_at: Vec<Time>,
        }
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        struct T;
        impl Actor for Rearm {
            type Msg = u32;
            type Timer = T;
            fn on_message(&mut self, ctx: &mut Context<'_, u32, T>, _f: usize, m: u32) {
                // Each delivery re-arms the same timer further out.
                ctx.set_timer(T, 1_000 + m as Time);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, u32, T>, _t: T) {
                self.fired_at.push(ctx.now());
            }
        }
        let mut sim = Simulator::new(vec![Rearm { fired_at: vec![] }], ConstantDelay(0), 0);
        sim.inject_at(0, 0, 0, 1);
        sim.inject_at(500, 0, 0, 2); // supersedes the first arming
        let r = sim.run();
        // Only the second arming fires: at 500 + 1002.
        assert_eq!(sim.actor(0).fired_at, vec![1502]);
        assert_eq!(r.timers_fired, 1);
        assert_eq!(r.delivered, 2);
    }

    #[test]
    fn duplicated_messages_deliver_twice() {
        let faulty = FaultyDelay::new(ConstantDelay(10), 0.0, 1.0);
        let mut sim = Simulator::new(ring(2), faulty, 7);
        sim.inject(0, 1, 0); // injection is reliable: one delivery
        let r = sim.run();
        assert_eq!(r.delivered, 1);
        assert_eq!(r.duplicated, 0);
        // An actor-sent message under dup_p = 1 lands twice.
        let faulty = FaultyDelay::new(ConstantDelay(10), 0.0, 1.0);
        let mut sim = Simulator::new(ring(2), faulty, 7);
        sim.inject(0, 0, 1); // actor 0 forwards one hop to actor 1
        let r = sim.run_limited(100);
        assert!(r.duplicated > 0);
        assert!(sim.actor(1).received >= 2);
    }

    /// What [`Hinted`] saw: a hint about its next event (`None`: a
    /// timer), or a delivery with the messages and timers it scheduled.
    #[derive(Debug)]
    enum Seen {
        Hint(usize, Option<u32>),
        Delivery(usize, Option<u32>, Vec<u32>, bool),
    }

    /// Forwards each message to two actors and arms a one-off timer on
    /// every third, until the run's 400 message ids are used up.
    struct Hinted {
        me: usize,
        n: usize,
        ids: Rc<Cell<u32>>,
        log: Rc<RefCell<Vec<Seen>>>,
    }

    impl Actor for Hinted {
        type Msg = u32;
        type Timer = u32;
        fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _f: usize, m: u32) {
            let mut sent = Vec::new();
            for hop in 1..3 {
                let id = self.ids.get();
                if id < 400 {
                    self.ids.set(id + 1);
                    ctx.send((self.me + hop * m as usize) % self.n, id);
                    sent.push(id);
                }
            }
            let armed = m.is_multiple_of(3);
            if armed {
                ctx.set_timer(m, 100);
            }
            let seen = Seen::Delivery(self.me, Some(m), sent, armed);
            self.log.borrow_mut().push(seen);
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u32, u32>, _t: u32) {
            let seen = Seen::Delivery(self.me, None, Vec::new(), false);
            self.log.borrow_mut().push(seen);
        }
        fn prefetch(&self, next: Option<&u32>, _lines: &mut Prefetch) {
            let hint = Seen::Hint(self.me, next.copied());
            self.log.borrow_mut().push(hint);
        }
    }

    /// Runs [`Hinted`] actors to the end under `delay`. Before each step
    /// it checks that the queue names the two earliest keys, and counts
    /// where they wait before the queue looks: `lanes[3 * a + b]`, where
    /// `a` is the earlier's [`Lane`] (0 run, 1 heap, 2 calendar) and `b`
    /// the later's. Returns the hints that named the delivery after them,
    /// the ones an event scheduled in between overtook, and the lane
    /// counts.
    fn hinted_run<D: DelayModel>(delay: D) -> (usize, usize, [usize; 9]) {
        let (n, ids, log) = (5, Rc::new(Cell::new(1)), Rc::new(RefCell::new(Vec::new())));
        let actors = (0..n).map(|me| Hinted {
            me,
            n,
            ids: Rc::clone(&ids),
            log: Rc::clone(&log),
        });
        let mut sim = Simulator::new(actors.collect(), delay, 3);
        sim.inject(0, 0, 0);
        let mut lanes = [0; 9];
        loop {
            let mut keys: Vec<(Lane, Key)> = sim.queue.keys().collect();
            keys.sort_unstable_by_key(|(_, k)| (k.at, k.seq));
            let seqs = |key: Option<&Key>| key.map(|k| k.seq);
            let (next, after_next) = sim.queue.next_two();
            assert_eq!(seqs(next), keys.first().map(|(_, k)| k.seq));
            assert_eq!(seqs(after_next), keys.get(1).map(|(_, k)| k.seq));
            if let [(a, _), (b, _), ..] = keys[..] {
                lanes[3 * a as usize + b as usize] += 1;
            }
            if !sim.step() {
                break;
            }
        }
        // Pair each delivery with the hint given just before it.
        let mut hinted = Vec::new();
        let mut hint = None;
        for seen in log.borrow_mut().drain(..) {
            match seen {
                Seen::Hint(to, msg) => hint = Some((to, msg)),
                Seen::Delivery(to, msg, sent, armed) => {
                    hinted.push((hint.take(), (to, msg), sent, armed));
                }
            }
        }
        let (mut named, mut overtaken) = (0, 0);
        for pair in hinted.windows(2) {
            let [(hint, _, sent, armed), (_, next, ..)] = pair else {
                unreachable!()
            };
            if *hint == Some(*next) {
                named += 1;
                continue;
            }
            // Only an event the delivery in between scheduled can have
            // overtaken the hinted one.
            overtaken += 1;
            match next.1 {
                Some(m) => assert!(sent.contains(&m), "{next:?} was never hinted"),
                None => assert!(armed, "timer {next:?} was never hinted"),
            }
        }
        assert_eq!(hinted.len(), 400 + 134, "every message and timer delivered");
        (named, overtaken, lanes)
    }

    #[test]
    fn each_hint_names_the_next_delivery_unless_an_earlier_event_came_between() {
        let (named, overtaken, spread) = hinted_run(UniformDelay::new(1, 1_000));
        assert!(
            named > 10 * overtaken && overtaken > 0,
            "{named} vs {overtaken}"
        );
        // Under a constant delay the messages keep to the run until a
        // timer, armed further out, sends the ones behind it to the heap.
        let (named, overtaken, steady) = hinted_run(ConstantDelay(10));
        assert!(named > 10 * overtaken, "{named} vs {overtaken}");
        // Both earliest in the heap, in the run, and one in each.
        let (run_run, run_heap, heap_run, heap_heap) = (0, 1, 3, 4);
        assert!(
            [run_run, run_heap, heap_run, heap_heap]
                .iter()
                .all(|&i| spread[i] > 0 && steady[i] > 0),
            "{spread:?} {steady:?}"
        );
        // Over the calendar and past its window. A timer, armed 100 µs
        // out, overtakes the hinted message more often.
        let (named, overtaken, wide) = hinted_run(UniformDelay::new(1, 300_000));
        assert!(named > 3 * overtaken, "{named} vs {overtaken}");
        // The two earliest straddle the run and a bucket, two buckets, and
        // a bucket and a far key in the heap.
        let (run_bucket, bucket_bucket, bucket_far) = (2, 8, 7);
        assert!(
            [run_bucket, bucket_bucket, bucket_far]
                .iter()
                .all(|&i| wide[i] > 0),
            "{wide:?}"
        );
    }

    #[test]
    fn next_two_reads_across_the_run_the_calendar_and_far_keys() {
        use Lane::{Calendar, Heap, Run};
        /// Where the first three keys wait, and the times `next_two`
        /// names, which must be the first two.
        fn look(queue: &mut Queue) -> (Vec<Lane>, [Option<Time>; 2]) {
            let mut keys: Vec<(Lane, Key)> = queue.keys().collect();
            keys.sort_unstable_by_key(|(_, k)| (k.at, k.seq));
            let lanes = keys.iter().take(3).map(|&(lane, _)| lane).collect();
            let (next, after_next) = queue.next_two();
            let named = [next.map(|k| k.at), after_next.map(|k| k.at)];
            assert_eq!(named, [0, 1].map(|i| keys.get(i).map(|(_, k)| k.at)));
            (lanes, named)
        }
        let mut seq = 0;
        let mut push = |queue: &mut Queue, at: Time| {
            let (to, slot) = (0, 0);
            queue.push(Key { at, seq, to, slot });
            seq += 1;
        };
        let pop = |queue: &mut Queue| queue.pop().map(|k| k.at);

        let mut queue = Queue::default();
        for at in [100, 200, 3_500, 5_500, 7_000] {
            push(&mut queue, at);
        }
        let both_in_the_run = (vec![Run, Run, Calendar], [Some(100), Some(200)]);
        assert_eq!(look(&mut queue), both_in_the_run);
        // Run and bucket: the run's last key, then bucket 3's.
        assert_eq!(pop(&mut queue), Some(100));
        let run_bucket = (vec![Run, Calendar, Calendar], [Some(200), Some(3_500)]);
        assert_eq!(look(&mut queue), run_bucket);
        // Bucket and bucket: bucket 3 is sorted into the run, and bucket
        // 5 is scanned.
        assert_eq!(pop(&mut queue), Some(200));
        let bucket_bucket = (
            vec![Calendar, Calendar, Calendar],
            [Some(3_500), Some(5_500)],
        );
        assert_eq!(look(&mut queue), bucket_bucket);
        assert_eq!(queue.epoch, 3);
        // Bucket and far key: past the window, a key waits in the heap.
        push(&mut queue, 300_000);
        assert_eq!(pop(&mut queue), Some(3_500));
        assert_eq!(pop(&mut queue), Some(5_500));
        let bucket_far = (vec![Calendar, Heap], [Some(7_000), Some(300_000)]);
        assert_eq!(look(&mut queue), bucket_far);
        // With the calendar empty, a pop makes its key's epoch current, so
        // a key 3 ms on goes to the calendar, not to the lanes.
        assert_eq!(pop(&mut queue), Some(7_000));
        assert_eq!(queue.epoch, 6);
        push(&mut queue, 10_000);
        let bucket_far = (vec![Calendar, Heap], [Some(10_000), Some(300_000)]);
        assert_eq!(look(&mut queue), bucket_far);
        assert_eq!(pop(&mut queue), Some(10_000));
        assert_eq!(pop(&mut queue), Some(300_000));
        assert_eq!(queue.epoch, 300_000 >> EPOCH_BITS);
        push(&mut queue, 305_000);
        assert_eq!(look(&mut queue), (vec![Calendar], [Some(305_000), None]));
        assert_eq!((pop(&mut queue), pop(&mut queue)), (Some(305_000), None));

        // A far key that comes before the calendar's first bucket: its
        // epoch becomes current and the bucket waits.
        let mut queue = Queue::default();
        push(&mut queue, 200_000); // epoch 195: past the window from 0
        push(&mut queue, 100_000); // epoch 97: bucket
        assert_eq!(pop(&mut queue), Some(100_000));
        push(&mut queue, 230_000); // epoch 224: bucket, from 97
        let far_bucket = (vec![Heap, Calendar], [Some(200_000), Some(230_000)]);
        assert_eq!(look(&mut queue), far_bucket);
        assert_eq!(queue.epoch, 200_000 >> EPOCH_BITS);
        assert_eq!(
            queue.keys().filter(|(lane, _)| *lane == Calendar).count(),
            1
        );
        assert_eq!(
            (pop(&mut queue), pop(&mut queue)),
            (Some(200_000), Some(230_000))
        );
        assert_eq!((queue.len(), pop(&mut queue)), (0, None));
    }

    #[test]
    fn run_accepts_a_non_send_actor() {
        struct Local(std::rc::Rc<std::cell::Cell<u32>>);
        impl Actor for Local {
            type Msg = u32;
            type Timer = ();
            fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _f: usize, m: u32) {
                self.0.set(self.0.get() + m);
            }
        }
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sim = Simulator::new(vec![Local(seen.clone())], ConstantDelay(1), 0);
        sim.inject(0, 0, 7);
        sim.run();
        assert_eq!(seen.get(), 7);
    }
}
