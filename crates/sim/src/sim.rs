use std::collections::{BinaryHeap, HashMap, VecDeque};
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

/// The simulator's event queue, in two lanes. A key scheduled no earlier
/// than the last key of `run` is appended to it; any other goes to
/// `heap`. `seq` rises with every push, so `run` is a FIFO sorted by
/// `(at, seq)`, and the earliest key is the earlier of the two heads.
///
/// A heap key is always earlier than the run's last key, which pops
/// after it: so the heap is empty whenever the run is.
#[derive(Debug, Default)]
struct Queue {
    run: VecDeque<Key>,
    heap: BinaryHeap<Key>,
}

// `Key`'s order is reversed: of two keys, the greater is the earlier
// event, and so is `Some` key beside `None`.
impl Queue {
    #[inline]
    fn push(&mut self, key: Key) {
        match self.run.back() {
            Some(back) if key.at < back.at => self.heap.push(key),
            _ => self.run.push_back(key),
        }
    }

    /// The earliest key, ranked by `(at, seq)`: the lanes' heads can
    /// share a time.
    #[inline]
    fn peek(&self) -> Option<&Key> {
        self.run.front().max(self.heap.peek())
    }

    #[inline]
    fn pop(&mut self) -> Option<Key> {
        if self.run.front() > self.heap.peek() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// The earliest key and the one after it, read from the heads: the
    /// run's first two, the heap's root and the earlier of heap slots 1
    /// and 2.
    #[inline]
    fn next_two(&self) -> (Option<&Key>, Option<&Key>) {
        let heap = self.heap.as_slice();
        let (run0, heap0) = (self.run.front(), heap.first());
        if run0 > heap0 {
            return (run0, self.run.get(1).max(heap0));
        }
        let heap1 = match heap {
            [_, a, b, ..] => Some(a.max(b)),
            [_, a] => Some(a),
            _ => None,
        };
        (heap0, run0.max(heap1))
    }

    #[inline]
    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }
}

/// Deterministic discrete-event simulator over a set of actors.
///
/// One queue of 24-byte keys popped lowest `(time, seq)` first, where
/// `seq` counts every event ever scheduled, so ties at equal times break
/// by scheduling order. Given the same actors, delay model and seed, two
/// runs deliver the same events in the same order. The queue has two
/// lanes: a key scheduled no earlier than the last key of a FIFO run
/// joins the run, any other a binary heap, and a pop takes the earlier
/// head. Under a constant delay every key is scheduled in time order, so
/// the heap stays empty and a pop is a `pop_front`.
///
/// A key names the slot of a paged slab where its payload waits: a
/// message is written there once, when the actor sends it, and read once,
/// when it is delivered; the queue never moves it, and a steady run
/// allocates nothing per event. When the queue drains, both lanes, the
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
    fn prefetch_next(&self) {
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

    /// `(run, heap)` lengths.
    fn lanes<A: Actor, D>(sim: &Simulator<A, D>) -> (usize, usize) {
        (sim.queue.run.len(), sim.queue.heap.len())
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
        assert!(sim.queue.run[0].to & TIMER != 0);
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
    /// it checks that the queue reads the two earliest keys off its lanes'
    /// heads, and counts where they wait: `lanes[2 * a + b]`, where `a` is
    /// 1 when the earlier is in the run and `b` likewise for the later.
    /// Returns the hints that named the delivery after them, the ones an
    /// event scheduled in between overtook, and the lane counts.
    fn hinted_run<D: DelayModel>(delay: D) -> (usize, usize, [usize; 4]) {
        let (n, ids, log) = (5, Rc::new(Cell::new(1)), Rc::new(RefCell::new(Vec::new())));
        let actors = (0..n).map(|me| Hinted {
            me,
            n,
            ids: Rc::clone(&ids),
            log: Rc::clone(&log),
        });
        let mut sim = Simulator::new(actors.collect(), delay, 3);
        sim.inject(0, 0, 0);
        let mut lanes = [0; 4];
        loop {
            let queue = &sim.queue;
            let mut keys: Vec<Key> = queue.run.iter().chain(queue.heap.iter()).copied().collect();
            keys.sort_unstable_by_key(|k| (k.at, k.seq));
            let seqs = |key: Option<&Key>| key.map(|k| k.seq);
            let (next, after_next) = queue.next_two();
            assert_eq!(seqs(next), seqs(keys.first()));
            assert_eq!(seqs(after_next), seqs(keys.get(1)));
            if let [a, b, ..] = keys[..] {
                let in_run = |key: Key| usize::from(queue.run.iter().any(|k| k.seq == key.seq));
                lanes[2 * in_run(a) + in_run(b)] += 1;
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
        assert!(
            spread.iter().chain(&steady).all(|&count| count > 0),
            "{spread:?} {steady:?}"
        );
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
