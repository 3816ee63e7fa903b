use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::delay::{DelayModel, Fate};
use crate::event::{Event, Payload, Time};

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
}

/// One operation an actor issued during a delivery, buffered until the
/// simulator applies it.
#[derive(Debug)]
pub(crate) enum Op<M, T> {
    Send(usize, M),
    SetTimer(T, Time),
    CancelTimer(T),
}

/// Handle an actor uses to interact with the simulation during a delivery.
#[derive(Debug)]
pub struct Context<'a, M, T = ()> {
    now: Time,
    me: usize,
    out: &'a mut Vec<Op<M, T>>,
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
        self.out.push(Op::Send(to, msg));
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

/// Seq values at or above this base are *virtual*: assigned provisionally
/// by one shard to a timer that both arms and fires inside the current
/// window. Virtual seqs order strictly after every real seq in the window
/// (mirroring the sequential scheduler, where an event created during the
/// window always outranks everything already queued) and are replaced by
/// true global seqs during the replay phase.
const VSEQ_BASE: u64 = 1 << 63;

/// What fired for one record of the parallel phase.
#[derive(Clone, Copy)]
enum RecordKind {
    Msg,
    Timer,
}

/// An operation captured during the parallel phase, replayed sequentially
/// to assign global seqs and draw the shared RNG in deterministic order.
/// Timer cancellations consume neither, so they are applied eagerly in the
/// parallel phase and never recorded.
enum BatchOp<M, T> {
    Send(usize, M),
    SetTimer { timer: T, deadline: Time, gen: u64 },
}

/// One delivery performed by a shard during the parallel phase: enough to
/// replay its global side effects (seq assignment, RNG draws, queue
/// pushes, counters) in exact sequential order.
struct Record<M, T> {
    at: Time,
    /// Real event seq for events extracted from the shard queue; a virtual
    /// seq (`>= VSEQ_BASE`) for timers that armed and fired in-window.
    seq: u64,
    actor: usize,
    kind: RecordKind,
    ops: Vec<BatchOp<M, T>>,
}

/// Key ordering the replay phase: pops lowest `(at, seq)` first. `shard`
/// and `idx` locate the record; they never participate in the ordering
/// because seqs are globally unique.
struct ReplayKey {
    at: Time,
    seq: u64,
    shard: u32,
    idx: u32,
}

impl PartialEq for ReplayKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for ReplayKey {}

impl Ord for ReplayKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ReplayKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A queued delivery. The heap orders and moves `Event`s, so the payload —
/// a protocol message can be a few hundred bytes — sits behind a `Box` and
/// a sift moves the 40-byte key only.
type QueuedEvent<A> = Event<Box<Payload<<A as Actor>::Msg, <A as Actor>::Timer>>>;

/// One partition of the actor population with its own event queue and
/// armed-timer table. Actor `i` lives in shard `i % nshards` at local
/// index `i / nshards`.
struct Shard<A: Actor> {
    id: usize,
    nshards: usize,
    actors: Vec<A>,
    queue: BinaryHeap<QueuedEvent<A>>,
    /// Armed timers: `(actor, timer) → generation` of the live arming. A
    /// popped timer event fires only if its generation is still the armed
    /// one; otherwise it was canceled or superseded and is skipped
    /// silently. Generations are decided locally (shard-tagged), which is
    /// what lets staleness be resolved inside the parallel phase.
    armed: HashMap<(usize, A::Timer), u64>,
    /// Next arming generation: starts at `id`, strides by `nshards`, so
    /// generations are globally unique without cross-shard coordination.
    next_gen: u64,
    /// In-window events being processed by the current batch.
    batch: BinaryHeap<QueuedEvent<A>>,
    /// Deliveries performed by the current batch, in shard-local order.
    records: Vec<Record<A::Msg, A::Timer>>,
    /// Arming generation → record index, for timers that armed *and*
    /// fired inside the current window; the replay phase stitches these
    /// into the global order when it reaches the arming op.
    fired: HashMap<u64, usize>,
    /// Scratch buffer actors write their ops into during a delivery.
    ops_scratch: Vec<Op<A::Msg, A::Timer>>,
    /// Recycled per-record op buffers: drained during replay, returned
    /// here, reused by the next batch instead of reallocating.
    ops_pool: Vec<Vec<BatchOp<A::Msg, A::Timer>>>,
}

impl<A: Actor> Shard<A> {
    fn new(id: usize, nshards: usize) -> Self {
        Shard {
            id,
            nshards,
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            armed: HashMap::new(),
            next_gen: id as u64,
            batch: BinaryHeap::new(),
            records: Vec::new(),
            fired: HashMap::new(),
            ops_scratch: Vec::new(),
            ops_pool: Vec::new(),
        }
    }

    #[inline]
    fn take_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += self.nshards as u64;
        g
    }

    /// Pops stale timer entries sitting at the head of the queue. They
    /// would never fire, so discarding them (even past a run horizon)
    /// changes nothing observable.
    fn discard_stale_heads(&mut self) {
        while let Some(ev) = self.queue.peek() {
            let stale = match &*ev.msg {
                Payload::Timer(timer, gen) => self.armed.get(&(ev.to, timer.clone())) != Some(gen),
                Payload::Msg(_) => false,
            };
            if !stale {
                break;
            }
            self.queue.pop();
        }
    }

    /// Moves every queued event scheduled before `t1` into the batch heap;
    /// returns how many were moved.
    fn extract_window(&mut self, t1: Time) -> usize {
        let mut n = 0;
        while self.queue.peek().is_some_and(|ev| ev.at < t1) {
            let ev = self.queue.pop().expect("peeked event vanished");
            self.batch.push(ev);
            n += 1;
        }
        n
    }

    /// Returns extracted-but-unprocessed events to the queue (used when
    /// the caller decides to fall back to single-stepping).
    fn unextract(&mut self) {
        for ev in self.batch.drain() {
            self.queue.push(ev);
        }
    }

    /// Parallel phase: delivers every event in the batch heap to this
    /// shard's actors in `(at, seq)` order, recording the ops each
    /// delivery produced. Global effects (seq assignment, RNG draws,
    /// cross-shard pushes, counters) are deferred to the replay phase.
    ///
    /// With `defer` set (delay models without a positive latency floor),
    /// timers arming inside the window are *not* fired here; their queue
    /// entries are created during replay and picked up by the next batch,
    /// which is exactly when the sequential scheduler would reach them
    /// since all extracted events then share one timestamp. Without
    /// `defer`, in-window timers join the batch heap under a virtual seq.
    fn phase_a(&mut self, t1: Time, defer: bool) {
        debug_assert!(self.records.is_empty() && self.fired.is_empty());
        let mut vseq = VSEQ_BASE;
        while let Some(ev) = self.batch.pop() {
            let me = ev.to;
            debug_assert_eq!(me % self.nshards, self.id, "event routed to wrong shard");
            let local = me / self.nshards;
            debug_assert!(self.ops_scratch.is_empty());
            let (kind, virt_gen) = match *ev.msg {
                Payload::Msg(msg) => {
                    let mut ctx = Context {
                        now: ev.at,
                        me,
                        out: &mut self.ops_scratch,
                    };
                    self.actors[local].on_message(&mut ctx, ev.from, msg);
                    (RecordKind::Msg, None)
                }
                Payload::Timer(timer, gen) => {
                    if self.armed.get(&(me, timer.clone())) != Some(&gen) {
                        continue; // stale: canceled or re-armed since
                    }
                    self.armed.remove(&(me, timer.clone()));
                    let mut ctx = Context {
                        now: ev.at,
                        me,
                        out: &mut self.ops_scratch,
                    };
                    self.actors[local].on_timer(&mut ctx, timer);
                    // Only in-window armings need gen → record linkage;
                    // extracted timer events already hold a real seq.
                    (RecordKind::Timer, (ev.seq >= VSEQ_BASE).then_some(gen))
                }
            };
            let mut ops = std::mem::take(&mut self.ops_scratch);
            let mut rec_ops = self.ops_pool.pop().unwrap_or_default();
            for op in ops.drain(..) {
                match op {
                    Op::Send(to, msg) => rec_ops.push(BatchOp::Send(to, msg)),
                    Op::SetTimer(timer, delay) => {
                        let gen = self.take_gen();
                        let deadline = ev.at + delay;
                        self.armed.insert((me, timer.clone()), gen);
                        if !defer && deadline < t1 {
                            vseq += 1;
                            self.batch.push(Event {
                                at: deadline,
                                seq: vseq,
                                from: me,
                                to: me,
                                msg: Box::new(Payload::Timer(timer.clone(), gen)),
                            });
                        }
                        rec_ops.push(BatchOp::SetTimer {
                            timer,
                            deadline,
                            gen,
                        });
                    }
                    Op::CancelTimer(timer) => {
                        self.armed.remove(&(me, timer));
                    }
                }
            }
            self.ops_scratch = ops;
            let idx = self.records.len();
            if let Some(g) = virt_gen {
                self.fired.insert(g, idx);
            }
            self.records.push(Record {
                at: ev.at,
                seq: ev.seq,
                actor: me,
                kind,
                ops: rec_ops,
            });
        }
    }
}

/// Deterministic discrete-event simulator over a set of actors.
///
/// The actor population is partitioned into shards (see
/// [`set_shards`](Self::set_shards)); with more than one shard, runs
/// proceed in conservative time windows of width `min_delay` whose
/// deliveries are fanned across shards in parallel, then *replayed*
/// sequentially in global `(time, seq)` order to assign event seqs and
/// draw the shared RNG exactly as the sequential scheduler would. Sharded
/// runs are therefore bit-identical to single-shard runs — same actor
/// states, same RNG stream, same report — regardless of shard or core
/// count.
///
/// See the [crate docs](crate) for an example.
pub struct Simulator<A: Actor, D> {
    shards: Vec<Shard<A>>,
    n_actors: usize,
    delay: D,
    rng: StdRng,
    now: Time,
    seq: u64,
    delivered: u64,
    timers_fired: u64,
    dropped: u64,
    duplicated: u64,
    ops: Vec<Op<A::Msg, A::Timer>>,
    replay: BinaryHeap<ReplayKey>,
}

impl<A: Actor, D> std::fmt::Debug for Simulator<A, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("actors", &self.n_actors)
            .field("shards", &self.shards.len())
            .field("now", &self.now)
            .field("seq", &self.seq)
            .field("delivered", &self.delivered)
            .field(
                "pending",
                &self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

impl<A: Actor, D: DelayModel> Simulator<A, D>
where
    A::Msg: Clone,
{
    /// Creates a simulator over `actors` with the given delay model and RNG
    /// seed. Starts with a single shard (pure sequential scheduling); see
    /// [`set_shards`](Self::set_shards).
    pub fn new(actors: Vec<A>, delay: D, seed: u64) -> Self {
        let n_actors = actors.len();
        let mut shard = Shard::new(0, 1);
        shard.actors = actors;
        Simulator {
            shards: vec![shard],
            n_actors,
            delay,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            delivered: 0,
            timers_fired: 0,
            dropped: 0,
            duplicated: 0,
            ops: Vec::new(),
            replay: BinaryHeap::new(),
        }
    }

    /// Repartitions the actor population into `n` shards.
    ///
    /// Must be called while the simulator is idle — before any event has
    /// been scheduled, or after a run fully drained the queue with no
    /// timer left armed. The partition is round-robin (`actor % n`), so
    /// actors added later with [`add_actor`](Self::add_actor) keep landing
    /// in the right shard.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if events are queued or timers armed.
    pub fn set_shards(&mut self, n: usize) {
        assert!(n >= 1, "need at least one shard");
        assert!(
            self.shards
                .iter()
                .all(|s| s.queue.is_empty() && s.armed.is_empty()),
            "set_shards requires an idle simulator (empty queues, no armed timers)"
        );
        let old = std::mem::take(&mut self.shards);
        let old_n = old.len();
        let mut slots: Vec<Option<A>> = (0..self.n_actors).map(|_| None).collect();
        for (s, sh) in old.into_iter().enumerate() {
            for (j, a) in sh.actors.into_iter().enumerate() {
                slots[j * old_n + s] = Some(a);
            }
        }
        self.shards = (0..n).map(|s| Shard::new(s, n)).collect();
        for (i, a) in slots.into_iter().enumerate() {
            let a = a.expect("actor slot filled exactly once");
            self.shards[i % n].actors.push(a);
        }
    }

    /// Number of shards the actor population is partitioned into.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time (µs).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of actors.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_actors
    }

    /// Whether the simulator has no actors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_actors == 0
    }

    /// Shared access to an actor's state.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn actor(&self, i: usize) -> &A {
        assert!(i < self.n_actors, "actor index {i} out of range");
        let ns = self.shards.len();
        &self.shards[i % ns].actors[i / ns]
    }

    /// Exclusive access to an actor's state (for test instrumentation; the
    /// protocol itself only runs through deliveries).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn actor_mut(&mut self, i: usize) -> &mut A {
        assert!(i < self.n_actors, "actor index {i} out of range");
        let ns = self.shards.len();
        &mut self.shards[i % ns].actors[i / ns]
    }

    /// Iterates over all actors in index order.
    pub fn actors(&self) -> impl Iterator<Item = &A> {
        (0..self.n_actors).map(move |i| self.actor(i))
    }

    /// Appends a fresh actor and returns its index.
    ///
    /// Safe to call mid-run (between [`step`](Self::step)s or after a
    /// [`run`](Self::run) drained the queue): existing actors, queued
    /// events, virtual time, and the RNG stream are untouched, and the
    /// new actor can immediately receive injections. This is the growth
    /// path incremental network construction builds on.
    pub fn add_actor(&mut self, actor: A) -> usize {
        let i = self.n_actors;
        let ns = self.shards.len();
        self.shards[i % ns].actors.push(actor);
        debug_assert_eq!(self.shards[i % ns].actors.len(), i / ns + 1);
        self.n_actors += 1;
        i
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
        assert!(from < self.n_actors && to < self.n_actors);
        let d = self.delay.delay(from, to, &mut self.rng);
        self.push_event(self.now + d, from, to, Payload::Msg(msg));
    }

    /// Schedules delivery of `msg` at absolute virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()` or an index is out of range.
    pub fn inject_at(&mut self, at: Time, from: usize, to: usize, msg: A::Msg) {
        assert!(from < self.n_actors && to < self.n_actors);
        assert!(at >= self.now, "cannot schedule in the past");
        self.push_event(at, from, to, Payload::Msg(msg));
    }

    fn push_event(&mut self, at: Time, from: usize, to: usize, msg: Payload<A::Msg, A::Timer>) {
        let s = to % self.shards.len();
        self.shards[s].queue.push(Event {
            at,
            seq: self.seq,
            from,
            to,
            msg: Box::new(msg),
        });
        self.seq += 1;
    }

    /// Applies the operations `me` buffered during one delivery.
    fn apply_ops(&mut self, me: usize) {
        let ns = self.shards.len();
        let mut ops = std::mem::take(&mut self.ops);
        for op in ops.drain(..) {
            match op {
                Op::Send(to, msg) => {
                    assert!(to < self.n_actors, "send to unknown actor {to}");
                    match self.delay.fate(me, to, &mut self.rng) {
                        Fate::Deliver(d) => {
                            self.push_event(self.now + d, me, to, Payload::Msg(msg))
                        }
                        Fate::Drop => self.dropped += 1,
                        Fate::Duplicate(d1, d2) => {
                            self.duplicated += 1;
                            self.push_event(self.now + d1, me, to, Payload::Msg(msg.clone()));
                            self.push_event(self.now + d2, me, to, Payload::Msg(msg));
                        }
                    }
                }
                Op::SetTimer(timer, delay) => {
                    let gen = self.shards[me % ns].take_gen();
                    self.push_event(self.now + delay, me, me, Payload::Timer(timer.clone(), gen));
                    // Overwrites any prior arming: the superseded queue
                    // entry's generation no longer matches and dies at pop.
                    self.shards[me % ns].armed.insert((me, timer), gen);
                }
                Op::CancelTimer(timer) => {
                    // The queue entry (if any) becomes stale and is skipped.
                    self.shards[me % ns].armed.remove(&(me, timer));
                }
            }
        }
        self.ops = ops;
    }

    /// Delivers a single event (message or live timer); returns `false`
    /// when the queue is empty. Canceled or superseded timer events are
    /// discarded without advancing virtual time or any counter.
    pub fn step(&mut self) -> bool {
        loop {
            let mut best: Option<(Time, u64, usize)> = None;
            for (s, sh) in self.shards.iter().enumerate() {
                if let Some(ev) = sh.queue.peek() {
                    if best.is_none_or(|(a, q, _)| (ev.at, ev.seq) < (a, q)) {
                        best = Some((ev.at, ev.seq, s));
                    }
                }
            }
            let Some((_, _, s)) = best else {
                return false;
            };
            let ev = self.shards[s].queue.pop().expect("peeked event vanished");
            debug_assert!(ev.at >= self.now, "time went backwards");
            let me = ev.to;
            let local = me / self.shards.len();
            debug_assert!(self.ops.is_empty());
            match *ev.msg {
                Payload::Msg(msg) => {
                    self.now = ev.at;
                    self.delivered += 1;
                    let mut ctx = Context {
                        now: ev.at,
                        me,
                        out: &mut self.ops,
                    };
                    self.shards[s].actors[local].on_message(&mut ctx, ev.from, msg);
                }
                Payload::Timer(timer, gen) => {
                    let sh = &mut self.shards[s];
                    if sh.armed.get(&(me, timer.clone())) != Some(&gen) {
                        continue; // stale: canceled or re-armed since
                    }
                    sh.armed.remove(&(me, timer.clone()));
                    self.now = ev.at;
                    self.timers_fired += 1;
                    let mut ctx = Context {
                        now: ev.at,
                        me,
                        out: &mut self.ops,
                    };
                    self.shards[s].actors[local].on_timer(&mut ctx, timer);
                }
            }
            self.apply_ops(me);
            return true;
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

    /// Earliest scheduled event time across all shards, stale or not.
    fn min_head_time(&self) -> Option<Time> {
        self.shards
            .iter()
            .filter_map(|s| s.queue.peek().map(|ev| ev.at))
            .min()
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
        self.shards.iter().map(|s| s.queue.len()).sum()
    }
}

impl<A, D: DelayModel> Simulator<A, D>
where
    A: Actor + Send,
    A::Msg: Clone + Send,
    A::Timer: Send,
{
    /// Runs until the event queue drains. Equivalent to
    /// [`run_limited`](Self::run_limited) with `u64::MAX`.
    pub fn run(&mut self) -> RunReport {
        self.run_limited(u64::MAX)
    }

    /// Runs until the queue drains or `max_deliveries` further events have
    /// been handled, whichever comes first.
    ///
    /// The limit is a safety net for liveness tests: the join protocol is
    /// proven to terminate, so hitting the limit indicates a bug. With a
    /// single shard the limit is exact; with multiple shards a time
    /// window is committed atomically, so timers arming *inside* the
    /// final window may push the count slightly past the limit.
    pub fn run_limited(&mut self, max_deliveries: u64) -> RunReport {
        if self.shards.len() == 1 {
            let mut n = 0u64;
            while n < max_deliveries {
                if !self.step() {
                    return self.report(false);
                }
                n += 1;
            }
            return self.report(self.pending() > 0);
        }
        let defer = self.delay.min_delay() == 0;
        let mut n = 0u64;
        while n < max_deliveries {
            let Some(t0) = self.min_head_time() else {
                return self.report(false);
            };
            let t1 = t0.saturating_add(self.delay.min_delay().max(1));
            let mut extracted = 0u64;
            for sh in &mut self.shards {
                extracted += sh.extract_window(t1) as u64;
            }
            if extracted > max_deliveries - n {
                // Too close to the cap to commit a whole window: return
                // the events and finish with exact single steps.
                for sh in &mut self.shards {
                    sh.unextract();
                }
                if !self.step() {
                    return self.report(false);
                }
                n += 1;
                continue;
            }
            n += self.process_batch(t1, defer);
        }
        self.report(self.pending() > 0)
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
        let sharded = self.shards.len() > 1;
        let defer = self.delay.min_delay() == 0;
        loop {
            for sh in &mut self.shards {
                // Canceled or superseded timers: discard without
                // delivering, even past the horizon (they would never
                // fire anyway).
                sh.discard_stale_heads();
            }
            let Some(t0) = self.min_head_time() else {
                return self.report(false);
            };
            if t0 > until {
                return self.report(true);
            }
            if !sharded {
                self.step();
                continue;
            }
            let t1 = t0
                .saturating_add(self.delay.min_delay().max(1))
                .min(until.saturating_add(1));
            for sh in &mut self.shards {
                sh.extract_window(t1);
            }
            self.process_batch(t1, defer);
        }
    }

    /// Processes one extracted time window: parallel per-shard delivery,
    /// then sequential replay. Returns the number of deliveries made.
    fn process_batch(&mut self, t1: Time, defer: bool) -> u64 {
        let shards = std::mem::take(&mut self.shards);
        self.shards = shards
            .into_par_iter()
            .map(|mut sh| {
                sh.phase_a(t1, defer);
                sh
            })
            .collect();
        self.replay_batch(t1, defer)
    }

    /// Sequential replay: walks the window's deliveries in global
    /// `(at, seq)` order, assigning true seqs and drawing the shared RNG
    /// exactly as the sequential scheduler would have. This is what makes
    /// sharded runs bit-identical to single-shard runs.
    fn replay_batch(&mut self, t1: Time, defer: bool) -> u64 {
        debug_assert!(self.replay.is_empty());
        let mut heap = std::mem::take(&mut self.replay);
        for (s, sh) in self.shards.iter().enumerate() {
            for (i, rec) in sh.records.iter().enumerate() {
                if rec.seq < VSEQ_BASE {
                    heap.push(ReplayKey {
                        at: rec.at,
                        seq: rec.seq,
                        shard: s as u32,
                        idx: i as u32,
                    });
                }
            }
        }
        let ns = self.shards.len();
        let mut done = 0u64;
        while let Some(key) = heap.pop() {
            let s = key.shard as usize;
            let (at, actor, kind, mut ops) = {
                let rec = &mut self.shards[s].records[key.idx as usize];
                (rec.at, rec.actor, rec.kind, std::mem::take(&mut rec.ops))
            };
            debug_assert!(at >= self.now, "replay time went backwards");
            self.now = at;
            match kind {
                RecordKind::Msg => self.delivered += 1,
                RecordKind::Timer => self.timers_fired += 1,
            }
            done += 1;
            for op in ops.drain(..) {
                match op {
                    BatchOp::Send(to, msg) => {
                        assert!(to < self.n_actors, "send to unknown actor {to}");
                        match self.delay.fate(actor, to, &mut self.rng) {
                            Fate::Deliver(d) => {
                                debug_assert!(
                                    defer || at + d >= t1,
                                    "delay model latency below its min_delay floor"
                                );
                                self.push_event(at + d, actor, to, Payload::Msg(msg));
                            }
                            Fate::Drop => self.dropped += 1,
                            Fate::Duplicate(d1, d2) => {
                                self.duplicated += 1;
                                self.push_event(at + d1, actor, to, Payload::Msg(msg.clone()));
                                self.push_event(at + d2, actor, to, Payload::Msg(msg));
                            }
                        }
                    }
                    BatchOp::SetTimer {
                        timer,
                        deadline,
                        gen,
                    } => {
                        if defer || deadline >= t1 {
                            // Future (or deferred same-timestamp) timer:
                            // a real queue entry, like the sequential
                            // scheduler would push.
                            self.push_event(deadline, actor, actor, Payload::Timer(timer, gen));
                        } else {
                            // In-window timer: it consumed its seq here
                            // but was handled (or superseded) inside the
                            // window; if it fired, stitch its record into
                            // the replay at its true global position.
                            let seq = self.seq;
                            self.seq += 1;
                            if let Some(idx) = self.shards[actor % ns].fired.remove(&gen) {
                                heap.push(ReplayKey {
                                    at: deadline,
                                    seq,
                                    shard: (actor % ns) as u32,
                                    idx: idx as u32,
                                });
                            }
                        }
                    }
                }
            }
            // Recycle the drained op buffer for the next batch.
            self.shards[s].ops_pool.push(ops);
        }
        for sh in &mut self.shards {
            sh.records.clear();
            sh.fired.clear();
        }
        self.replay = heap;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantDelay, FaultyDelay, UniformDelay};

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

    #[test]
    fn inject_at_orders_by_time_then_seq() {
        struct Recorder {
            log: Vec<(Time, u32)>,
        }
        impl Actor for Recorder {
            type Msg = u32;
            type Timer = ();
            fn on_message(&mut self, ctx: &mut Context<'_, u32>, _f: usize, m: u32) {
                self.log.push((ctx.now(), m));
            }
        }
        let mut sim = Simulator::new(vec![Recorder { log: vec![] }], ConstantDelay(0), 0);
        sim.inject_at(50, 0, 0, 1);
        sim.inject_at(10, 0, 0, 2);
        sim.inject_at(50, 0, 0, 3);
        sim.run();
        assert_eq!(sim.actor(0).log, vec![(10, 2), (50, 1), (50, 3)]);
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

    /// Sharded scheduling must be bit-identical to sequential: same
    /// reports, same actor states, same finish times, for every shard
    /// count and every delay model shape (constant, jittered, faulty,
    /// zero-floor).
    mod shard_parity {
        use super::*;

        fn ring_outcome(shards: usize, seed: u64) -> (RunReport, Time, Vec<u32>) {
            let mut sim = Simulator::new(ring(9), UniformDelay::new(1, 1_000), seed);
            sim.set_shards(shards);
            sim.inject(0, 3, 40);
            sim.inject(0, 5, 40);
            let r = sim.run();
            let st = sim.actors().map(|a| a.received).collect();
            (r, sim.now(), st)
        }

        #[test]
        fn ring_runs_match_sequential_for_all_shard_counts() {
            let base = ring_outcome(1, 42);
            for shards in [2, 3, 4, 8] {
                assert_eq!(ring_outcome(shards, 42), base, "shards = {shards}");
            }
        }

        fn prober_outcome(shards: usize) -> (RunReport, Time, u32, bool) {
            let faulty = FaultyDelay::new(ConstantDelay(10), 0.5, 0.1);
            let mut sim = Simulator::new(probers(), faulty, 12);
            sim.set_shards(shards);
            sim.inject(0, 0, ProbeMsg::Probe);
            let r = sim.run_limited(10_000);
            (r, sim.now(), sim.actor(0).sent, sim.actor(0).acked)
        }

        #[test]
        fn faulty_timer_retries_match_sequential() {
            // Timers, cancellations, drops, and duplicates all cross the
            // window machinery here (constant floor ⇒ in-window timers).
            let base = prober_outcome(1);
            assert!(base.3, "baseline must converge");
            for shards in [2, 4] {
                assert_eq!(prober_outcome(shards), base, "shards = {shards}");
            }
        }

        fn heartbeat_outcome(shards: usize) -> (RunReport, u32, u32) {
            // Zero-floor delay model: exercises the defer path where every
            // window is a single timestamp.
            let mut sim = Simulator::new(
                vec![Heartbeat { ticks: 0 }, Heartbeat { ticks: 0 }],
                ConstantDelay(0),
                0,
            );
            sim.set_shards(shards);
            sim.inject_at(0, 0, 0, 0);
            sim.inject_at(40, 1, 1, 0);
            let r = sim.run_until(1_000);
            (r, sim.actor(0).ticks, sim.actor(1).ticks)
        }

        #[test]
        fn zero_floor_run_until_matches_sequential() {
            let base = heartbeat_outcome(1);
            assert_eq!(base.1, 10);
            for shards in [2, 3] {
                assert_eq!(heartbeat_outcome(shards), base, "shards = {shards}");
            }
        }

        #[test]
        fn rearm_and_supersede_match_sequential_when_sharded() {
            let run = |shards: usize| {
                let mut sim = Simulator::new(ring(2), ConstantDelay(5), 0);
                sim.set_shards(shards);
                sim.inject(0, 0, 6);
                let r = sim.run();
                (r, sim.now())
            };
            assert_eq!(run(1), run(2));
        }

        #[test]
        fn set_shards_rejects_a_busy_simulator() {
            let mut sim = Simulator::new(ring(3), ConstantDelay(1), 0);
            sim.inject(0, 0, 1);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.set_shards(2);
            }));
            assert!(err.is_err(), "set_shards must reject queued events");
        }

        #[test]
        fn add_actor_lands_in_the_round_robin_shard() {
            let mut sim = Simulator::new(ring(4), ConstantDelay(7), 0);
            sim.set_shards(3);
            let i = sim.add_actor(Ring { n: 5, received: 0 });
            assert_eq!(i, 4);
            // Round-trips through the shard layout.
            assert_eq!(sim.actor(i).received, 0);
            sim.inject(0, i, 1);
            let r = sim.run();
            assert_eq!(r.delivered, 2);
            assert_eq!(sim.actor(i).received, 1);
        }
    }
}
