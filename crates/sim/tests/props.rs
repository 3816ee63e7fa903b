//! Property-based tests of the discrete-event simulator: causality,
//! conservation of messages, seed determinism, and equivalence with the
//! queue the slab-backed one replaced.

use std::cell::{Cell, RefCell};
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use hyperring_sim::{
    Actor, ConstantDelay, Context, DelayModel, Fate, FaultyDelay, Prefetch, RunReport, Simulator,
    Time, UniformDelay,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Actor that records delivery times and forwards a decrementing counter
/// to a fixed next hop.
struct Recorder {
    next: usize,
    log: Vec<(Time, u32)>,
}

impl Actor for Recorder {
    type Msg = u32;
    type Timer = ();
    fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: usize, m: u32) {
        self.log.push((ctx.now(), m));
        if m > 0 {
            ctx.send(self.next, m - 1);
        }
    }
}

fn ring(n: usize) -> Vec<Recorder> {
    (0..n)
        .map(|i| Recorder {
            next: (i + 1) % n,
            log: Vec::new(),
        })
        .collect()
}

proptest! {
    #[test]
    fn message_conservation(
        n in 1usize..8,
        injections in proptest::collection::vec((0u64..1_000, 0u32..30), 1..12),
        seed in 0u64..10_000,
    ) {
        // Every injected chain of length m produces exactly m + 1
        // deliveries; nothing is lost or duplicated.
        let mut sim = Simulator::new(ring(n), UniformDelay::new(1, 500), seed);
        let mut expected = 0u64;
        for (at, m) in &injections {
            sim.inject_at(*at, 0, (*m as usize) % n, *m);
            expected += *m as u64 + 1;
        }
        let report = sim.run();
        prop_assert_eq!(report.delivered, expected);
        prop_assert!(!report.truncated);
        let logged: usize = sim.actors().map(|a| a.log.len()).sum();
        prop_assert_eq!(logged as u64, expected);
    }

    #[test]
    fn delivery_times_never_decrease(
        n in 2usize..6,
        chain in 1u32..40,
        seed in 0u64..10_000,
    ) {
        let mut sim = Simulator::new(ring(n), UniformDelay::new(1, 1_000), seed);
        sim.inject(0, 0, chain);
        sim.run();
        // Concatenate all logs in global delivery order by re-running and
        // checking per-actor monotonicity (each actor's log is ordered by
        // its own delivery times).
        for a in sim.actors() {
            for w in a.log.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            }
        }
        // The chain's hops happen in causal order: the delivery carrying
        // payload p (a later hop) is never earlier than the one carrying
        // p + 1. (Times may tie when sampled latencies collide, so compare
        // per payload, not by sorting.)
        let mut time_of = std::collections::HashMap::new();
        for (t, m) in sim.actors().flat_map(|a| a.log.iter().copied()) {
            prop_assert!(time_of.insert(m, t).is_none(), "payload delivered twice");
        }
        for m in 0..chain {
            prop_assert!(time_of[&m] >= time_of[&(m + 1)], "hop {m} before its cause");
        }
    }

    #[test]
    fn constant_delay_chain_timing_is_exact(
        n in 2usize..6,
        chain in 0u32..50,
        delay in 1u64..1_000,
    ) {
        let mut sim = Simulator::new(ring(n), ConstantDelay(delay), 0);
        sim.inject(0, 0, chain);
        let report = sim.run();
        prop_assert_eq!(report.finished_at, delay * (chain as u64 + 1));
    }

    #[test]
    fn identical_seeds_identical_runs(
        n in 2usize..6,
        chain in 1u32..30,
        seed in 0u64..10_000,
    ) {
        let run = |s: u64| {
            let mut sim = Simulator::new(ring(n), UniformDelay::new(1, 2_000), s);
            sim.inject(0, 1 % n, chain);
            let r = sim.run();
            let log: Vec<Vec<(Time, u32)>> = sim.actors().map(|a| a.log.clone()).collect();
            (r.delivered, r.finished_at, log)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// What an actor was handed: a message's payload, or one of its timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Msg(u64),
    Timer(u8),
}

/// One delivery: `(now, to, from, what)`; a timer comes from its owner.
type Delivery = (Time, usize, usize, Seen);

/// Timers 0–2 get armed, re-armed and canceled; timer 3 is only ever
/// canceled, never armed.
enum Cmd {
    Send(usize, u64),
    Arm(u8, Time),
    Cancel(u8),
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An actor's behaviour, identical under both queues: what it issues in
/// reply to an event is a hash of the script seed, the actor and how many
/// events it has seen. A budget of commands keeps every run finite.
struct Script {
    seed: u64,
    me: usize,
    seen: u64,
    budget: u32,
}

impl Script {
    fn new(seed: u64, me: usize) -> Self {
        Script {
            seed,
            me,
            seen: 0,
            budget: 40,
        }
    }

    fn react(&mut self, population: usize, what: Seen) -> Vec<Cmd> {
        self.seen += 1;
        let tag = match what {
            Seen::Msg(m) => m,
            Seen::Timer(t) => u64::from(t) << 56,
        };
        let mut h = mix(self.seed ^ mix(self.me as u64 ^ mix(self.seen ^ mix(tag))));
        let mut cmds = Vec::new();
        for _ in 0..h % 4 {
            if self.budget == 0 {
                break;
            }
            self.budget -= 1;
            h = mix(h);
            cmds.push(match h % 8 {
                0..=3 => Cmd::Send((h >> 8) as usize % population, h >> 16),
                4 | 5 => Cmd::Arm((h >> 8) as u8 % 3, (h >> 16) % 400),
                6 => Cmd::Cancel((h >> 8) as u8 % 3),
                _ => Cmd::Cancel(3),
            });
        }
        cmds
    }
}

/// One prefetch hint: `(me, message)`, `None` for a timer.
type Hint = (usize, Option<u64>);

/// A scripted actor on the real simulator; `log`, `hints` and
/// `population` are shared by all actors of one run.
struct Scripted {
    script: Script,
    log: Rc<RefCell<Vec<Delivery>>>,
    /// Every prefetch hint it was given.
    hints: Rc<RefCell<Vec<Hint>>>,
    population: Rc<Cell<usize>>,
}

impl Scripted {
    fn react(&mut self, ctx: &mut Context<'_, u64, u8>, from: usize, what: Seen) {
        self.log
            .borrow_mut()
            .push((ctx.now(), ctx.me(), from, what));
        for cmd in self.script.react(self.population.get(), what) {
            match cmd {
                Cmd::Send(to, m) => ctx.send(to, m),
                Cmd::Arm(t, d) => ctx.set_timer(t, d),
                Cmd::Cancel(t) => ctx.cancel_timer(t),
            }
        }
    }
}

impl Actor for Scripted {
    type Msg = u64;
    type Timer = u8;
    fn on_message(&mut self, ctx: &mut Context<'_, u64, u8>, from: usize, m: u64) {
        self.react(ctx, from, Seen::Msg(m));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, u64, u8>, t: u8) {
        let me = ctx.me();
        self.react(ctx, me, Seen::Timer(t));
    }
    fn prefetch(&self, next: Option<&u64>, _lines: &mut Prefetch) {
        self.hints
            .borrow_mut()
            .push((self.script.me, next.copied()));
    }
}

/// The queue the slab replaced (PR 16–24), as the reference: boxed events
/// in a heap ordered by `(at, seq)`, and a timer entry firing only if its
/// arming generation is still the armed one.
struct Event {
    at: Time,
    seq: u64,
    from: usize,
    to: usize,
    msg: Box<Payload>,
}

enum Payload {
    Msg(u64),
    Timer(u8, u64),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Reference<D> {
    actors: Vec<Script>,
    queue: BinaryHeap<Event>,
    armed: HashMap<(usize, u8), u64>,
    next_gen: u64,
    delay: D,
    rng: StdRng,
    now: Time,
    seq: u64,
    report: RunReport,
    log: Vec<Delivery>,
}

impl<D: DelayModel> Reference<D> {
    fn new(actors: Vec<Script>, delay: D, seed: u64) -> Self {
        Reference {
            actors,
            queue: BinaryHeap::new(),
            armed: HashMap::new(),
            next_gen: 0,
            delay,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            report: RunReport::default(),
            log: Vec::new(),
        }
    }

    fn push(&mut self, at: Time, from: usize, to: usize, msg: Payload) {
        let (seq, msg) = (self.seq, Box::new(msg));
        self.queue.push(Event {
            at,
            seq,
            from,
            to,
            msg,
        });
        self.seq += 1;
    }

    fn inject(&mut self, from: usize, to: usize, m: u64) {
        let d = self.delay.delay(from, to, &mut self.rng);
        self.push(self.now + d, from, to, Payload::Msg(m));
    }

    fn next_live_at(&mut self) -> Option<Time> {
        while let Some(ev) = self.queue.peek() {
            match *ev.msg {
                Payload::Timer(t, gen) if self.armed.get(&(ev.to, t)) != Some(&gen) => {}
                _ => return Some(ev.at),
            }
            self.queue.pop();
        }
        None
    }

    fn deliver_head(&mut self) {
        let ev = self.queue.pop().unwrap();
        let me = ev.to;
        self.now = ev.at;
        let what = match *ev.msg {
            Payload::Msg(m) => {
                self.report.delivered += 1;
                Seen::Msg(m)
            }
            Payload::Timer(t, _) => {
                self.armed.remove(&(me, t));
                self.report.timers_fired += 1;
                Seen::Timer(t)
            }
        };
        self.log.push((ev.at, me, ev.from, what));
        let population = self.actors.len();
        for cmd in self.actors[me].react(population, what) {
            match cmd {
                Cmd::Send(to, m) => match self.delay.fate(me, to, &mut self.rng) {
                    Fate::Deliver(d) => self.push(self.now + d, me, to, Payload::Msg(m)),
                    Fate::Drop => self.report.dropped += 1,
                    Fate::Duplicate(d1, d2) => {
                        self.report.duplicated += 1;
                        self.push(self.now + d1, me, to, Payload::Msg(m));
                        self.push(self.now + d2, me, to, Payload::Msg(m));
                    }
                },
                Cmd::Arm(t, d) => {
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    self.push(self.now + d, me, me, Payload::Timer(t, gen));
                    self.armed.insert((me, t), gen);
                }
                Cmd::Cancel(t) => {
                    self.armed.remove(&(me, t));
                }
            }
        }
    }

    fn finish(&mut self, truncated: bool) -> RunReport {
        RunReport {
            finished_at: self.now,
            truncated,
            ..self.report
        }
    }

    fn run_limited(&mut self, k: u64) -> RunReport {
        for _ in 0..k {
            if self.next_live_at().is_none() {
                return self.finish(false);
            }
            self.deliver_head();
        }
        let truncated = self.next_live_at().is_some();
        self.finish(truncated)
    }

    fn run_until(&mut self, until: Time) -> RunReport {
        loop {
            match self.next_live_at() {
                None => return self.finish(false),
                Some(at) if at > until => return self.finish(true),
                Some(_) => self.deliver_head(),
            }
        }
    }
}

/// A schedule's latencies: one constant, uniform over 1–300 µs, constant
/// between actors of equal parity and uniform across, or uniform over
/// 1 µs–300 ms, which is wider than the queue's calendar: its keys land in
/// the current epoch, in the calendar's buckets and past its window.
#[derive(Debug, Clone, Copy)]
enum Latency {
    Constant(ConstantDelay),
    Uniform(UniformDelay),
    Mixed(ConstantDelay, UniformDelay),
}

impl DelayModel for Latency {
    fn delay(&mut self, from: usize, to: usize, rng: &mut StdRng) -> Time {
        match self {
            Latency::Constant(c) => c.delay(from, to, rng),
            Latency::Mixed(c, _) if (from ^ to) & 1 == 0 => c.delay(from, to, rng),
            Latency::Uniform(u) | Latency::Mixed(_, u) => u.delay(from, to, rng),
        }
    }
}

/// Latency kind `kind % 4`, with drop 0.2 and dup 0.2.
fn lossy(kind: u8) -> FaultyDelay<Latency> {
    let (constant, uniform) = (ConstantDelay(150), UniformDelay::new(1, 300));
    let latency = match kind % 4 {
        0 => Latency::Constant(constant),
        1 => Latency::Uniform(uniform),
        2 => Latency::Mixed(constant, uniform),
        _ => Latency::Uniform(UniformDelay::new(1, 300_000)),
    };
    FaultyDelay::new(latency, 0.2, 0.2)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Random actor scripts — sends, arms, re-arms, cancels (of unarmed
    /// timers too), injections and actors added mid-run — paused by
    /// `run_limited(k)`, `run_until(t)` and `run()` under drop 0.2 and dup 0.2,
    /// over constant, uniform, mixed and wide latencies (so over a queue
    /// that keeps its keys in the run, the heap, the calendar, or all
    /// three): the same deliveries in the same order, the same report and
    /// the same queue length as the reference at every pause. Injections
    /// and horizons reach up to 2 ms, 512 ms or 131 s ahead, and every
    /// schedule ends with a message a minute out and a horizon past it, a
    /// jump over a stretch far longer than the calendar's window. The
    /// actors take prefetch hints, which change nothing, and each message
    /// hinted at is delivered to the actor it was hinted to.
    #[test]
    fn slab_queue_matches_the_boxed_reference(
        n in 1usize..6,
        seed in 0u64..10_000,
        script in 0u64..10_000,
        latency in 0u8..4,
        steps in proptest::collection::vec((0u8..6, 0u64..2_000, 0u64..1_000, 0u32..3), 1..24),
    ) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let hints = Rc::new(RefCell::new(Vec::new()));
        let population = Rc::new(Cell::new(n));
        let scripted = |me: usize| Scripted {
            script: Script::new(script, me),
            log: Rc::clone(&log),
            hints: Rc::clone(&hints),
            population: Rc::clone(&population),
        };
        let mut sim = Simulator::new((0..n).map(scripted).collect(), lossy(latency), seed);
        let mut reference = Reference::new(
            (0..n).map(|me| Script::new(script, me)).collect(),
            lossy(latency),
            seed,
        );
        let mut steps = steps;
        // A message about a minute out, a horizon past it, and a drain.
        steps.extend([(1, 1_000, 0, 2), (3, 2_000, 0, 2), (5, 0, 0, 0)]);
        for (kind, a, m, scale) in steps {
            let len = sim.len();
            let (from, to) = (a as usize % len, (a >> 4) as usize % len);
            let ahead = a << (8 * scale);
            let report = match kind {
                0 => {
                    sim.inject(from, to, m);
                    reference.inject(from, to, m);
                    continue;
                }
                1 => {
                    let at = sim.now() + ahead;
                    sim.inject_at(at, from, to, m);
                    reference.push(at, from, to, Payload::Msg(m));
                    continue;
                }
                2 => {
                    let me = sim.add_actor(scripted(len));
                    reference.actors.push(Script::new(script, me));
                    population.set(me + 1);
                    continue;
                }
                3 => (
                    sim.run_until(sim.now() + ahead),
                    reference.run_until(reference.now + ahead),
                ),
                4 => (sim.run_limited(a % 64), reference.run_limited(a % 64)),
                _ => (sim.run(), reference.run_limited(u64::MAX)),
            };
            prop_assert_eq!(report.0, report.1);
            prop_assert_eq!(&*log.borrow(), &reference.log);
            prop_assert_eq!(sim.pending(), reference.queue.len());
        }
        prop_assert!(sim.pending() == 0 && !sim.step());
        let mut delivered: Vec<(usize, u64)> = (log.borrow().iter())
            .filter_map(|&(_, to, _, what)| match what {
                Seen::Msg(m) => Some((to, m)),
                Seen::Timer(_) => None,
            })
            .collect();
        delivered.sort_unstable();
        for &(to, m) in hints.borrow().iter() {
            if let Some(m) = m {
                prop_assert!(delivered.binary_search(&(to, m)).is_ok(), "hinted {m} to {to}");
            }
        }
    }
}
