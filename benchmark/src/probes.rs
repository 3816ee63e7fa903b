//! Per-layer probes: each times calls into one layer's public functions
//! from outside the library. They run only in a traced run, after the
//! workload's own repetitions.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use hyperring_core::{
    check_consistency_streaming, EffectHandler, EngineDriver, IncrementalChecker, JoinEngine,
    Message, MessageKind, NeighborTable, NodeInput, ProtocolOptions, RuntimeDriver, Status,
    TimerId,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::transport::{UdpEndpoint, WAIT_READ};
use hyperring_net::TimerWheel;
use hyperring_sim::{Actor, Context, Simulator, UniformDelay};
use hyperring_wire::{decode_frame, encode_frame};

use crate::span::Tracer;
use crate::workloads::Outcome;

fn ns_per(total: Duration, count: u64) -> f64 {
    total.as_nanos() as f64 / count.max(1) as f64
}

/// The message kinds a join wave exchanges; the replay reports each.
pub const JOIN_KINDS: [MessageKind; 11] = [
    MessageKind::CpRst,
    MessageKind::CpRly,
    MessageKind::JoinWait,
    MessageKind::JoinWaitRly,
    MessageKind::JoinNoti,
    MessageKind::JoinNotiRly,
    MessageKind::InSysNoti,
    MessageKind::SpeNoti,
    MessageKind::SpeNotiRly,
    MessageKind::RvNghNoti,
    MessageKind::RvNghNotiRly,
];

fn drive_span_name(kind: Option<MessageKind>) -> &'static str {
    match kind {
        None => "core.driver.drive.control",
        Some(MessageKind::CpRst) => "core.driver.drive.CpRst",
        Some(MessageKind::CpRly) => "core.driver.drive.CpRly",
        Some(MessageKind::JoinWait) => "core.driver.drive.JoinWait",
        Some(MessageKind::JoinWaitRly) => "core.driver.drive.JoinWaitRly",
        Some(MessageKind::JoinNoti) => "core.driver.drive.JoinNoti",
        Some(MessageKind::JoinNotiRly) => "core.driver.drive.JoinNotiRly",
        Some(MessageKind::InSysNoti) => "core.driver.drive.InSysNoti",
        Some(MessageKind::SpeNoti) => "core.driver.drive.SpeNoti",
        Some(MessageKind::SpeNotiRly) => "core.driver.drive.SpeNotiRly",
        Some(MessageKind::RvNghNoti) => "core.driver.drive.RvNghNoti",
        Some(MessageKind::RvNghNotiRly) => "core.driver.drive.RvNghNotiRly",
        Some(_) => "core.driver.drive.other",
    }
}

/// The replay's runtime: a FIFO of undelivered messages. Timers are
/// ignored — a lossless wave without a retry policy arms none.
struct Fifo {
    me: NodeId,
    index: HashMap<NodeId, usize>,
    queue: VecDeque<(usize, NodeInput)>,
    sends: u64,
}

impl EffectHandler for Fifo {
    fn send(&mut self, to: NodeId, msg: Message) {
        self.sends += 1;
        let to = self.index[&to];
        self.queue
            .push_back((to, NodeInput::Deliver { from: self.me, msg }));
    }
    fn set_timer(&mut self, _id: TimerId, _delay_hint: u64) {}
    fn cancel_timer(&mut self, _id: TimerId) {}
}

impl RuntimeDriver for Fifo {
    fn now_us(&self) -> u64 {
        0
    }
}

/// What the engine replay hands to the wire probe: every message it
/// delivered, with its sender.
pub type ReplayedMessages = Vec<(NodeId, Message)>;

/// Engine replay: the wave's members and joiners as bare [`EngineDriver`]s
/// behind a FIFO, one span per `drive()` call — the engine's cost with no
/// simulator around it. Returns the messages for the wire probe.
pub fn engine_replay(
    space: IdSpace,
    member_tables: Vec<NeighborTable>,
    joiners: &[(NodeId, NodeId)],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> ReplayedMessages {
    let opts = ProtocolOptions::new();
    let mut nodes: Vec<EngineDriver> = member_tables
        .into_iter()
        .map(|t| EngineDriver::new(JoinEngine::new_member(space, opts, t)))
        .collect();
    let first_joiner = nodes.len();
    nodes.extend(
        joiners
            .iter()
            .map(|(id, _)| EngineDriver::new(JoinEngine::new_joiner(space, opts, *id))),
    );
    let mut rt = Fifo {
        me: nodes[0].engine().id(),
        index: nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.engine().id(), i))
            .collect(),
        queue: VecDeque::new(),
        sends: 0,
    };
    for (i, (_, gateway)) in joiners.iter().enumerate() {
        rt.queue
            .push_back((first_joiner + i, NodeInput::StartJoin { gateway: *gateway }));
    }

    let mut per_kind: HashMap<MessageKind, (u64, Duration)> = HashMap::new();
    let mut messages = ReplayedMessages::new();
    let (mut inputs, mut total) = (0u64, Duration::ZERO);
    let replay = tr.enter("core.driver.replay");
    while let Some((to, input)) = rt.queue.pop_front() {
        let kind = match &input {
            NodeInput::Deliver { from, msg } => {
                messages.push((*from, msg.clone()));
                Some(msg.kind())
            }
            _ => None,
        };
        rt.me = nodes[to].engine().id();
        let open = tr.enter(drive_span_name(kind));
        nodes[to].drive(input, &mut rt, None);
        let took = tr.exit(open);
        inputs += 1;
        total += took;
        if let Some(kind) = kind {
            let e = per_kind.entry(kind).or_default();
            e.0 += 1;
            e.1 += took;
        }
    }
    tr.exit(replay);

    let all_in = nodes
        .iter()
        .all(|n| n.engine().status() == Status::InSystem);
    let report = check_consistency_streaming(space, nodes.iter().map(|n| n.engine().table()));
    if !all_in || !report.is_consistent() {
        out.broken.push(format!(
            "engine replay ended all_in_system={all_in}, {} violations",
            report.violations().len()
        ));
    }

    out.layer("core.driver.drive_ns", ns_per(total, inputs));
    out.layer(
        "core.driver.sends_per_input",
        rt.sends as f64 / inputs.max(1) as f64,
    );
    for kind in JOIN_KINDS {
        let (count, took) = per_kind.get(&kind).copied().unwrap_or_default();
        out.layer(format!("core.driver.inputs.{kind:?}"), count as f64);
        out.layer(
            format!("core.driver.drive_ns.{kind:?}"),
            ns_per(took, count),
        );
    }
    messages
}

/// Wire probe: every replayed message through `encode_frame`, then every
/// frame through `decode_frame`, each as its own pass.
pub fn wire(space: IdSpace, messages: &ReplayedMessages, tr: &mut Tracer, out: &mut Outcome) {
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(messages.len());
    let (_, encode) = tr.time("wire.encode", || {
        for (from, msg) in messages {
            encode_frame(&space, *from, msg, &mut buf);
            ends.push(buf.len());
        }
    });
    let mut bad = 0u64;
    let (_, decode) = tr.time("wire.decode", || {
        let mut start = 0;
        for &end in &ends {
            match decode_frame(&space, &buf[start..end]) {
                Ok(decoded) => {
                    black_box(decoded);
                }
                Err(_) => bad += 1,
            }
            start = end;
        }
    });
    if bad > 0 {
        out.broken
            .push(format!("{bad} encoded frames failed to decode"));
    }
    let n = messages.len() as u64;
    let frame_max = ends
        .iter()
        .scan(0, |prev, &end| {
            let len = end - *prev;
            *prev = end;
            Some(len)
        })
        .max()
        .unwrap_or(0);
    out.layer("wire.encode_ns", ns_per(encode, n));
    out.layer("wire.decode_ns", ns_per(decode, n));
    out.layer("wire.frame_bytes_mean", buf.len() as f64 / n.max(1) as f64);
    out.layer("wire.frame_bytes_max", frame_max as f64);
}

/// Table probe: loops over the final tables of a wave.
pub fn table_ops(tables: &[&NeighborTable], tr: &mut Tracer, out: &mut Outcome) {
    let space = tables[0].space();
    let (levels, base) = (space.digit_count(), space.base() as u8);

    let mut gets = 0u64;
    let (_, took) = tr.time("core.table.get", || {
        for t in tables {
            for level in 0..levels {
                for digit in 0..base {
                    black_box(t.get(level, digit));
                    gets += 1;
                }
            }
        }
    });
    out.layer("core.table.get_ns", ns_per(took, gets));

    // The mutating loops run on clones of a sample of the tables.
    let sample = &tables[..tables.len().min(1024)];
    let (mut clones, took) = tr.time("core.table.clone", || {
        sample.iter().map(|t| (*t).clone()).collect::<Vec<_>>()
    });
    out.layer("core.table.clone_ns", ns_per(took, sample.len() as u64));

    // Re-setting an entry to itself costs what any `set` costs (slot write,
    // version stamp, snapshot invalidation) and leaves the table as it was.
    let mut sets = 0u64;
    let (_, took) = tr.time("core.table.set", || {
        for t in &mut clones {
            let entries: Vec<_> = t.iter().collect();
            for (level, digit, entry) in entries {
                t.set(level, digit, entry);
                sets += 1;
            }
        }
    });
    out.layer("core.table.set_ns", ns_per(took, sets));

    // Every clone was just mutated, so each snapshot is rebuilt, not the
    // memoized one.
    let (_, took) = tr.time("core.table.snapshot", || {
        for t in &clones {
            black_box(t.snapshot());
        }
    });
    out.layer("core.table.snapshot_ns", ns_per(took, clones.len() as u64));

    let owners: Vec<NodeId> = sample.iter().map(|t| t.owner()).collect();
    let mut adds = 0u64;
    let (_, took) = tr.time("core.table.add_reverse", || {
        for (i, t) in clones.iter_mut().enumerate() {
            for k in 1..=8 {
                let node = owners[(i + k) % owners.len()];
                t.add_reverse(k % levels, (k as u8) % base, node);
                adds += 1;
            }
        }
    });
    out.layer("core.table.add_reverse_ns", ns_per(took, adds));
}

/// Checker probe: the streaming pass per table, then the incremental
/// checker's first pass and its re-check after 1 % of tables mutated.
pub fn consistency(tables: &[&NeighborTable], tr: &mut Tracer, out: &mut Outcome) {
    let space = tables[0].space();
    let (report, took) = tr.time("core.consistency.streaming", || {
        check_consistency_streaming(space, tables.iter().copied())
    });
    out.layer(
        "core.consistency.streaming_ns_per_table",
        ns_per(took, tables.len() as u64),
    );
    out.layer(
        "core.consistency.violations",
        report.violations().len() as f64,
    );

    let mut owned: Vec<NeighborTable> = tables.iter().map(|t| (*t).clone()).collect();
    let mut checker = IncrementalChecker::new(space);
    let (first, took) = tr.time("core.incremental.first_check", || {
        checker.check(owned.iter())
    });
    out.layer("core.incremental.first_check_s", took.as_secs_f64());
    // Touch one table in a hundred: re-setting an entry refreshes the
    // version the checker watches and keeps the table consistent.
    for t in owned.iter_mut().step_by(100) {
        let (level, digit, entry) = t.iter().next().expect("a table stores its owner");
        t.set(level, digit, entry);
    }
    let (second, took) = tr.time("core.incremental.recheck", || checker.check(owned.iter()));
    out.layer("core.incremental.recheck_s", took.as_secs_f64());
    if first.violations() != report.violations() || second.violations() != report.violations() {
        out.broken
            .push("incremental checker disagrees with the streaming pass".into());
    }
}

/// A relay that does no protocol work: each delivery forwards the message,
/// one hop shorter, to another actor — what remains is the simulator's own
/// cost per event.
struct Relay {
    actors: usize,
    timers: bool,
}

impl Actor for Relay {
    type Msg = u32;
    type Timer = u32;

    fn on_message(&mut self, ctx: &mut Context<'_, u32, u32>, _from: usize, hops_left: u32) {
        if self.timers {
            // One timer armed and cancelled per event, as a request that
            // is answered in time costs; none ever fires.
            ctx.set_timer(hops_left, 1_000_000);
            ctx.cancel_timer(hops_left);
        }
        if hops_left > 0 {
            let next = (ctx.me() * 31 + hops_left as usize * 7919 + 1) % self.actors;
            ctx.send(next, hops_left - 1);
        }
    }
}

/// Runs about `events` relay deliveries over `actors` actors and returns
/// the wall per delivery.
fn relay_ns_per_event(actors: usize, events: u64, shards: usize, timers: bool) -> (f64, u64) {
    let chains = (actors / 4).max(1);
    let hops = (events / chains as u64).max(1) as u32;
    let relays = (0..actors).map(|_| Relay { actors, timers }).collect();
    let mut sim = Simulator::new(relays, UniformDelay::new(1_000, 60_000), 1);
    sim.set_shards(shards);
    for c in 0..chains {
        sim.inject_at(0, c, (c * 4) % actors, hops - 1);
    }
    let start = Instant::now();
    let report = sim.run();
    (ns_per(start.elapsed(), report.delivered), report.delivered)
}

/// Simulator probe: as many relay events as the wave delivered, on one
/// shard and on four.
pub fn sim_events(actors: usize, events: u64, tr: &mut Tracer, out: &mut Outcome) {
    for (shards, name, metric) in [
        (1, "sim.relay.shards1", "sim.event_ns.shards1"),
        (4, "sim.relay.shards4", "sim.event_ns.shards4"),
    ] {
        let ((ns, _), _) = tr.time(name, || relay_ns_per_event(actors, events, shards, false));
        out.layer(metric, ns);
    }
}

/// Simulator timer probe: the relay again, arming and cancelling a timer
/// per event; the difference to the plain relay, per timer operation.
pub fn sim_timers(actors: usize, events: u64, tr: &mut Tracer, out: &mut Outcome) {
    let ((plain, _), _) = tr.time("sim.relay.plain", || {
        relay_ns_per_event(actors, events, 1, false)
    });
    let ((timed, _), _) = tr.time("sim.relay.timers", || {
        relay_ns_per_event(actors, events, 1, true)
    });
    // Two timer operations per event.
    out.layer("sim.timer_ns", (timed - plain) / 2.0);
}

/// Timer-wheel probe: arm-and-cancel pairs, then arm-and-fire.
pub fn timer_wheel(tr: &mut Tracer, out: &mut Outcome) {
    const N: u64 = 200_000;
    let mut wheel: TimerWheel<u64> = TimerWheel::new(100, 0);
    let (_, took) = tr.time("net.timer.arm_cancel", || {
        for k in 0..N {
            wheel.arm(k, 100_000 + (k % 1000) * 100);
            wheel.cancel(&k);
        }
    });
    out.layer("net.timer.arm_cancel_ns", ns_per(took, N));

    let mut wheel: TimerWheel<u64> = TimerWheel::new(100, 0);
    for k in 0..N {
        // Deadlines spread over two seconds, as retry timers are.
        wheel.arm(k, (k * 7919) % 2_000_000);
    }
    let mut fired = 0u64;
    let (_, took) = tr.time("net.timer.advance", || {
        let mut now = 0;
        while !wheel.is_empty() {
            now += 1_000;
            fired += wheel.advance(now).len() as u64;
        }
    });
    out.layer("net.timer.advance_ns_per_fire", ns_per(took, fired));
}

/// Transport probe: one datagram of a typical frame size sent and received
/// between two endpoints on loopback, one at a time — the per-datagram
/// system-call floor.
pub fn transport(frame_bytes: usize, tr: &mut Tracer, out: &mut Outcome) {
    const N: u64 = 20_000;
    let pair = UdpEndpoint::bind().and_then(|a| {
        let b = UdpEndpoint::bind()?;
        let to = b.local_addr()?;
        Ok((a, b, to))
    });
    let Ok((a, b, to)) = pair else {
        out.broken.push("transport probe could not bind".into());
        return;
    };
    let payload = vec![0x5a_u8; frame_bytes.max(1)];
    let mut buf = vec![0u8; 65_536];
    let mut received = 0u64;
    let (_, took) = tr.time("net.transport.send_recv", || {
        for _ in 0..N {
            if !matches!(a.try_send(&payload, to), Ok(true)) {
                continue;
            }
            // Loopback delivers before `send` returns; wait only if not.
            for _ in 0..3 {
                match b.try_recv(&mut buf) {
                    Ok(Some(_)) => {
                        received += 1;
                        break;
                    }
                    _ => {
                        let _ = b.wait(WAIT_READ, Duration::from_millis(10));
                    }
                }
            }
        }
    });
    if received < N * 9 / 10 {
        out.broken
            .push(format!("transport probe received {received} of {N}"));
    }
    out.layer("net.transport.send_recv_ns", ns_per(took, received));
}
