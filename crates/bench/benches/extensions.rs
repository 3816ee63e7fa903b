//! Benchmarks of the extension layers: graceful leave, nearest-neighbor
//! table optimization, surrogate-routing object lookups, the failure
//! detector's tick and `Pong`, and the simulator's event queue under the
//! traffic those extensions make (a steady depth of messages; timers armed,
//! re-armed and canceled).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperring_core::{
    build_consistent_tables, optimize_tables, Effects, Event, FailureDetector, JoinEngine, Message,
    NeighborTable, NodeState, ProtocolOptions, SimNetworkBuilder, TimerId,
};
use hyperring_harness::distinct_ids;
use hyperring_id::{IdSpace, NodeId};
use hyperring_object::ObjectStore;
use hyperring_sim::{Actor, Context, Simulator, UniformDelay};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_leave(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, 128, 3);
    let mut g = c.benchmark_group("leave");
    g.sample_size(10);
    g.bench_function("single_graceful_leave_n128", |b| {
        b.iter(|| {
            let mut builder = SimNetworkBuilder::new(space);
            for id in &ids {
                builder.add_member(*id);
            }
            let mut net = builder.build(UniformDelay::new(500, 20_000), 7);
            net.run();
            net.depart(&ids[64]);
            black_box(net.tables_iter().count())
        })
    });
    g.finish();
}

fn bench_optimize(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("optimize");
    g.sample_size(10);
    for n in [128usize, 512] {
        let ids = distinct_ids(space, n, 5);
        let tables = build_consistent_tables(space, &ids);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("two_rounds", n), &n, |b, _| {
            b.iter(|| {
                let mut t = tables.clone();
                let r = optimize_tables(
                    &mut t,
                    |a, b_| {
                        // Cheap synthetic metric.
                        let x = a.digits_lsd()[0] as u64 + 7 * b_.digits_lsd()[0] as u64;
                        1 + (x * 2_654_435_761) % 10_000
                    },
                    2,
                );
                black_box(r.replacements)
            })
        });
    }
    g.finish();
}

fn bench_object_lookup(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, 512, 9);
    let tables = build_consistent_tables(space, &ids);
    let mut store = ObjectStore::over(space, &tables);
    let names: Vec<String> = (0..100).map(|i| format!("obj-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        store.publish(ids[i % ids.len()], name);
    }
    // Made before timing, so each row times what its name says.
    let probes: Vec<NodeId> = (0..1024)
        .map(|i| space.id_from_hash(format!("probe-{i}").as_bytes()))
        .collect();
    let mut g = c.benchmark_group("object");
    g.throughput(Throughput::Elements(1));
    g.bench_function("lookup_n512", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let name = &names[i % names.len()];
            let from = ids[(i * 13) % ids.len()];
            i += 1;
            black_box(store.lookup(from, name))
        })
    });
    g.bench_function("surrogate_root_n512", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let oid = &probes[i % probes.len()];
            let from = ids[i % ids.len()];
            i += 1;
            black_box(store.root_from(from, oid))
        })
    });
    g.finish();
}

/// A level-0 hub: an *in_system* node whose table holds `n` reverse
/// neighbors and nothing else, its detector armed. Nobody is ever
/// declared dead (the threshold is out of reach), so every tick after the
/// first is the steady state: same peers, one `Ping` each.
fn hub(n: usize) -> (JoinEngine, Vec<NodeId>) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, n + 1, 11);
    let mut table = NeighborTable::new(space, ids[0]);
    table.set_self_entries(NodeState::S);
    for peer in &ids[1..] {
        table.add_reverse(0, ids[0].digit(0), *peer);
    }
    let fd = FailureDetector {
        suspicion_threshold: u32::MAX,
        repair: false,
        ..FailureDetector::default()
    };
    let opts = ProtocolOptions::new().with_failure_detector(fd);
    let mut hub = JoinEngine::new_member(space, opts, table);
    let mut out = Effects::new();
    hub.start_failure_detector(&mut out);
    let id = TimerId::FdProbe { owner: ids[0] };
    hub.on_event(Event::TimerFired { id }, &mut out);
    (hub, ids[1..].to_vec())
}

fn bench_failure_detector(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd_tick");
    for n in [16, 256, 4096] {
        let (mut hub, _) = hub(n);
        let id = TimerId::FdProbe { owner: hub.id() };
        let mut out = Effects::new();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                hub.on_event(Event::TimerFired { id }, &mut out);
                black_box(out.drain().count())
            })
        });
    }
    g.finish();

    // A `Pong` from a peer with a probe outstanding. Each peer has one per
    // tick, so the ticks in between are left out of the timing by hand
    // (the stub has no per-iteration set-up).
    let (mut hub, peers) = hub(256);
    let id = TimerId::FdProbe { owner: hub.id() };
    let mut out = Effects::new();
    let rounds = 2048;
    let mut spent = Duration::ZERO;
    for _ in 0..rounds {
        hub.on_event(Event::TimerFired { id }, &mut out);
        out.drain().for_each(drop);
        let start = Instant::now();
        for peer in &peers {
            hub.handle(*peer, Message::Pong, &mut out);
        }
        spent += start.elapsed();
        black_box(out.len());
    }
    let pongs = rounds * peers.len();
    let name = "fd_pong";
    let mean = spent.as_nanos() / pongs as u128;
    println!("bench {name:<60} mean {mean:>9} ns ({pongs} pongs)");
}

/// A protocol-message-sized payload (`Effect` is 112 B).
type Payload = [u64; 14];

/// Forwards every message to the next actor, unchanged; with `timers`,
/// also arms a timer, re-arms it and cancels it, leaving three stale keys
/// in the queue per delivery, as a request answered before its retry does.
struct Relay {
    n: usize,
    timers: bool,
}

impl Actor for Relay {
    type Msg = Payload;
    type Timer = u8;

    fn on_message(&mut self, ctx: &mut Context<'_, Payload, u8>, _from: usize, msg: Payload) {
        ctx.send((ctx.me() + 1) % self.n, msg);
        if self.timers {
            ctx.set_timer(0, 400);
            ctx.set_timer(0, 800);
            ctx.cancel_timer(0);
        }
    }
}

/// `depth` messages circulating among 64 relays, `UniformDelay(1 µs,
/// 1 ms)`, run for one lap so that the heap and the payload store are at
/// their steady size before timing starts.
fn relay(depth: usize, timers: bool) -> Simulator<Relay, UniformDelay> {
    let n = 64;
    let relays = (0..n).map(|_| Relay { n, timers }).collect();
    let mut sim = Simulator::new(relays, UniformDelay::new(1, 1_000), 5);
    for i in 0..depth {
        sim.inject(i % n, (i * 7) % n, [i as u64; 14]);
    }
    sim.run_limited(depth as u64);
    sim
}

fn bench_sim_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_queue");
    g.throughput(Throughput::Elements(1));
    for depth in [1024, 8192, 65536] {
        let mut sim = relay(depth, false);
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| sim.step())
        });
    }
    g.finish();

    let depth = 8192;
    let mut sim = relay(depth, true);
    let mut g = c.benchmark_group("sim_timer_rearm");
    g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
        b.iter(|| sim.step())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_leave,
    bench_optimize,
    bench_object_lookup,
    bench_failure_detector,
    bench_sim_queue
);
criterion_main!(benches);
