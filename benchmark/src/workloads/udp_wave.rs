//! `udp_wave`: the join wave over real loopback sockets. The only
//! workload in which the wire codec, the transport, the timer wheel and
//! the poll loop do any work; the simulator workloads bypass all four.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hyperring_core::{
    build_consistent_tables, check_consistency, NeighborTable, ProtocolEvent, ProtocolOptions,
    RetryPolicy, SimNetworkBuilder, Status, TraceRecord, TraceSink,
};
use hyperring_harness::JoinWorkload;
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::{UdpConfig, UdpNetwork, UdpRunStats};
use hyperring_sim::ConstantDelay;

use super::{repeat, Outcome, Params, Plan, Report};
use crate::span::Tracer;
use crate::stats::{median, Latency};
use crate::{gen, probes};

pub const MEMBERS: usize = 768;
pub const JOINERS: usize = 256;

/// The netperf bench's policy: the retry budget that rides out kernel
/// buffer overflow, the only loss on loopback.
fn options() -> ProtocolOptions {
    ProtocolOptions::new().with_retry(RetryPolicy {
        timeout_us: 100_000,
        max_retries: 20,
        noti_repeats: 6,
        ..RetryPolicy::default()
    })
}

fn network(space: IdSpace, tables: Vec<NeighborTable>) -> UdpNetwork {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    UdpNetwork::new(space, options(), tables).with_config(UdpConfig {
        loop_threads: cores.min(2),
        settle: Duration::from_millis(100),
        // A wave takes about a second; one that has not settled in twenty
        // never will, and is counted as failed.
        quiesce_timeout: Duration::from_secs(20),
        ..UdpConfig::default()
    })
}

/// Keeps, per node, when its join started and when it entered the system
/// (wall µs since the run began).
#[derive(Default)]
struct JoinTimes {
    started: HashMap<NodeId, u64>,
    joined_us: Vec<u64>,
}

struct JoinTimesSink(Arc<Mutex<JoinTimes>>);

impl TraceSink for JoinTimesSink {
    fn record(&mut self, rec: &TraceRecord) {
        let mut times = self.0.lock().expect("sink mutex is never poisoned");
        match rec.event {
            ProtocolEvent::JoinStarted { .. } => {
                times.started.insert(rec.node, rec.at);
            }
            ProtocolEvent::StatusChanged {
                to: Status::InSystem,
                ..
            } => {
                if let Some(t0) = times.started.get(&rec.node).copied() {
                    times.joined_us.push(rec.at.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let space = IdSpace::new(16, 4).expect("valid space");
    let (members, joiners) = (MEMBERS / p.shrink(), JOINERS / p.shrink());
    let mut out = Outcome::default();
    let (mut ids_s, mut oracle_s, mut check_s) = (vec![], vec![], vec![]);
    let mut stats: Vec<UdpRunStats> = vec![];
    let mut last_input: Option<(JoinWorkload, Vec<NeighborTable>)> = None;

    let plan = Plan {
        reps: 8,
        report: Report::Best,
    };
    let reps = repeat("udp_wave.rep", p, tr, plan, |rep| {
        let (wave, tables) = rep.set_up(|tr| {
            let (wave, took) = tr.time("id.distinct_ids", || {
                gen::join_wave(space, members, joiners, p.seed)
            });
            ids_s.push(took.as_secs_f64());
            let (tables, took) = tr.time("core.oracle.build", || {
                build_consistent_tables(space, &wave.members)
            });
            oracle_s.push(took.as_secs_f64());
            (wave, tables)
        });
        let net = network(space, tables.clone());
        let result = rep.timed("net.udp.run_joins", |_| {
            let result = net.run_joins(&wave.joiners);
            // A wave that errs has no wall of its own; the section's (the
            // timeout, typically) stands in.
            let wall = result.as_ref().ok().map(|(_, stats)| stats.wall);
            (result, wall)
        });
        let sent = result.as_ref().map_or(0, |(_, stats)| stats.datagrams_sent);
        rep.count(joiners as u64, sent);
        let (ok, took) = rep.tr.time("core.consistency.check", || match &result {
            Ok((tables, _)) => {
                tables.len() == members + joiners
                    && check_consistency(space, tables).is_consistent()
            }
            Err(_) => false,
        });
        if !rep.warm_up() {
            check_s.push(took.as_secs_f64());
            out.attempted += joiners as u64;
            if !ok {
                out.failed += joiners as u64;
            }
            match result {
                Ok((_, s)) => stats.push(s),
                Err(e) => out.note(format!("udp_wave: a wave failed: {e}")),
            }
        }
        last_input = Some((wave, tables));
    });
    reps.finish(&mut out);
    let sum = |f: fn(&UdpRunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let waves = stats.len().max(1) as f64;
    out.layer(
        "net.udp.bytes_per_join",
        sum(|s| s.bytes_sent) / waves / joiners as f64,
    );
    out.note(format!(
        "udp_wave: {members} members + {joiners} joiners on loopback, {} timed waves, wall median \
         {:.3} s, {:.0} datagrams per wave",
        reps.wall_s.len(),
        median(&reps.wall_s),
        sum(|s| s.datagrams_sent) / waves,
    ));

    if p.trace {
        let sent = sum(|s| s.datagrams_sent);
        out.layer("id.distinct_ids_s", median(&ids_s));
        out.layer("core.oracle.build_s", median(&oracle_s));
        out.layer("core.consistency.check_s", median(&check_s));
        out.layer("net.udp.wave_s", median(&reps.wall_s));
        out.layer("net.udp.datagrams_sent", sent / waves);
        out.layer(
            "net.udp.datagrams_received",
            sum(|s| s.datagrams_received) / waves,
        );
        // Sent but never read: dropped by a full kernel buffer.
        out.layer(
            "net.udp.kernel_drops",
            (sent - sum(|s| s.datagrams_received)).max(0.0) / waves,
        );
        out.layer(
            "net.udp.backpressure_drops",
            sum(|s| s.backpressure_drops) / waves,
        );
        out.layer("net.udp.timers_fired", sum(|s| s.timers_fired) / waves);
        out.layer("trace.overhead_pct", reps.trace_overhead_pct());

        let (wave, tables) = last_input.expect("at least one repetition");
        // What the same wave needs when nothing is lost and nothing is
        // repeated blindly: its message count in the simulator.
        let (needed, _) = tr.time("core.simnet.lossless_wave", || {
            let mut b = SimNetworkBuilder::new(space);
            b.with_member_tables(tables.clone());
            for (joiner, gateway) in &wave.joiners {
                b.add_joiner(*joiner, *gateway, 0);
            }
            let mut net = b.build(ConstantDelay(1_000), gen::sim_seed(p.seed));
            net.run();
            net.engines().map(|e| e.stats().total_sent()).sum::<u64>()
        });
        out.layer(
            "net.udp.useful_share",
            needed as f64 * waves / sent.max(1.0),
        );

        // One more wave with a trace sink, for per-join latency; its wall
        // is not part of any end-to-end metric.
        let times = Arc::new(Mutex::new(JoinTimes::default()));
        let traced = network(space, tables).with_trace(Box::new(JoinTimesSink(times.clone())));
        let (result, _) = tr.time("net.udp.run_joins.traced", || {
            traced.run_joins(&wave.joiners)
        });
        if let Err(e) = result {
            out.note(format!("udp_wave: the latency wave failed: {e}"));
        }
        let joined = std::mem::take(&mut times.lock().expect("never poisoned").joined_us);
        let latency = Latency::of_us(&joined);
        out.latency_layers("net.udp.join", &latency);
        out.note(format!("udp_wave: join latency {latency}"));

        probes::timer_wheel(tr, &mut out);
        let frame = (sum(|s| s.bytes_sent) / sent.max(1.0)) as usize;
        probes::transport(frame, tr, &mut out);
    }
    out
}
