//! `join_wave`: the paper's headline case. `JOINERS` nodes start joining
//! at t = 0 into `MEMBERS` oracle-built members; the simulator runs to
//! quiescence and Definition 3.8 is checked over the final tables.

use hyperring_core::{
    build_consistent_tables, digest_and_check_streaming, NeighborTable, SimNetworkBuilder,
};
use hyperring_harness::JoinWorkload;
use hyperring_id::IdSpace;
use hyperring_sim::UniformDelay;

use super::{repeat, Outcome, Params, Plan, Report};
use crate::span::Tracer;
use crate::stats::median;
use crate::{gen, probes};

pub const MEMBERS: usize = 12_288;
pub const JOINERS: usize = 4_096;
/// The oracle costs as much as the wave itself, so only the first
/// repetitions (warm-up included) set up from scratch; the rest rebuild
/// the network from clones of the same tables.
const FULL_SETUPS: usize = 3;

struct Input {
    wave: JoinWorkload,
    tables: Vec<NeighborTable>,
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let space = IdSpace::new(16, 8).expect("valid space");
    let (members, joiners) = (MEMBERS / p.shrink(), JOINERS / p.shrink());
    let mut out = Outcome::default();
    let (mut ids_s, mut oracle_s, mut build_s, mut check_s) = (vec![], vec![], vec![], vec![]);
    let (mut delivered, mut bytes, mut digests) = (0, 0, vec![]);
    let mut input: Option<Input> = None;
    let mut last_net = None;

    let plan = Plan {
        reps: 7,
        report: Report::Best,
    };
    let reps = repeat("join_wave.rep", p, tr, plan, |rep| {
        let full = rep.index < FULL_SETUPS;
        let mut set_up = |tr: &mut Tracer| {
            if full {
                let (wave, took) = tr.time("id.distinct_ids", || {
                    gen::join_wave(space, members, joiners, p.seed)
                });
                ids_s.push(took.as_secs_f64());
                let (tables, took) = tr.time("core.oracle.build", || {
                    build_consistent_tables(space, &wave.members)
                });
                oracle_s.push(took.as_secs_f64());
                input = Some(Input { wave, tables });
            }
            let input = input.as_ref().expect("set up by the warm-up");
            let (net, took) = tr.time("core.simnet.build", || {
                let mut b = SimNetworkBuilder::new(space);
                b.with_member_tables(input.tables.clone());
                for (joiner, gateway) in &input.wave.joiners {
                    b.add_joiner(*joiner, *gateway, 0);
                }
                b.build(UniformDelay::new(1_000, 60_000), gen::sim_seed(p.seed))
            });
            build_s.push(took.as_secs_f64());
            net
        };
        let mut net = if full {
            rep.set_up(set_up)
        } else {
            set_up(rep.tr)
        };

        let report = rep.timed("core.simnet.run", |_| (net.run(), None));
        let sent = net.engines().map(|e| e.stats().total_sent()).sum();
        rep.count(joiners as u64, sent);
        let ((digest, check), took) = rep.tr.time("core.consistency.check", || {
            digest_and_check_streaming(space, net.tables_iter())
        });
        digests.push(digest);
        if !rep.warm_up() {
            check_s.push(took.as_secs_f64());
            out.attempted += joiners as u64;
            if report.truncated || !net.all_in_system() || !check.is_consistent() {
                out.failed += joiners as u64;
            }
            delivered = report.delivered;
            bytes = net.engines().map(|e| e.stats().total_bytes()).sum();
        }
        last_net = Some(net);
    });
    if digests.iter().any(|d| *d != digests[0]) {
        out.broken
            .push("tables_digest differs between identical repetitions".into());
    }
    reps.finish(&mut out);
    out.layer("core.simnet.bytes_per_join", bytes as f64 / joiners as f64);
    out.layer("core.consistency.check_s", reps.cost(&check_s));
    let run_s = median(&reps.wall_s);
    out.note(format!(
        "join_wave: {members} members + {joiners} joiners, {} timed repetitions, run() median \
         {run_s:.3} s, {delivered} deliveries, tables_digest {:016x}",
        reps.wall_s.len(),
        digests[0]
    ));

    if p.trace {
        out.layer("id.distinct_ids_s", median(&ids_s));
        out.layer("core.oracle.build_s", median(&oracle_s));
        out.layer("core.simnet.build_s", median(&build_s));
        out.layer("core.simnet.run_s", run_s);
        out.layer("core.simnet.delivered", delivered as f64);
        out.layer(
            "core.simnet.ns_per_delivery",
            run_s * 1e9 / delivered as f64,
        );
        out.layer("trace.overhead_pct", reps.trace_overhead_pct());

        let input = input.expect("set up by the warm-up");
        let net = last_net.expect("at least one repetition");
        let finals: Vec<&NeighborTable> = net.tables_iter().collect();
        probes::table_ops(&finals, tr, &mut out);
        probes::consistency(&finals, tr, &mut out);
        probes::sim_events(finals.len(), delivered, tr, &mut out);
        let messages =
            probes::engine_replay(space, input.tables, &input.wave.joiners, tr, &mut out);
        probes::wire(space, &messages, tr, &mut out);

        // How much of the wave the two outside probes explain: per
        // delivery, one simulator event and one engine step.
        let explained = delivered as f64
            * (out.per_layer["sim.event_ns.shards1"] + out.per_layer["core.driver.drive_ns"])
            / 1e9;
        out.layer(
            "attribution_gap_pct",
            100.0 * (run_s - explained).abs() / run_s,
        );
    }
    out
}
