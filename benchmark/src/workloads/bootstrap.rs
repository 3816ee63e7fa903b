//! `bootstrap`: §6.1 network initialization. One seed node grows to `N`
//! nodes in concurrent waves of `WAVE`; every table starts empty, and the
//! simulator's directory and event queue grow with the network.

use std::time::Duration;

use hyperring_core::{
    digest_and_check_streaming, JoinEngine, ProtocolOptions, SimNetwork, SimNetworkBuilder,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::ConstantDelay;

use super::{repeat, Outcome, Params, Plan, Report};
use crate::gen;
use crate::span::Tracer;
use crate::stats::median;

pub const N: usize = 16_384;
pub const WAVE: usize = 2_048;

/// What one bootstrap did besides its wall.
struct Boot {
    net: SimNetwork<ConstantDelay>,
    delivered: u64,
    add_joiners_live: Duration,
    first_wave_nodes_per_s: f64,
    last_wave_nodes_per_s: f64,
    /// A wave ended with a node outside `in_system`.
    stalled: bool,
}

/// The loop of `bootstrap_batched_net`, re-stated over the same public
/// calls so that each wave is a span of its own.
fn bootstrap(space: IdSpace, ids: &[NodeId], wave: usize, shards: usize, tr: &mut Tracer) -> Boot {
    let opts = ProtocolOptions::new();
    let seed_node = ids[0];
    let seed_table = JoinEngine::new_seed(space, opts, seed_node).table().clone();
    let mut b = SimNetworkBuilder::new(space);
    b.options(opts)
        .with_member_tables(vec![seed_table])
        .shards(shards);
    let mut net = b.build(ConstantDelay(1), 0);
    let mut add_joiners_live = Duration::ZERO;
    let mut wave_rates = Vec::new();
    let (mut delivered, mut stalled) = (0, false);
    for chunk in ids[1..].chunks(wave) {
        let wave_span = tr.enter("core.simnet.wave");
        let (_, took) = tr.time("core.simnet.add_joiners_live", || {
            net.add_joiners_live(chunk, seed_node)
        });
        add_joiners_live += took;
        let report = net.run();
        let wave_wall = tr.exit(wave_span);
        delivered = report.delivered;
        stalled |= report.truncated || !net.all_in_system();
        wave_rates.push(chunk.len() as f64 / wave_wall.as_secs_f64());
    }
    Boot {
        net,
        delivered,
        add_joiners_live,
        first_wave_nodes_per_s: wave_rates[0],
        last_wave_nodes_per_s: wave_rates[wave_rates.len() - 1],
        stalled,
    }
}

pub fn run(p: &Params, tr: &mut Tracer) -> Outcome {
    let space = IdSpace::new(16, 8).expect("valid space");
    let (n, wave) = (N / p.shrink(), WAVE / p.shrink());
    let mut out = Outcome::default();
    let (mut ids_s, mut check_s, mut add_s, mut first, mut last) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut delivered, mut bytes, mut digests) = (0, 0, vec![]);
    let mut ids = Vec::new();

    let plan = Plan {
        reps: 3,
        report: Report::Best,
    };
    let reps = repeat("bootstrap.rep", p, tr, plan, |rep| {
        ids = rep.set_up(|tr| {
            let (ids, took) = tr.time("id.distinct_ids", || gen::bootstrap_ids(space, n, p.seed));
            ids_s.push(took.as_secs_f64());
            ids
        });
        let joins = (n - 1) as u64;
        let boot = rep.timed("core.simnet.bootstrap", |tr| {
            (bootstrap(space, &ids, wave, 1, tr), None)
        });
        let sent = boot.net.engines().map(|e| e.stats().total_sent()).sum();
        rep.count(joins, sent);
        let ((digest, check), took) = rep.tr.time("core.consistency.check", || {
            digest_and_check_streaming(space, boot.net.tables_iter())
        });
        digests.push(digest);
        if !rep.warm_up() {
            check_s.push(took.as_secs_f64());
            add_s.push(boot.add_joiners_live.as_secs_f64());
            first.push(boot.first_wave_nodes_per_s);
            last.push(boot.last_wave_nodes_per_s);
            out.attempted += joins;
            if boot.stalled || !check.is_consistent() {
                out.failed += joins;
            }
            delivered = boot.delivered;
            bytes = boot.net.engines().map(|e| e.stats().total_bytes()).sum();
        }
    });
    if digests.iter().any(|d| *d != digests[0]) {
        out.broken
            .push("tables_digest differs between identical repetitions".into());
    }
    reps.finish(&mut out);
    out.layer("core.consistency.check_s", reps.cost(&check_s));
    let boot_s = median(&reps.wall_s);
    out.note(format!(
        "bootstrap: 1 -> {n} nodes in waves of {wave}, {} timed repetitions, median {boot_s:.3} s, \
         {delivered} deliveries, tables_digest {:016x}",
        reps.wall_s.len(),
        digests[0]
    ));

    if p.trace {
        out.layer("id.distinct_ids_s", median(&ids_s));
        out.layer("core.simnet.run_s", boot_s);
        out.layer("core.simnet.delivered", delivered as f64);
        out.layer(
            "core.simnet.ns_per_delivery",
            boot_s * 1e9 / delivered as f64,
        );
        out.layer("core.simnet.bytes_per_join", bytes as f64 / (n - 1) as f64);
        out.layer("core.simnet.add_joiners_live_s", median(&add_s));
        out.layer("core.simnet.wave_nodes_per_s.first", median(&first));
        out.layer("core.simnet.wave_nodes_per_s.last", median(&last));
        out.layer("trace.overhead_pct", reps.trace_overhead_pct());

        // The sharded-queue question: the same bootstrap once on four
        // shards, which must end in the very same tables.
        let (boot, took) = tr.time("core.simnet.bootstrap.shards4", || {
            bootstrap(space, &ids, wave, 4, &mut Tracer::new(false))
        });
        out.layer("core.simnet.bootstrap_s.shards4", took.as_secs_f64());
        let (digest, _) = digest_and_check_streaming(space, boot.net.tables_iter());
        if digest != digests[0] {
            out.broken
                .push("4-shard bootstrap digest differs from the 1-shard digest".into());
        }
    }
    out
}
