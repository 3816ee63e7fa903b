//! `lookup_storm`: the read path. `NAMES` names are published into an
//! object store over `NODES` oracle-built tables, then `LOOKUPS` lookups
//! are replayed from a compiled (source, Zipf-popular name) schedule and
//! every hit is checked against what was published.

use std::hint::black_box;

use hyperring_core::build_consistent_tables;
use hyperring_id::IdSpace;
use hyperring_object::ObjectStore;

use super::{repeat, Outcome, Params, Plan, Report};
use crate::gen;
use crate::stats::median;

pub const NODES: usize = 4_096;
pub const NAMES: usize = 16_384;
pub const LOOKUPS: usize = 500_000;

pub fn run(p: &Params, tr: &mut crate::span::Tracer) -> Outcome {
    let space = IdSpace::new(16, 8).expect("valid space");
    let (nodes, names, lookups) = (NODES / p.shrink(), NAMES / p.shrink(), LOOKUPS / p.shrink());
    let mut out = Outcome::default();
    let (mut ids_s, mut oracle_s, mut publish_s, mut hash_ns, mut root_ns) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut hops_mean = 0.0;

    let plan = Plan {
        reps: 10,
        report: Report::Best,
    };
    let reps = repeat("lookup_storm.rep", p, tr, plan, |rep| {
        let (input, tables) = rep.set_up(|tr| {
            let (ids, took) = tr.time("id.distinct_ids", || gen::lookup_ids(space, nodes, p.seed));
            ids_s.push(took.as_secs_f64());
            let (tables, took) =
                tr.time("core.oracle.build", || build_consistent_tables(space, &ids));
            oracle_s.push(took.as_secs_f64());
            let (input, _) = tr.time("harness.lookup.compile", || {
                gen::lookup_input(space, ids, names, lookups, p.seed)
            });
            (input, tables)
        });
        let mut store = ObjectStore::over(space, &tables);
        let receipts = rep.set_up(|tr| {
            let (receipts, took) = tr.time("object.publish", || {
                input
                    .names
                    .iter()
                    .zip(&input.homes)
                    .map(|(name, home)| store.publish(*home, name))
                    .collect::<Vec<_>>()
            });
            publish_s.push(took.as_secs_f64());
            receipts
        });

        let (hops, wrong) = rep.timed("object.lookup", |_| {
            let (mut hops, mut wrong) = (0u64, 0u64);
            for &(source, name) in &input.schedule.draws {
                let (source, name) = (source as usize, name as usize);
                match store.lookup(input.schedule.sources[source], &input.names[name]) {
                    Some(hit)
                        if hit.root == receipts[name].root
                            && hit.homes.contains(&input.homes[name]) =>
                    {
                        hops += hit.hops as u64;
                    }
                    _ => wrong += 1,
                }
            }
            ((hops, wrong), None)
        });
        rep.count(lookups as u64, hops);
        if !rep.warm_up() {
            out.attempted += lookups as u64;
            out.failed += wrong;
            hops_mean = hops as f64 / lookups as f64;
        }

        if p.trace && !rep.warm_up() {
            // The two steps inside a lookup, each over the same schedule.
            let draws = &input.schedule.draws[..lookups.min(100_000)];
            let (_, took) = rep.tr.time("id.hash", || {
                for &(_, name) in draws {
                    black_box(space.id_from_hash(input.names[name as usize].as_bytes()));
                }
            });
            hash_ns.push(took.as_nanos() as f64 / draws.len() as f64);
            let (_, took) = rep.tr.time("object.root_from", || {
                for &(source, name) in draws {
                    black_box(store.root_from(
                        input.schedule.sources[source as usize],
                        &input.schedule.keys[name as usize],
                    ));
                }
            });
            root_ns.push(took.as_nanos() as f64 / draws.len() as f64);
        }
    });
    reps.finish(&mut out);
    let wall = median(&reps.wall_s);
    out.note(format!(
        "lookup_storm: {lookups} lookups of {names} names over {nodes} nodes, {} timed \
         repetitions, median {wall:.3} s, {hops_mean:.3} hops per lookup",
        reps.wall_s.len(),
    ));

    if p.trace {
        out.layer("id.distinct_ids_s", median(&ids_s));
        out.layer("core.oracle.build_s", median(&oracle_s));
        out.layer("object.publish_ns", median(&publish_s) * 1e9 / names as f64);
        out.layer("object.lookup_ns", wall * 1e9 / lookups as f64);
        out.layer("object.root_from_ns", median(&root_ns));
        out.layer("id.hash_ns", median(&hash_ns));
        out.layer("trace.overhead_pct", reps.trace_overhead_pct());
    }
    out
}
