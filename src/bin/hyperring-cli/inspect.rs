//! A quick look at the model: the closed-form costs, one simulated join
//! wave, and sample routes.

use std::collections::HashMap;

use hyperring::analysis::{
    expected_filled_entries, expected_join_noti, expected_noti_level, theorem3_bound,
    upper_bound_join_noti,
};
use hyperring::core::{NeighborTable, RouteOutcome};
use hyperring::harness::{distinct_ids, Scenario, Timeline};
use hyperring::id::{IdSpace, NodeId};

use crate::args::Args;

/// `analyze [--b 16] [--d 8] [--n 3096] [--m 1000]`: the closed-form cost
/// model (Theorems 3–5, occupancy).
pub fn analyze(mut args: Args) -> Result<(), String> {
    let b: u16 = args.value("--b", 16)?;
    let d: usize = args.value("--d", 8)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    // Theorem 4 adds a joiner to the n members: one id must stay free.
    let free = space.capacity().map(|c| c.saturating_sub(1));
    let n = args.nodes(3096, free)? as u64;
    let m: u64 = args.value("--m", 1000)?;
    args.finish()?;
    let (b, d) = (u32::from(b), d as u32);
    out!(
        "identifier space: base {b}, {d} digits ({} ids)",
        (b as f64).powi(d as i32)
    );
    out!("network size n = {n}, concurrent joiners m = {m}");
    out!("");
    out!(
        "Theorem 3:  CpRstMsg + JoinWaitMsg per join <= {}",
        theorem3_bound(d as usize)
    );
    out!(
        "Theorem 4:  E[JoinNotiMsg], single join  = {:.3}",
        expected_join_noti(b, d, n)
    );
    out!(
        "Theorem 5:  E[JoinNotiMsg] upper bound   = {:.3}",
        upper_bound_join_noti(b, d, n, m)
    );
    out!(
        "expected notification level              = {:.3}",
        expected_noti_level(b, d, n)
    );
    out!(
        "expected filled table entries            = {:.1} of {}",
        expected_filled_entries(b, d, n),
        b * d
    );
    Ok(())
}

/// `simulate [--b 16] [--d 8] [--n 512] [--m 128] [--seed 7] [--lookups 0]`:
/// `n` members plus `m` concurrent joins, run to quiescence as one
/// [`Timeline`], then an optional keyed lookup storm.
pub fn simulate(mut args: Args) -> Result<(), String> {
    let b: u16 = args.value("--b", 16)?;
    let d: usize = args.value("--d", 8)?;
    let m: usize = args.value("--m", 128)?;
    let seed: u64 = args.value("--seed", 7)?;
    let lookups: usize = args.value("--lookups", 0)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    // The m joiners take ids of their own.
    let free = space.capacity().map(|c| c.saturating_sub(m as u128));
    let n = args.nodes(512, free)?;
    args.finish()?;
    eprintln!("simulating {n} members + {m} concurrent joins (b={b}, d={d}, seed={seed}) …");
    // One wave of joins run to quiescence, then (optionally) a keyed storm
    // over the settled tables.
    let mut tl = Timeline::join_wave(m);
    if lookups > 0 {
        tl = tl.at(u64::MAX).keyed_storm(lookups, 64.min(n), 0.9).done();
    }
    let r = Scenario::new(space)
        .members(n)
        .seed(seed)
        .delay_bounds(1_000, 80_000)
        .reachability()
        .run(tl);
    out!("survivors          : {}", r.survivors);
    out!("virtual time       : {:.3} s", r.finished_at as f64 / 1e6);
    out!("consistency        : {}", r.final_report);
    out!(
        "reachability       : {}/{} pairs unreachable",
        r.unreachable_pairs.unwrap_or(0),
        r.survivors * r.survivors.saturating_sub(1)
    );
    out!(
        "Theorem 5 bound    : {:.3} JoinNotiMsg per join",
        upper_bound_join_noti(b as u32, d as u32, n as u64, m as u64)
    );
    if let Some(s) = r.keyed_storms.first().map(|k| &k.stats) {
        out!(
            "lookup storm       : {} lookups over {} keys, {} lost, {:.2} mean hops (max {}), load imbalance {:.2}",
            s.lookups, s.keys, s.lost, s.mean_hops, s.max_hops, s.load.imbalance
        );
    }
    if !r.consistent {
        return Err("run violated the paper's theorems — this is a bug".into());
    }
    Ok(())
}

/// `route [--b 16] [--d 8] [--n 256] [--pairs 5] [--seed 7]`: sample
/// routes over a consistent network.
pub fn route(mut args: Args) -> Result<(), String> {
    let b: u16 = args.value("--b", 16)?;
    let d: usize = args.value("--d", 8)?;
    let pairs: usize = args.value("--pairs", 5)?;
    let seed: u64 = args.value("--seed", 7)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    let n = args.nodes(256, space.capacity())?;
    args.finish()?;
    let ids = distinct_ids(space, n, seed);
    let tables = hyperring::core::build_consistent_tables(space, &ids);
    // Borrowed view — routing never needs to own the tables.
    let by_id: HashMap<NodeId, &NeighborTable> = tables.iter().map(|t| (t.owner(), t)).collect();
    for k in 0..pairs {
        let s = ids[(k * 17) % n];
        let t = ids[(k * 101 + 31) % n];
        match hyperring::core::route(s, t, |id| by_id.get(id).copied()) {
            RouteOutcome::Delivered { path } => {
                let pretty: Vec<String> = path.iter().map(|p| p.to_string()).collect();
                out!("{}", pretty.join(" -> "));
            }
            dropped => return Err(format!("route failed: {dropped:?}")),
        }
    }
    Ok(())
}
