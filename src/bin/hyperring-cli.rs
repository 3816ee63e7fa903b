//! `hyperring-cli` — run the paper's machinery from the command line.
//!
//! ```console
//! $ hyperring-cli analyze  --b 16 --d 8 --n 3096 --m 1000
//! $ hyperring-cli simulate --b 16 --d 8 --n 512 --m 128 --seed 7 --lookups 2000
//! $ hyperring-cli bootstrap --n 128
//! $ hyperring-cli route    --n 256 --pairs 5 --seed 3
//! ```
//!
//! `simulate` and `bootstrap` are [`Timeline`]s run by the harness's one
//! [`Scenario`] runner — the same engines, options, and report every
//! experiment binary uses — instead of hand-rolled `SimNetworkBuilder`
//! loops.

use std::collections::HashMap;
use std::process::ExitCode;

use hyperring::analysis::{
    expected_filled_entries, expected_join_noti, expected_noti_level, theorem3_bound,
    upper_bound_join_noti,
};
use hyperring::core::{route, NeighborTable, RouteOutcome};
use hyperring::harness::{distinct_ids, Scenario, Timeline};
use hyperring::id::{IdSpace, NodeId};

/// Minimal `--key value` flag parser with typed lookups and defaults.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), val.clone());
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

fn usage() -> &'static str {
    "hyperring-cli — hypercube routing with consistency-preserving joins\n\
     \n\
     USAGE:\n\
       hyperring-cli <command> [--flag value]...\n\
     \n\
     COMMANDS:\n\
       analyze    closed-form cost model (Theorems 3-5, occupancy)\n\
                  flags: --b 16 --d 8 --n 3096 --m 1000\n\
       simulate   run n members + m concurrent joins, report stats\n\
                  flags: --b 16 --d 8 --n 512 --m 128 --seed 7 --lookups 0\n\
       bootstrap  initialize a network from one node (§6.1)\n\
                  flags: --b 16 --d 8 --n 128 --seed 7\n\
       route      sample routes over a consistent network\n\
                  flags: --b 16 --d 8 --n 256 --pairs 5 --seed 7\n\
       help       print this text\n"
}

fn cmd_analyze(f: &Flags) -> Result<(), String> {
    let b: u32 = f.get("b", 16)?;
    let d: u32 = f.get("d", 8)?;
    let n: u64 = f.get("n", 3096)?;
    let m: u64 = f.get("m", 1000)?;
    println!(
        "identifier space: base {b}, {d} digits ({} ids)",
        (b as f64).powi(d as i32)
    );
    println!("network size n = {n}, concurrent joiners m = {m}");
    println!();
    println!(
        "Theorem 3:  CpRstMsg + JoinWaitMsg per join <= {}",
        theorem3_bound(d as usize)
    );
    println!(
        "Theorem 4:  E[JoinNotiMsg], single join  = {:.3}",
        expected_join_noti(b, d, n)
    );
    println!(
        "Theorem 5:  E[JoinNotiMsg] upper bound   = {:.3}",
        upper_bound_join_noti(b, d, n, m)
    );
    println!(
        "expected notification level              = {:.3}",
        expected_noti_level(b, d, n)
    );
    println!(
        "expected filled table entries            = {:.1} of {}",
        expected_filled_entries(b, d, n),
        b * d
    );
    Ok(())
}

fn cmd_simulate(f: &Flags) -> Result<(), String> {
    let b: u16 = f.get("b", 16)?;
    let d: usize = f.get("d", 8)?;
    let n: usize = f.get("n", 512)?;
    let m: usize = f.get("m", 128)?;
    let seed: u64 = f.get("seed", 7)?;
    let lookups: usize = f.get("lookups", 0)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
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
    println!("survivors          : {}", r.survivors);
    println!("virtual time       : {:.3} s", r.finished_at as f64 / 1e6);
    println!("consistency        : {}", r.final_report);
    println!(
        "reachability       : {}/{} pairs unreachable",
        r.unreachable_pairs.unwrap_or(0),
        r.survivors * r.survivors.saturating_sub(1)
    );
    println!(
        "Theorem 5 bound    : {:.3} JoinNotiMsg per join",
        upper_bound_join_noti(b as u32, d as u32, n as u64, m as u64)
    );
    if let Some(s) = r.keyed_storms.first().map(|k| &k.stats) {
        println!(
            "lookup storm       : {} lookups over {} keys, {:.2} mean hops (max {}), load imbalance {:.2}",
            s.lookups, s.keys, s.mean_hops, s.max_hops, s.load.imbalance
        );
    }
    if !r.consistent {
        return Err("run violated the paper's theorems — this is a bug".into());
    }
    Ok(())
}

fn cmd_bootstrap(f: &Flags) -> Result<(), String> {
    let b: u16 = f.get("b", 16)?;
    let d: usize = f.get("d", 8)?;
    let n: usize = f.get("n", 128)?;
    let seed: u64 = f.get("seed", 7)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    eprintln!("bootstrapping {n} nodes from a single seed node (concurrently) …");
    // One member, n-1 concurrent joins at t=0; once everything has
    // quiesced, a keyed storm probes the settled network.
    let tl = Timeline::join_wave(n - 1)
        .at(u64::MAX)
        .keyed_storm(256, 32.min(n), 0.9)
        .done();
    let r = Scenario::new(space)
        .members(1)
        .seed(seed)
        .delay_bounds(500, 50_000)
        .run(tl);
    println!("nodes        : {}", r.survivors);
    println!("virtual time : {:.3} s", r.finished_at as f64 / 1e6);
    println!("consistency  : {}", r.final_report);
    let s = &r.keyed_storms[0].stats;
    println!(
        "lookups      : {} over {} keys, {:.2} mean hops (max {})",
        s.lookups, s.keys, s.mean_hops, s.max_hops
    );
    if !r.consistent {
        return Err("bootstrap ended inconsistent — this is a bug".into());
    }
    Ok(())
}

fn cmd_route(f: &Flags) -> Result<(), String> {
    let b: u16 = f.get("b", 16)?;
    let d: usize = f.get("d", 8)?;
    let n: usize = f.get("n", 256)?;
    let pairs: usize = f.get("pairs", 5)?;
    let seed: u64 = f.get("seed", 7)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    let ids = distinct_ids(space, n, seed);
    let tables = hyperring::core::build_consistent_tables(space, &ids);
    // Borrowed view — routing never needs to own the tables.
    let by_id: HashMap<NodeId, &NeighborTable> = tables.iter().map(|t| (t.owner(), t)).collect();
    for k in 0..pairs {
        let s = ids[(k * 17) % n];
        let t = ids[(k * 101 + 31) % n];
        match route(s, t, |id| by_id.get(id).copied()) {
            RouteOutcome::Delivered { path } => {
                let pretty: Vec<String> = path.iter().map(|p| p.to_string()).collect();
                println!("{}", pretty.join(" -> "));
            }
            dropped => return Err(format!("route failed: {dropped:?}")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(&flags),
        "simulate" => cmd_simulate(&flags),
        "bootstrap" => cmd_bootstrap(&flags),
        "route" => cmd_route(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
