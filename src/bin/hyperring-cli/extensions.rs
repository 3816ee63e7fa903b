//! Experiments beyond the paper's evaluation: lossy networks, routing
//! stretch, lookup storms and large-n scaling.

use std::path::{Path, PathBuf};

use hyperring::harness::experiments::{
    run_faults, run_lookup_storm, run_scale, run_stretch, FaultsConfig, LookupStormConfig,
    LookupStormResult, ScaleConfig,
};
use hyperring::harness::lookup::LookupStats;
use hyperring::harness::workload::fan_out;
use hyperring::harness::{report, run_trials, Table};

use crate::args::{list, Args};

/// `faultsim [joiners] [drop_pct] [dup_pct] [--trials N] [--trace PATH]`:
/// each trial runs `joiners` (default 48) concurrent joins into a
/// 16-member network while every message is dropped with probability
/// `drop_pct`% (default 10) and duplicated with probability `dup_pct`%
/// (default 2). The rows show how many losses the retry timers repaired;
/// every trial must end consistent. `--trace` writes trial 0's trace.
pub fn faultsim(mut args: Args) -> Result<(), String> {
    let joiners: usize = args.positional(0, 48)?;
    let drop_pct: u32 = args.positional(1, 10)?;
    let dup_pct: u32 = args.positional(2, 2)?;
    let trials = args.trials()?;
    let trace: Option<PathBuf> = args.get("--trace")?;
    args.finish()?;
    let cfg = FaultsConfig {
        joiners,
        drop_p: f64::from(drop_pct) / 100.0,
        dup_p: f64::from(dup_pct) / 100.0,
        ..FaultsConfig::default()
    };

    eprintln!(
        "joining {joiners} nodes through {}% drop / {}% duplication …",
        drop_pct, dup_pct
    );
    let results = run_trials(trials, 23, |k, seed| {
        let path = if k == 0 { trace.as_deref() } else { None };
        run_faults(&cfg, seed, path)
    });

    let mut t = Table::new([
        "trial",
        "delivered",
        "dropped",
        "duplicated",
        "timer fires",
        "all in system",
        "consistent",
        "virtual time (s)",
    ]);
    for (k, r) in results.iter().enumerate() {
        assert!(r.all_in_system, "trial {k}: a joiner stalled");
        assert!(r.consistent, "trial {k}: tables inconsistent");
        t.row([
            k.to_string(),
            r.delivered.to_string(),
            r.dropped.to_string(),
            r.duplicated.to_string(),
            r.timers_fired.to_string(),
            r.all_in_system.to_string(),
            r.consistent.to_string(),
            format!("{:.3}", r.finished_at as f64 / 1e6),
        ]);
    }
    println!(
        "\nfault injection: 16 members + {joiners} concurrent joiners, \
         drop {drop_pct}%, duplicate {dup_pct}% (b=4, d=6)"
    );
    println!("{}", t.render());
    if let Some(path) = &trace {
        println!(
            "trial 0 trace: {} ({} events)",
            path.display(),
            results[0].traced
        );
    }
    report::write_csv_or_warn(&t, Path::new("results/faultsim.csv"));
    Ok(())
}

/// `stretch [n] [--trials N]`: routing stretch (the P2 property of §1)
/// over `n` nodes (default 512) before and after nearest-neighbor table
/// optimization (the paper's problem 3). Each trial draws its own
/// topology and ids and prints its own table; trial 0's is written.
pub fn stretch(mut args: Args) -> Result<(), String> {
    let n: usize = args.positional(0, 512)?;
    let trials = args.trials()?;
    args.finish()?;
    eprintln!("measuring stretch over {n} nodes on a transit-stub topology …");
    let runs = run_trials(trials, 2003, |_k, seed| {
        run_stretch(16, 8, n, 2_000, &[1, 2, 4], seed)
    });

    for (k, r) in runs.iter().enumerate() {
        let mut t = Table::new(["tables", "mean stretch", "median", "p95", "mean hops"]);
        t.row([
            "oracle (unoptimized)".to_string(),
            format!("{:.3}", r.before.mean),
            format!("{:.3}", r.before.median),
            format!("{:.3}", r.before.p95),
            format!("{:.2}", r.before.mean_hops),
        ]);
        for (rounds, s) in &r.after {
            t.row([
                format!("optimized, {rounds} round(s)"),
                format!("{:.3}", s.mean),
                format!("{:.3}", s.median),
                format!("{:.3}", s.p95),
                format!("{:.2}", s.mean_hops),
            ]);
        }
        if trials > 1 {
            println!("\nRouting stretch, {n} nodes, 2000 sampled routes (b=16, d=8), trial {k}");
        } else {
            println!("\nRouting stretch, {n} nodes, 2000 sampled routes (b=16, d=8)");
        }
        println!(
            "(entry replacements at deepest optimization: {})",
            r.replacements
        );
        println!("{}", t.render());
        if k == 0 {
            report::write_csv_or_warn(&t, Path::new("results/stretch.csv"));
        }
    }
    Ok(())
}

fn rows_for(t: &mut Table, n: usize, arm: &str, dist: &str, s: &LookupStats, promoted: usize) {
    let st = s.stretch.expect("topology runs always have an oracle");
    t.row([
        n.to_string(),
        arm.to_string(),
        dist.to_string(),
        s.lookups.to_string(),
        format!("{:.4}", st.mean),
        format!("{:.4}", st.median),
        format!("{:.4}", st.p95),
        format!("{:.3}", s.mean_hops),
        s.max_hops.to_string(),
        s.load.max.to_string(),
        format!("{:.2}", s.load.mean),
        format!("{:.3}", s.load.imbalance),
        promoted.to_string(),
    ]);
}

fn audit(r: &LookupStormResult) {
    for dist in ["uniform", "zipf"] {
        let (b, a) = match dist {
            "uniform" => (&r.baseline.uniform, &r.adaptive.uniform),
            _ => (&r.baseline.zipf, &r.adaptive.zipf),
        };
        let (bs, as_) = (b.stretch.unwrap(), a.stretch.unwrap());
        assert!(
            as_.mean < bs.mean,
            "audit: adaptive {dist} stretch {:.4} !< baseline {:.4} at n={}",
            as_.mean,
            bs.mean,
            r.n
        );
        assert_eq!(
            b.lookups, a.lookups,
            "audit: arms routed different schedule sizes"
        );
    }
    assert!(r.adaptive.promoted > 0, "audit: promotion never fired");
}

/// `lookup [--sizes 256,1024] [--lookups N] [--keys K] [--zipf A]
/// [--sample S] [--min-traffic T] [--seed SEED] [--paper-topology]
/// [--smoke] [--audit]`: heavy-traffic lookup storms, paper-faithful
/// against adaptive proximity-aware neighbor selection over identical
/// compiled schedules (the paper's P2 property under load).
///
/// Per overlay size, both arms replay the same uniform and Zipf storm
/// schedules; one row per `(n, arm, distribution)`. `--smoke` shrinks
/// everything for CI and writes nothing; `--audit` asserts that the
/// adaptive arm strictly reduces mean stretch under both distributions
/// and that demand promotion fired.
pub fn lookup(mut args: Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let do_audit = args.switch("--audit");
    let sizes: Vec<usize> = match args.get::<String>("--sizes")? {
        Some(v) => list("--sizes", &v)?,
        None if smoke => vec![64],
        None => vec![256, 1024],
    };
    let lookups: usize = args.value("--lookups", if smoke { 1_500 } else { 20_000 })?;
    let keys: usize = args.value("--keys", if smoke { 32 } else { 256 })?;
    let zipf: f64 = args.value("--zipf", 0.9)?;
    let sample: usize = args.value("--sample", 3)?;
    let min_traffic: u64 = args.value("--min-traffic", 4)?;
    let seed: u64 = args.value("--seed", 7)?;
    let paper_topology = args.switch("--paper-topology");
    args.finish()?;

    eprintln!(
        "lookup storms over n ∈ {sizes:?} ({lookups} lookups × 2 distributions × 2 arms per n) …"
    );
    let results: Vec<LookupStormResult> = fan_out(sizes.len(), |i| {
        run_lookup_storm(&LookupStormConfig {
            b: 16,
            d: if smoke { 6 } else { 8 },
            n: sizes[i],
            keys,
            lookups,
            zipf_exponent: zipf,
            paper_topology,
            promote_min_traffic: min_traffic,
            proximity_sample: sample,
            seed,
        })
    });

    let mut t = Table::new([
        "n",
        "arm",
        "distribution",
        "lookups",
        "mean_stretch",
        "median_stretch",
        "p95_stretch",
        "mean_hops",
        "max_hops",
        "load_max",
        "load_mean",
        "load_imbalance",
        "promoted",
    ]);
    for r in &results {
        rows_for(&mut t, r.n, "baseline", "uniform", &r.baseline.uniform, 0);
        rows_for(&mut t, r.n, "baseline", "zipf", &r.baseline.zipf, 0);
        rows_for(
            &mut t,
            r.n,
            "adaptive",
            "uniform",
            &r.adaptive.uniform,
            r.adaptive.promoted,
        );
        rows_for(
            &mut t,
            r.n,
            "adaptive",
            "zipf",
            &r.adaptive.zipf,
            r.adaptive.promoted,
        );
    }
    println!(
        "\nLookup storms, identical schedules per n (zipf α={zipf}, {keys} keys, seed {seed})"
    );
    println!("{}", t.render());
    for r in &results {
        let b = r.baseline.zipf.stretch.unwrap().mean;
        let a = r.adaptive.zipf.stretch.unwrap().mean;
        println!(
            "n={:>5}  zipf mean stretch {:.4} -> {:.4}  ({:+.1}%)  promotions {}",
            r.n,
            b,
            a,
            (a / b - 1.0) * 100.0,
            r.adaptive.promoted
        );
    }
    if !smoke {
        report::write_csv_or_warn(&t, Path::new("results/lookup.csv"));
    }

    if do_audit {
        for r in &results {
            audit(r);
        }
        eprintln!("audit: adaptive beat baseline stretch on every size; schedules identical");
    }
    Ok(())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `scale [n[,n…]] [--batch B] [--sample-pairs K] [--rss-budget-mib M]
/// [--check-rss-budget-mib M] [--smoke]`: large-n scaling of the
/// arena-backed simulation core — batched concurrent bootstrap throughput,
/// phase-attributed peak RSS, Definition-3.8 verification and sampled
/// reachability.
///
/// * `n` — total nodes, optionally a comma-separated sweep (default 4096;
///   `--smoke` forces 512);
/// * `--batch B` — joiners per concurrent wave (default 256);
/// * `--sample-pairs K` — seeded routing pairs for the sampled Lemma-3.1
///   reachability check (default 256; 0 disables);
/// * `--rss-budget-mib M` — fail if any row's bootstrap-phase peak RSS
///   exceeds `M` MiB (the CI regression guard);
/// * `--check-rss-budget-mib M` — fail if any row's *check-phase*
///   peak-RSS delta exceeds `M` MiB; the checker borrows the tables in
///   place, so a tight pin catches any check that copies them;
/// * `--smoke` — small fast configuration for CI; writes nothing.
pub fn scale(mut args: Args) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let sizes: Vec<usize> = if smoke {
        vec![512]
    } else {
        list("n", &args.positional(0, "4096".to_string())?)?
    };
    let batch: usize = args.value("--batch", if smoke { 64 } else { 256 })?;
    let sample_pairs: usize = args.value("--sample-pairs", 256)?;
    let rss_budget_mib: u64 = args.value("--rss-budget-mib", 0)?;
    let check_rss_budget_mib: u64 = args.value("--check-rss-budget-mib", 0)?;
    args.finish()?;

    let mut t = Table::new([
        "nodes",
        "batch",
        "wall (s)",
        "nodes/sec",
        "peak RSS (MiB)",
        "check (s)",
        "check RSS (MiB)",
        "unreach",
        "cores",
        "digest",
        "consistent",
    ]);
    for &n in &sizes {
        eprintln!("bootstrapping {n} nodes, waves of {batch} …");
        let mut cfg = ScaleConfig::new(n, batch);
        cfg.sample_pairs = sample_pairs;
        let r = run_scale(&cfg);
        assert!(r.consistent, "bootstrap inconsistent at n={n}");
        assert_eq!(
            r.unreachable_sampled, 0,
            "bootstrap failed sampled reachability at n={n}"
        );
        if rss_budget_mib > 0 {
            assert!(
                r.peak_rss_bytes <= rss_budget_mib.saturating_mul(1 << 20),
                "peak RSS {:.1} MiB exceeds budget {rss_budget_mib} MiB at n={n}",
                mib(r.peak_rss_bytes)
            );
        }
        if check_rss_budget_mib > 0 {
            assert!(
                r.check_rss_delta_bytes <= check_rss_budget_mib.saturating_mul(1 << 20),
                "check-phase RSS delta {:.2} MiB exceeds budget \
                 {check_rss_budget_mib} MiB at n={n}",
                mib(r.check_rss_delta_bytes)
            );
        }
        t.row([
            r.nodes.to_string(),
            batch.to_string(),
            format!("{:.2}", r.wall_secs),
            format!("{:.0}", r.nodes_per_sec),
            format!("{:.1}", mib(r.peak_rss_bytes)),
            format!("{:.2}", r.check_wall_secs),
            format!("{:.2}", mib(r.check_rss_delta_bytes)),
            if r.sampled_pairs == 0 {
                "-".to_string()
            } else {
                format!("{}/{}", r.unreachable_sampled, r.sampled_pairs)
            },
            r.cores.to_string(),
            format!("0x{:016x}", r.digest),
            r.consistent.to_string(),
        ]);
    }

    println!("\nscaling: batched concurrent bootstrap (b=16, d=8)");
    println!("{}", t.render());
    if !smoke {
        report::write_csv_or_warn(&t, Path::new("results/scale.csv"));
    }
    Ok(())
}
