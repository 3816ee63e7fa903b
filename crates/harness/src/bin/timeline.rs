//! Steady-state Poisson churn over the timeline DSL: continuous
//! arrivals/departures at a node-lifetime half-life, with per-slot
//! time-to-repair and consistency-recovery CDFs.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin timeline
//! [--n MEMBERS] [--half-lives S1,S2,..] [--seed SEED] [--smoke]
//! [--audit] | --shrink SEED`
//!
//! Sweeps the given half-life settings (virtual seconds; default
//! `20,40,80` — at the default 14 s churn window these turn over roughly
//! 55%, 27%, and 13% of the membership) over an `MEMBERS`-node (default
//! 256) network. Each
//! half-life runs two arms on the identical compiled schedule: the
//! hardened repair path (bounded in-flight queries, exponential re-query
//! pacing, retry backoff with jitter, join gateway fallback) and the
//! eviction-only control. `--smoke` shrinks everything for CI;
//! `--audit` additionally asserts the acceptance property that the
//! repair arm is consistent at every settled checkpoint where the
//! control arm is not. Results go to `results/timeline.csv` and
//! `BENCH_churn.json`; trace digests are byte-stable per seed.
//!
//! `--shrink SEED` instead takes trial `SEED` of the benchmark's `churn`
//! configuration, confirms it ends inconsistent, and prints the 1-minimal
//! schedule ddmin shrinks it to as one table row; nothing is written.

use std::path::Path;

use hyperring_harness::experiments::{run_poisson_churn, PoissonChurnConfig, PoissonChurnResult};
use hyperring_harness::metrics::percentile;
use hyperring_harness::{report, shrink, Table, TrialOpts};

fn pcts(samples: &[u64]) -> (u64, u64, u64) {
    (
        percentile(samples, 50.0).unwrap_or(0),
        percentile(samples, 95.0).unwrap_or(0),
        percentile(samples, 99.0).unwrap_or(0),
    )
}

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1e3)
}

fn json_arm(r: &PoissonChurnResult) -> String {
    let (tc50, tc95, tc99) = pcts(&r.ttr_from_crash_us);
    let (te50, te95, te99) = pcts(&r.ttr_from_eviction_us);
    let (rc50, rc95, rc99) = pcts(&r.recovery_us);
    let checkpoints: Vec<String> = r
        .checkpoints
        .iter()
        .map(|c| {
            format!(
                "{{\"at_us\":{},\"live\":{},\"violations\":{},\"consistent\":{}}}",
                c.at, c.live, c.violations, c.consistent
            )
        })
        .collect();
    format!(
        "{{\"crashed\":{},\"joins\":{},\"crash_capped\":{},\"survivors\":{},\
         \"consistent\":{},\"false_negatives\":{},\"dead_refs\":{},\
         \"evicted\":{},\"repaired\":{},\
         \"ttr_from_crash_us\":{{\"samples\":{},\"p50\":{tc50},\"p95\":{tc95},\"p99\":{tc99}}},\
         \"ttr_from_eviction_us\":{{\"samples\":{},\"p50\":{te50},\"p95\":{te95},\"p99\":{te99}}},\
         \"recovery_us\":{{\"samples\":{},\"p50\":{rc50},\"p95\":{rc95},\"p99\":{rc99}}},\
         \"delivered\":{},\"timers_fired\":{},\"traced\":{},\"trace_digest\":\"{:016x}\",\
         \"checkpoints\":[{}]}}",
        r.crashed,
        r.joins,
        r.crash_capped,
        r.survivors,
        r.consistent,
        r.false_negatives,
        r.dead_refs,
        r.evicted,
        r.repaired,
        r.ttr_from_crash_us.len(),
        r.ttr_from_eviction_us.len(),
        r.recovery_us.len(),
        r.delivered,
        r.timers_fired,
        r.traced,
        r.trace_digest,
        checkpoints.join(","),
    )
}

fn main() {
    let opts = TrialOpts::from_env();
    if opts.has_flag("--shrink") {
        let seed: u64 = opts.named("--shrink", 0);
        let (scenario, compiled) = shrink::churn_trial(seed);
        match shrink::shrink(&scenario, &compiled) {
            Some((c, r)) => println!("{}", shrink::row(seed, &c, &r)),
            None => eprintln!("trial {seed} ends consistent: nothing to shrink"),
        }
        return;
    }
    let smoke = opts.has_flag("--smoke");
    let audit = opts.has_flag("--audit");
    let members: usize = opts.named("--n", if smoke { 32 } else { 256 });
    let seed: u64 = opts.named("--seed", 43);
    let half_lives_s: Vec<f64> = opts
        .named(
            "--half-lives",
            if smoke {
                "8".to_string()
            } else {
                "20,40,80".to_string()
            },
        )
        .split(',')
        .map(|s| s.trim().parse().expect("half-life must be a number"))
        .collect();
    let (churn_until, horizon, checkpoint_every) = if smoke {
        (4_000_000, 12_000_000, 2_000_000)
    } else {
        (14_000_000, 30_000_000, 2_000_000)
    };

    eprintln!(
        "steady-state Poisson churn over {members} members, half-lives {half_lives_s:?} s \
         (churn to t={}s, horizon {}s) …",
        churn_until / 1_000_000,
        horizon / 1_000_000
    );
    let arms: Vec<(f64, PoissonChurnResult, PoissonChurnResult)> =
        opts.map_indexed(half_lives_s.len(), |i| {
            let cfg = PoissonChurnConfig {
                members,
                half_life_us: (half_lives_s[i] * 1e6) as u64,
                churn_until,
                horizon,
                checkpoint_every,
                ..PoissonChurnConfig::default()
            };
            (
                half_lives_s[i],
                run_poisson_churn(&cfg, seed, true),
                run_poisson_churn(&cfg, seed, false),
            )
        });

    let mut t = Table::new([
        "half-life (s)",
        "arm",
        "crashed",
        "joins",
        "survivors",
        "consistent",
        "dead refs",
        "ckpts ok",
        "repaired",
        "TTR p50 (ms)",
        "TTR p95 (ms)",
        "TTR p99 (ms)",
        "recovery p50 (ms)",
        "recovery p99 (ms)",
        "trace digest",
    ]);
    let mut json_rows = Vec::new();
    for (hl, on, off) in &arms {
        if audit {
            assert_eq!(on.dead_refs, 0, "hl={hl}: a crashed node is still stored");
            assert!(
                on.consistent,
                "hl={hl}: repair arm inconsistent at the end ({} violations)",
                on.violations
            );
            assert!(
                !off.consistent && off.false_negatives > 0,
                "hl={hl}: the control arm should be left with holes"
            );
            // The acceptance property: wherever the settled control arm is
            // inconsistent, the repair arm must have recovered. "Settled"
            // skips checkpoints inside the detection window right after a
            // disruption, where neither arm can have noticed yet.
            for (r, c) in on.checkpoints.iter().zip(&off.checkpoints) {
                if c.at >= churn_until + 4_000_000 && !c.consistent {
                    assert!(
                        r.consistent,
                        "hl={hl}: control inconsistent at t={} but repair did not recover",
                        c.at
                    );
                }
            }
        }
        for (name, r) in [("repair", on), ("control", off)] {
            let (p50, p95, p99) = pcts(&r.ttr_from_crash_us);
            let (r50, _, r99) = pcts(&r.recovery_us);
            let ckpts_ok = r.checkpoints.iter().filter(|c| c.consistent).count();
            t.row([
                format!("{hl}"),
                name.to_string(),
                r.crashed.to_string(),
                r.joins.to_string(),
                r.survivors.to_string(),
                r.consistent.to_string(),
                r.dead_refs.to_string(),
                format!("{ckpts_ok}/{}", r.checkpoints.len()),
                r.repaired.to_string(),
                ms(p50),
                ms(p95),
                ms(p99),
                ms(r50),
                ms(r99),
                format!("{:016x}", r.trace_digest),
            ]);
        }
        json_rows.push(format!(
            "{{\"half_life_s\":{hl},\"seed\":{seed},\"repair\":{},\"control\":{}}}",
            json_arm(on),
            json_arm(off)
        ));
    }
    println!(
        "\nPoisson churn: {members} members, arrivals = departures = n·ln2/t½ \
         (b=4, d=6; probe 200 ms, threshold 3; churn window {}s, horizon {}s)",
        churn_until / 1_000_000,
        horizon / 1_000_000
    );
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/timeline.csv"));
    let json = format!(
        "{{\n\"config\":{{\"members\":{members},\"seed\":{seed},\"churn_until_us\":{churn_until},\
         \"horizon_us\":{horizon},\"checkpoint_every_us\":{checkpoint_every},\"smoke\":{smoke}}},\n\
         \"sweeps\":[\n  {}\n]\n}}\n",
        json_rows.join(",\n  ")
    );
    if let Err(e) = std::fs::write("BENCH_churn.json", &json) {
        eprintln!("warning: could not write BENCH_churn.json: {e}");
    } else {
        println!("wrote BENCH_churn.json");
    }
    if audit {
        println!("audit: repair arm recovered at every settled checkpoint the control missed");
    }
}
