//! Churn, every shape of it, through the one timeline runner.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin churn --
//! SHAPE [flags]`, where SHAPE is one of:
//!
//! * `waves [--rounds R]` — alternating waves of concurrent joins (the
//!   paper's protocol) and sequential graceful leaves (this repository's
//!   extension), 32 of each per round over 64 members (b=16, d=8),
//!   consistency checked after every wave, which must also have finished
//!   every join; reports each wave's messages and mean leave-protocol
//!   messages per leaver. Writes `results/churn.csv`.
//! * `crash [--n MEMBERS] [--crash-pct PCT] [--runtime sim|udp]` — each
//!   trial crashes `PCT`% (default 20) of an `MEMBERS`-node (default 64)
//!   consistent network at t = 0.5 s and runs both arms over the same
//!   schedule: repair **on** (must re-converge to Definition-3.8
//!   consistency among survivors) and repair **off** (the control,
//!   expected to be left with false negatives). Writes
//!   `results/crashchurn.csv` and `results/crashchurn.json`. Over `udp`
//!   the crash wave lands once the network is quiet, times are wall
//!   clock, the trace digest is not reproducible, and nothing is written.
//! * `poisson [--n MEMBERS] [--half-lives S1,S2,..] [--seed SEED]
//!   [--smoke] [--audit]` — steady-state Poisson arrivals and crashes at
//!   each node-lifetime half-life (virtual seconds; default `20,40,80`,
//!   which at the 14 s churn window turn over roughly 55%, 27% and 13% of
//!   the default 256 members), the hardened repair path against the
//!   eviction-only control on the identical compiled schedule. `--smoke`
//!   shrinks everything for CI and writes nothing; `--audit` asserts that
//!   the repair arm is consistent at every settled checkpoint where the
//!   control is not. Writes `results/timeline.csv`.
//! * `--shrink SEED` — takes trial `SEED` of the benchmark's `churn`
//!   configuration, confirms it ends inconsistent, and prints the
//!   1-minimal schedule ddmin shrinks it to as one table row; nothing is
//!   written.
//!
//! `--trials N` works as in every binary (`waves` and `crash`); on the
//! simulator every trace digest is byte-stable per seed.

use std::path::Path;

use hyperring_harness::experiments::{
    poisson_timeline, run_wave_churn, wave_stats, CrashChurnConfig, PoissonChurnConfig,
    WaveChurnConfig,
};
use hyperring_harness::metrics::percentile;
use hyperring_harness::{report, shrink, Runtime, Table, TimelineReport, TrialOpts};

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
    let shape: String = opts.positional(0, "waves".to_string());
    let runtime: Runtime = opts.named("--runtime", Runtime::Sim);
    assert!(
        runtime == Runtime::Sim || shape == "crash",
        "the {shape} shape runs on the simulator only, not on --runtime {runtime}"
    );
    match shape.as_str() {
        "waves" => waves(&opts),
        "crash" => crash(&opts, runtime),
        "poisson" => poisson(&opts),
        other => panic!("unknown shape {other:?} (waves | crash | poisson)"),
    }
}

fn waves(opts: &TrialOpts) {
    let cfg = WaveChurnConfig {
        base: 16,
        digits: 8,
        members: 64,
        rounds: opts.named("--rounds", 5),
        joins_per_round: 32,
        leaves_per_round: 32,
    };
    eprintln!(
        "running {} rounds of 64-node churn (b=16, d=8, 32 joins / 32 leaves per round) …",
        cfg.rounds
    );
    let runs = opts.run(2003, |_, seed| run_wave_churn(&cfg, seed));
    for r in &runs {
        assert!(r.consistent, "churn broke consistency: {}", r.final_report);
        for c in &r.checkpoints {
            assert_eq!(
                c.joining, 0,
                "{}: {} joins did not settle",
                c.label, c.joining
            );
            assert!(c.consistent, "{}: churn broke consistency", c.label);
        }
    }
    let mut t = Table::new([
        "wave",
        "kind",
        "population",
        "consistent",
        "messages",
        "mean leave msgs",
    ]);
    for (i, w) in wave_stats(&cfg, &runs[0]).iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            if w.is_join() { "join" } else { "leave" }.to_string(),
            w.checkpoint.live.to_string(),
            w.checkpoint.consistent.to_string(),
            w.messages.to_string(),
            if w.is_join() {
                "-".to_string()
            } else {
                format!("{:.1}", w.leave_cost)
            },
        ]);
    }
    println!("\nChurn: joins (paper protocol) + graceful leaves (extension)");
    println!("{}", t.render());
    if opts.trials > 1 {
        let mut per_trial = Table::new(["trial", "waves", "always consistent", "messages"]);
        for (k, r) in runs.iter().enumerate() {
            per_trial.row([
                k.to_string(),
                r.checkpoints.len().to_string(),
                r.checkpoints.iter().all(|c| c.consistent).to_string(),
                r.delivered.to_string(),
            ]);
        }
        println!("Per-trial summary ({} trials):", runs.len());
        println!("{}", per_trial.render());
    }
    report::write_csv_or_warn(&t, Path::new("results/churn.csv"));
}

fn crash_json(r: &TimelineReport) -> String {
    format!(
        "{{\"crashed\":{},\"survivors\":{},\"violations\":{},\"false_negatives\":{},\
         \"consistent\":{},\"dead_refs\":{},\"delivered\":{},\"timers_fired\":{},\
         \"finished_at_us\":{},\"traced\":{},\"trace_digest\":\"{:016x}\"}}",
        r.crashed,
        r.survivors,
        r.violations,
        r.false_negatives,
        r.consistent,
        r.dead_refs,
        r.delivered,
        r.timers_fired,
        r.finished_at,
        r.traced,
        r.trace_digest,
    )
}

fn crash(opts: &TrialOpts, runtime: Runtime) {
    let members: usize = opts.named("--n", 64);
    let crash_pct: u32 = opts.named("--crash-pct", 20);
    let cfg = CrashChurnConfig {
        members,
        crash_fraction: f64::from(crash_pct) / 100.0,
        ..CrashChurnConfig::default()
    };

    eprintln!(
        "crashing {} of {members} members mid-run ({} trials, repair on + control) …",
        cfg.crashes(),
        opts.trials
    );
    let arm = |seed, repair| {
        let scenario = cfg.scenario(seed, repair).runtime(runtime);
        scenario.run(cfg.timeline())
    };
    let results = opts.run(41, |_, seed| (seed, arm(seed, true), arm(seed, false)));

    let mut t = Table::new([
        "trial",
        "crashed",
        "survivors",
        "repair: consistent",
        "repair: dead refs",
        "repair: trace digest",
        "control: false negatives",
        "control: consistent",
        if runtime == Runtime::Sim {
            "virtual time (s)"
        } else {
            "wall time (s)"
        },
    ]);
    let mut json_rows = Vec::new();
    for (k, (seed, on, off)) in results.iter().enumerate() {
        assert!(
            on.consistent,
            "trial {k}: survivors inconsistent with repair on ({} violations)",
            on.violations
        );
        assert_eq!(on.dead_refs, 0, "trial {k}: a crashed node is still stored");
        t.row([
            k.to_string(),
            on.crashed.to_string(),
            on.survivors.to_string(),
            on.consistent.to_string(),
            on.dead_refs.to_string(),
            format!("{:016x}", on.trace_digest),
            off.false_negatives.to_string(),
            off.consistent.to_string(),
            format!("{:.3}", on.finished_at as f64 / 1e6),
        ]);
        json_rows.push(format!(
            "{{\"trial\":{k},\"seed\":{seed},\"repair\":{},\"control\":{}}}",
            crash_json(on),
            crash_json(off)
        ));
    }
    println!(
        "\ncrash churn: {} of {members} members crash at t=0.5s \
         (b=4, d=6; probe {} ms, threshold {})",
        cfg.crashes(),
        cfg.fd.probe_interval_us / 1_000,
        cfg.fd.suspicion_threshold
    );
    println!("{}", t.render());
    if runtime != Runtime::Sim {
        return; // the recorded results are the simulator's
    }
    report::write_csv_or_warn(&t, Path::new("results/crashchurn.csv"));
    let json = format!("[\n  {}\n]\n", json_rows.join(",\n  "));
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/crashchurn.json", &json))
    {
        eprintln!("warning: could not write results/crashchurn.json: {e}");
    } else {
        println!("wrote results/crashchurn.json");
    }
}

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

fn poisson(opts: &TrialOpts) {
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
    let arms = opts.map_indexed(half_lives_s.len(), |i| {
        let cfg = PoissonChurnConfig {
            members,
            half_life_us: (half_lives_s[i] * 1e6) as u64,
            churn_until,
            horizon,
            checkpoint_every,
            ..PoissonChurnConfig::default()
        };
        let (tl, ..) = poisson_timeline(&cfg, seed);
        let on = cfg.scenario(seed, true).run(tl.clone());
        let off = cfg.scenario(seed, false).run(tl);
        (half_lives_s[i], on, off)
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
    }
    println!(
        "\nPoisson churn: {members} members, arrivals = departures = n·ln2/t½ \
         (b=4, d=6; probe 200 ms, threshold 3; churn window {}s, horizon {}s)",
        churn_until / 1_000_000,
        horizon / 1_000_000
    );
    println!("{}", t.render());
    if !smoke {
        report::write_csv_or_warn(&t, Path::new("results/timeline.csv"));
    }
    if audit {
        println!("audit: repair arm recovered at every settled checkpoint the control missed");
    }
}
