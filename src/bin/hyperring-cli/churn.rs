//! Churn, every shape of it, through the one timeline runner.

use hyperring::harness::experiments::{
    poisson_timeline, wave_stats, CrashChurnConfig, PoissonChurnConfig, WaveChurnConfig,
};
use hyperring::harness::metrics::percentile;
use hyperring::harness::workload::fan_out;
use hyperring::harness::{run_trials, shrink, Runtime, Table, TimelineReport};

use crate::args::{list, Args};

/// `churn SHAPE [flags]`, where SHAPE is one of:
///
/// * `waves [--rounds R] [--trials N]` (the default) — alternating waves
///   of concurrent joins (the paper's protocol) and sequential graceful
///   leaves (this repository's extension), 32 of each per round over 64
///   members (b=16, d=8), consistency checked after every wave, which
///   must also have finished every join. Writes `results/churn.csv`.
/// * `crash [--n MEMBERS] [--crash-pct PCT] [--trials N]` — each trial
///   crashes `PCT`% (default 20) of a `MEMBERS`-node (default 64)
///   consistent network at t = 0.5 s and runs both arms over the same
///   schedule: repair **on** (must re-converge to Definition-3.8
///   consistency among survivors, with no crashed node still stored) and
///   repair **off** (the control, expected to be left with false
///   negatives). Every trial's row is printed before a failing one is an
///   error. Writes `results/crashchurn.csv` and
///   `results/crashchurn.json`.
/// * `poisson [--n MEMBERS] [--half-lives S1,S2,..] [--seed SEED]
///   [--smoke] [--audit]` — steady-state Poisson arrivals and crashes at
///   each node-lifetime half-life (virtual seconds; default `20,40,80`,
///   which at the 14 s churn window turn over roughly 55%, 27% and 13% of
///   the default 256 members), the hardened repair path against the
///   eviction-only control on the identical compiled schedule. `--smoke`
///   shrinks everything for CI and writes nothing; `--audit` asserts that
///   the repair arm is consistent at every settled checkpoint where the
///   control is not. Writes `results/timeline.csv`.
/// * `--shrink SEED` — takes trial `SEED` of the benchmark's `churn`
///   configuration, confirms it ends inconsistent, and prints the
///   1-minimal schedule ddmin shrinks it to as one table row; nothing is
///   written.
///
/// Every shape takes `--runtime sim|udp` (default `sim`). On the
/// simulator every trace digest is byte-stable per seed. Over `udp` each
/// event lands at its time on a run clock that stops while a checkpoint
/// looks at the tables, the run ends at the horizon as on the simulator
/// (earlier at quiescence, which a run with a failure detector never
/// reaches), times are that clock's, and nothing is written.
pub fn churn(mut args: Args) -> Result<(), String> {
    if let Some(seed) = args.get::<u64>("--shrink")? {
        args.finish()?;
        let (scenario, compiled) = shrink::churn_trial(seed);
        match shrink::shrink(&scenario, &compiled) {
            Some((c, r)) => out!("{}", shrink::row(seed, &c, &r)),
            None => eprintln!("trial {seed} ends consistent: nothing to shrink"),
        }
        return Ok(());
    }
    let shape: String = args.positional(0, "waves".to_string())?;
    let runtime: Runtime = args.value("--runtime", Runtime::Sim)?;
    match shape.as_str() {
        "waves" => waves(args, runtime),
        "crash" => crash(args, runtime),
        "poisson" => poisson(args, runtime),
        other => Err(format!("unknown shape {other:?} (waves | crash | poisson)")),
    }
}

fn waves(mut args: Args, runtime: Runtime) -> Result<(), String> {
    let cfg = WaveChurnConfig {
        base: 16,
        digits: 8,
        members: 64,
        rounds: args.value("--rounds", 5)?,
        joins_per_round: 32,
        leaves_per_round: 32,
    };
    let trials = args.trials()?;
    args.finish()?;
    eprintln!(
        "running {} rounds of 64-node churn (b=16, d=8, 32 joins / 32 leaves per round) …",
        cfg.rounds
    );
    let runs = run_trials(trials, 2003, |_, seed| {
        cfg.scenario(seed).runtime(runtime).run(cfg.timeline())
    });
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
    out!("\nChurn: joins (paper protocol) + graceful leaves (extension)");
    out!("{}", t.render());
    if trials > 1 {
        let mut per_trial = Table::new(["trial", "waves", "always consistent", "messages"]);
        for (k, r) in runs.iter().enumerate() {
            per_trial.row([
                k.to_string(),
                r.checkpoints.len().to_string(),
                r.checkpoints.iter().all(|c| c.consistent).to_string(),
                r.delivered.to_string(),
            ]);
        }
        out!("Per-trial summary ({} trials):", runs.len());
        out!("{}", per_trial.render());
    }
    if runtime == Runtime::Sim {
        crate::write_csv(&t, "results/churn.csv");
    }
    Ok(())
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

fn crash(mut args: Args, runtime: Runtime) -> Result<(), String> {
    let members: usize = args.value("--n", 64)?;
    let crash_pct: u32 = args.value("--crash-pct", 20)?;
    let trials = args.trials()?;
    args.finish()?;
    let cfg = CrashChurnConfig {
        members,
        crash_fraction: f64::from(crash_pct) / 100.0,
        ..CrashChurnConfig::default()
    };

    eprintln!(
        "crashing {} of {members} members mid-run ({trials} trials, repair on + control) …",
        cfg.crashes(),
    );
    let arm = |seed, repair| {
        let scenario = cfg.scenario(seed, repair).runtime(runtime);
        scenario.run(cfg.timeline())
    };
    let results = run_trials(trials, 41, |_, seed| {
        (seed, arm(seed, true), arm(seed, false))
    });

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
    let mut failed = Vec::new();
    for (k, (seed, on, off)) in results.iter().enumerate() {
        if !on.consistent || on.dead_refs > 0 {
            failed.push(format!(
                "trial {k} ({} violations, {} dead refs)",
                on.violations, on.dead_refs
            ));
        }
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
    out!(
        "\ncrash churn: {} of {members} members crash at t=0.5s \
         (b=4, d=6; probe {} ms, threshold {})",
        cfg.crashes(),
        cfg.fd.probe_interval_us / 1_000,
        cfg.fd.suspicion_threshold
    );
    out!("{}", t.render());
    if !failed.is_empty() {
        return Err(format!(
            "the repair arm did not recover: {}",
            failed.join(", ")
        ));
    }
    if runtime != Runtime::Sim {
        return Ok(()); // the recorded results are the simulator's
    }
    crate::write_csv(&t, "results/crashchurn.csv");
    let json = format!("[\n  {}\n]\n", json_rows.join(",\n  "));
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/crashchurn.json", &json))
    {
        eprintln!("warning: could not write results/crashchurn.json: {e}");
    } else {
        out!("wrote results/crashchurn.json");
    }
    Ok(())
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

fn poisson(mut args: Args, runtime: Runtime) -> Result<(), String> {
    let smoke = args.switch("--smoke");
    let audit = args.switch("--audit");
    let members: usize = args.value("--n", if smoke { 32 } else { 256 })?;
    let seed: u64 = args.value("--seed", 43)?;
    let half_lives_s: Vec<f64> = match args.get::<String>("--half-lives")? {
        Some(v) => list("--half-lives", &v)?,
        None if smoke => vec![8.0],
        None => vec![20.0, 40.0, 80.0],
    };
    args.finish()?;
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
    let arms = fan_out(half_lives_s.len(), |i| {
        let cfg = PoissonChurnConfig {
            members,
            half_life_us: (half_lives_s[i] * 1e6) as u64,
            churn_until,
            horizon,
            checkpoint_every,
            ..PoissonChurnConfig::default()
        };
        let (tl, ..) = poisson_timeline(&cfg, seed);
        let on = cfg.scenario(seed, true).runtime(runtime).run(tl.clone());
        let off = cfg.scenario(seed, false).runtime(runtime).run(tl);
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
    out!(
        "\nPoisson churn: {members} members, arrivals = departures = n·ln2/t½ \
         (b=4, d=6; probe 200 ms, threshold 3; churn window {}s, horizon {}s)",
        churn_until / 1_000_000,
        horizon / 1_000_000
    );
    out!("{}", t.render());
    if !smoke && runtime == Runtime::Sim {
        crate::write_csv(&t, "results/timeline.csv");
    }
    if audit {
        out!("audit: repair arm recovered at every settled checkpoint the control missed");
    }
    Ok(())
}
