//! The paper's evaluation: Figure 15(a)/(b), Theorems 3–4, table
//! occupancy, footnote 8, the §6.2 message sizes, §6.1 initialization and
//! the §1 comparison against optimistic joins.

use std::path::PathBuf;

use hyperring::core::PayloadMode;
use hyperring::harness::experiments::{
    fig15a_series, run_bootstrap, run_fig15b, run_fig15b_trials, run_msgsize_ablation,
    run_occupancy, run_theorem4, BootstrapConfig, DelayKind, Fig15bConfig,
};
use hyperring::harness::workload::fan_out;
use hyperring::harness::{report, run_trials, Scenario, Table, Timeline};
use hyperring::id::IdSpace;

use crate::args::Args;

/// `fig15a [step]`: the Theorem-5 upper bound of `E(J)` versus network
/// size `n` for the paper's four parameter combinations. Analytic, so it
/// takes no `--trials`.
pub fn fig15a(mut args: Args) -> Result<(), String> {
    let step: u64 = args.positional(0, 5_000)?;
    args.finish()?;
    let series = fig15a_series(step);

    let mut t = Table::new([
        "n",
        "m=500,b=16,d=40",
        "m=1000,b=16,d=40",
        "m=500,b=16,d=8",
        "m=1000,b=16,d=8",
    ]);
    for p in &series {
        t.row([
            p.n.to_string(),
            format!("{:.3}", p.m500_d40),
            format!("{:.3}", p.m1000_d40),
            format!("{:.3}", p.m500_d8),
            format!("{:.3}", p.m1000_d8),
        ]);
    }
    out!("Figure 15(a): upper bound of E(J) vs number of nodes n");
    out!("{}", t.render());
    out!("m=1000, b=16, d=40 curve:");
    let curve: Vec<(f64, f64)> = series.iter().map(|p| (p.n as f64, p.m1000_d40)).collect();
    out!("{}", report::ascii_chart(&curve, 60, 10));
    crate::write_csv(&t, "results/fig15a.csv");
    Ok(())
}

/// `fig15b [--small] [--trials N]`: Figure 15(b) and the §5.2 averages
/// table — the cumulative distribution of `JoinNotiMsg` sent per joining
/// node when 1000 nodes join a consistent network concurrently, on an
/// 8320-router transit-stub topology. `--small` is a quick run.
///
/// `--trials N` runs each configuration `N` times (all trials share one
/// cached topology), adds one summary row per trial plus a mean row, and
/// plots the CDF of trial 0.
pub fn fig15b(mut args: Args) -> Result<(), String> {
    let small = args.switch("--small");
    let trials = args.trials()?;
    args.finish()?;
    let configs: Vec<Fig15bConfig> = if small {
        vec![Fig15bConfig::small(8, 1), Fig15bConfig::small(40, 1)]
    } else {
        Fig15bConfig::paper_configs().to_vec()
    };

    // The paper's reported numbers for the four full-scale configurations.
    let paper_avgs = [6.117, 6.051, 5.026, 5.399];
    let paper_bounds = [8.001, 8.001, 6.986, 6.986];

    let mut summary = Table::new([
        "config",
        "avg J (measured)",
        "paper avg",
        "Thm5 bound",
        "paper bound",
        "max CpRst+JoinWait",
        "Thm3 bound (d+1)",
        "SpeNoti total",
        "consistent",
    ]);
    let mut cdf_table = Table::new(["config", "J", "cdf"]);
    let mut cdf_curves: Vec<(String, Vec<(u64, f64)>)> = Vec::new();

    for (i, cfg) in configs.iter().enumerate() {
        let label = format!("n={},m={},b={},d={}", cfg.n, cfg.m, cfg.b, cfg.d);
        eprintln!("running {label} …");
        let runs = run_fig15b_trials(cfg, trials);
        let (paper_avg, paper_bound) = if small {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.3}", paper_avgs[i]),
                format!("{:.3}", paper_bounds[i]),
            )
        };
        for (k, r) in runs.iter().enumerate() {
            assert!(r.consistent, "{label}: final network INCONSISTENT");
            assert!(
                r.max_cprst_joinwait <= r.theorem3,
                "{label}: Theorem 3 violated"
            );
            let row_label = if trials > 1 {
                format!("{label} t={k}")
            } else {
                label.clone()
            };
            summary.row([
                row_label,
                format!("{:.3}", r.average()),
                paper_avg.clone(),
                format!("{:.3}", r.bound),
                paper_bound.clone(),
                r.max_cprst_joinwait.to_string(),
                r.theorem3.to_string(),
                r.spe_noti_total.to_string(),
                r.consistent.to_string(),
            ]);
        }
        if trials > 1 {
            let mean = runs.iter().map(|r| r.average()).sum::<f64>() / runs.len() as f64;
            summary.row([
                format!("{label} mean/{}", runs.len()),
                format!("{mean:.3}"),
                paper_avg.clone(),
                format!("{:.3}", runs[0].bound),
                paper_bound.clone(),
                runs.iter()
                    .map(|r| r.max_cprst_joinwait)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                runs[0].theorem3.to_string(),
                runs.iter()
                    .map(|r| r.spe_noti_total)
                    .sum::<u64>()
                    .to_string(),
                "true".to_string(),
            ]);
        }
        let r = &runs[0];
        for (x, f) in r.cdf() {
            cdf_table.row([label.clone(), x.to_string(), format!("{f:.4}")]);
        }
        cdf_curves.push((label, r.cdf()));
    }

    out!("\nFigure 15(b) / §5.2: JoinNotiMsg sent by a joining node");
    out!("{}", summary.render());
    out!("CDF series (one row per distinct J value):");
    out!("{}", cdf_table.render());
    for (label, cdf) in &cdf_curves {
        out!("CDF, {label}:");
        let pts: Vec<(f64, f64)> = cdf.iter().map(|&(x, f)| (x as f64, f)).collect();
        out!("{}", report::ascii_chart(&pts, 60, 10));
    }
    crate::write_csv(&summary, "results/fig15b_summary.csv");
    crate::write_csv(&cdf_table, "results/fig15b_cdf.csv");
    Ok(())
}

/// `theorem3 [--trials N]`: across workloads, no joining node ever sends
/// more than `d + 1` messages of types `CpRstMsg` + `JoinWaitMsg`. With
/// `--trials N` each combination is re-run under `N` seeds and the table
/// reports the max over all of them — a strictly harder test.
pub fn theorem3(mut args: Args) -> Result<(), String> {
    let trials = args.trials()?;
    args.finish()?;
    let mut t = Table::new(["b", "d", "n", "m", "max CpRst+JoinWait", "bound d+1", "ok"]);
    for (b, d, n, m) in [
        (16u16, 8usize, 256usize, 64usize),
        (16, 40, 256, 64),
        (4, 6, 128, 128),
        (8, 5, 200, 100),
        (2, 12, 64, 64),
    ] {
        let cfg = Fig15bConfig {
            b,
            d,
            n,
            m,
            delay: DelayKind::Uniform,
            seed: 7,
            payload: PayloadMode::Full,
        };
        let runs = run_trials(trials, cfg.seed, |_k, seed| {
            run_fig15b(&Fig15bConfig { seed, ..cfg })
        });
        let max = runs.iter().map(|r| r.max_cprst_joinwait).max().unwrap_or(0);
        let bound = runs[0].theorem3;
        let ok = max <= bound;
        assert!(ok, "Theorem 3 violated for b={b} d={d}");
        t.row([
            b.to_string(),
            d.to_string(),
            n.to_string(),
            m.to_string(),
            max.to_string(),
            bound.to_string(),
            ok.to_string(),
        ]);
    }
    out!("Theorem 3: CpRstMsg + JoinWaitMsg per join is at most d + 1");
    out!("{}", t.render());
    crate::write_csv(&t, "results/theorem3.csv");
    Ok(())
}

/// `theorem4 [samples] [--trials N]`: the expected number of
/// `JoinNotiMsg` for a *single* join, measured (default 48 samples a
/// size) against the closed form. With `--trials N` the measured column
/// is the mean over trials.
pub fn theorem4(mut args: Args) -> Result<(), String> {
    let samples: usize = args.positional(0, 48)?;
    let trials = args.trials()?;
    args.finish()?;
    let sizes = [64usize, 128, 256, 512, 1024, 2048];
    eprintln!("sampling {samples} single joins per size …");
    if trials > 1 {
        eprintln!("averaging over {trials} independent trials …");
    }
    let runs = run_trials(trials, 2003, |_k, seed| {
        run_theorem4(16, 8, &sizes, samples, seed)
    });

    let mut t = Table::new(["n", "measured E(J)", "analytic E(J) (Thm 4)", "rel err"]);
    for (i, p) in runs[0].iter().enumerate() {
        let measured = runs.iter().map(|r| r[i].measured).sum::<f64>() / runs.len() as f64;
        t.row([
            p.n.to_string(),
            format!("{measured:.3}"),
            format!("{:.3}", p.analytic),
            format!("{:.1}%", 100.0 * (measured - p.analytic) / p.analytic),
        ]);
    }
    out!("Theorem 4: expected JoinNotiMsg of a single join (b=16, d=8)");
    out!("{}", t.render());
    crate::write_csv(&t, "results/theorem4.csv");
    Ok(())
}

/// `occupancy [--trials N]`: table occupancy (it drives the
/// `RvNghNotiMsg` volume) against the closed-form expectation; with
/// `--trials N` the measured column is averaged over `N` id populations.
pub fn occupancy(mut args: Args) -> Result<(), String> {
    let trials = args.trials()?;
    args.finish()?;
    let mut t = Table::new(["b", "d", "n", "measured filled", "analytic", "capacity d*b"]);
    for (b, d) in [(16u16, 8usize), (16, 40), (4, 6)] {
        let runs = run_trials(trials, 7, |_k, seed| {
            run_occupancy(b, d, &[64, 256, 1024, 4096], seed)
        });
        for (i, p) in runs[0].iter().enumerate() {
            let measured = runs.iter().map(|r| r[i].measured).sum::<f64>() / runs.len() as f64;
            t.row([
                b.to_string(),
                d.to_string(),
                p.n.to_string(),
                format!("{measured:.2}"),
                format!("{:.2}", p.analytic),
                p.capacity.to_string(),
            ]);
        }
    }
    out!("\nNeighbor-table occupancy (drives RvNghNotiMsg volume)");
    out!("{}", t.render());
    crate::write_csv(&t, "results/occupancy.csv");
    Ok(())
}

/// `footnote8 [seeds] [--trials N]`: how often `SpeNotiMsg` is actually
/// sent (the paper: "rarely"), per join across identifier densities and
/// concurrency levels. The runs use seeds `100..100+seeds` (default 5),
/// summed in seed order; `--trials N` overrides `[seeds]`.
pub fn footnote8(mut args: Args) -> Result<(), String> {
    let trials = args.trials()?;
    let seeds: u64 = args.positional(0, 5)?;
    args.finish()?;
    let seeds = if trials > 1 { trials as u64 } else { seeds };

    let mut t = Table::new([
        "b",
        "d",
        "n",
        "m",
        "joins total",
        "SpeNotiMsg total",
        "rate per join",
    ]);
    for (b, d, n, m) in [
        (16u16, 8usize, 256usize, 64usize), // paper-like density
        (4, 8, 64, 64),                     // denser suffix collisions
        (2, 10, 16, 48),                    // binary ids: maximal dependence
        (2, 8, 4, 32),                      // tiny space, heavy contention
    ] {
        let spe: u64 = fan_out(seeds as usize, |s| {
            let cfg = Fig15bConfig {
                b,
                d,
                n,
                m,
                delay: DelayKind::Uniform,
                seed: 100 + s as u64,
                payload: PayloadMode::Full,
            };
            let r = run_fig15b(&cfg);
            assert!(r.consistent);
            r.spe_noti_total
        })
        .iter()
        .sum();
        let joins = seeds * m as u64;
        t.row([
            b.to_string(),
            d.to_string(),
            n.to_string(),
            m.to_string(),
            joins.to_string(),
            spe.to_string(),
            format!("{:.4}", spe as f64 / joins as f64),
        ]);
    }
    out!("\nFootnote 8: SpeNotiMsg frequency (repair path) per join");
    out!("{}", t.render());
    crate::write_csv(&t, "results/footnote8.csv");
    Ok(())
}

/// `ablation_msgsize [--full] [--trials N]`: bytes saved by the §6.2
/// message-size reductions (level-restricted `JoinNotiMsg` payloads,
/// bit-vector-filtered replies); one row per trial.
pub fn ablation_msgsize(mut args: Args) -> Result<(), String> {
    let full = args.switch("--full");
    let trials = args.trials()?;
    args.finish()?;
    let configs: Vec<Fig15bConfig> = if full {
        [8, 40]
            .map(|d| Fig15bConfig {
                n: 3096,
                m: 1000,
                d,
                b: 16,
                delay: DelayKind::PaperTopology,
                seed: 2003,
                payload: PayloadMode::Full,
            })
            .to_vec()
    } else {
        vec![Fig15bConfig::small(8, 3), Fig15bConfig::small(40, 3)]
    };

    let mut t = Table::new([
        "config",
        "full (joiner bytes)",
        "levels",
        "bitvector",
        "levels saving",
        "bitvector saving",
        "all consistent",
    ]);
    for cfg in &configs {
        let label = format!("n={},m={},b={},d={}", cfg.n, cfg.m, cfg.b, cfg.d);
        eprintln!("running {label} under 3 payload modes …");
        let runs = run_trials(trials, cfg.seed, |_k, seed| {
            run_msgsize_ablation(&Fig15bConfig { seed, ..*cfg })
        });
        for (k, r) in runs.iter().enumerate() {
            assert!(
                r.all_consistent,
                "{label}: a payload mode broke consistency"
            );
            let row_label = if trials > 1 {
                format!("{label} t={k}")
            } else {
                label.clone()
            };
            t.row([
                row_label,
                r.full_bytes.to_string(),
                r.levels_bytes.to_string(),
                r.bitvector_bytes.to_string(),
                format!("{:.1}%", 100.0 * r.levels_saving()),
                format!("{:.1}%", 100.0 * r.bitvector_saving()),
                r.all_consistent.to_string(),
            ]);
        }
    }
    out!("\n§6.2 message-size reduction ablation");
    out!("{}", t.render());
    crate::write_csv(&t, "results/ablation_msgsize.csv");
    Ok(())
}

/// `bootstrap [--n 256] [--b 16] [--d 8] [--seed 11] [--trials N]
/// [--trace PATH]`: §6.1 network initialization — build an `n`-node
/// network from a single node sequentially, concurrently and staggered,
/// one row per mode and trial. `--trace` writes the concurrent mode's
/// trial-0 protocol trace.
pub fn bootstrap(mut args: Args) -> Result<(), String> {
    let b: u16 = args.value("--b", 16)?;
    let d: usize = args.value("--d", 8)?;
    let space = IdSpace::new(b, d).map_err(|e| e.to_string())?;
    let n = args.nodes(256, space.capacity())?;
    let seed: u64 = args.value("--seed", 11)?;
    let trials = args.trials()?;
    let trace: Option<PathBuf> = args.get("--trace")?;
    args.finish()?;

    let mut t = Table::new([
        "mode",
        "nodes",
        "consistent",
        "messages",
        "virtual time (s)",
    ]);
    for (name, mode) in [
        ("sequential", BootstrapConfig::Sequential),
        ("concurrent", BootstrapConfig::Concurrent),
        (
            "staggered 50ms",
            BootstrapConfig::Staggered { gap_us: 50_000 },
        ),
    ] {
        eprintln!("bootstrapping {n} nodes ({name}) …");
        let runs = run_trials(trials, seed, |k, seed| {
            let path = match (k, mode) {
                (0, BootstrapConfig::Concurrent) => trace.as_deref(),
                _ => None,
            };
            run_bootstrap(b, d, n, mode, seed, path)
        });
        for (k, r) in runs.iter().enumerate() {
            assert!(r.consistent, "{name} bootstrap inconsistent");
            let row_label = if trials > 1 {
                format!("{name} t={k}")
            } else {
                name.to_string()
            };
            t.row([
                row_label,
                r.nodes.to_string(),
                r.consistent.to_string(),
                r.messages.to_string(),
                format!("{:.3}", r.finished_at as f64 / 1e6),
            ]);
        }
    }
    out!("\n§6.1 network initialization from a single node (b={b}, d={d})");
    out!("{}", t.render());
    crate::write_csv(&t, "results/bootstrap.csv");
    Ok(())
}

/// `baseline_consistency [seeds] [--trials N]`: the §1 comparison —
/// optimistic (Pastry-style) joins against the paper's protocol,
/// counting table-consistency violations as concurrency grows. The runs
/// use seeds `0..seeds` (default 10), aggregated in seed order;
/// `--trials N` overrides `[seeds]`.
pub fn baseline_consistency(mut args: Args) -> Result<(), String> {
    let trials = args.trials()?;
    let seeds: u64 = args.positional(0, 10)?;
    args.finish()?;
    let seeds = if trials > 1 { trials as u64 } else { seeds };
    let space = IdSpace::new(4, 6).expect("valid space");
    let n = 16;

    let mut t = Table::new([
        "m (concurrent joins)",
        "optimistic: broken runs",
        "optimistic: violations",
        "optimistic: unreachable pairs",
        "paper: broken runs",
        "paper: violations",
    ]);
    for m in [1usize, 4, 16, 48] {
        eprintln!("m = {m}: {seeds} seeds of each protocol …");
        let per_seed = fan_out(seeds as usize, |s| {
            let paper = Scenario::new(space)
                .members(n)
                .seed(s as u64)
                .delay_bounds(1_000, 100_000);
            let o = paper
                .clone()
                .optimistic()
                .reachability()
                .run(Timeline::join_wave(m));
            let p = paper.run(Timeline::join_wave(m));
            (
                u64::from(!o.consistent),
                o.violations as u64,
                o.unreachable_pairs.unwrap_or(0) as u64,
                u64::from(!p.consistent),
                p.violations as u64,
            )
        });
        let (mut ob, mut ov, mut ou) = (0u64, 0u64, 0u64);
        let (mut pb, mut pv) = (0u64, 0u64);
        for (b, v, u, b2, v2) in &per_seed {
            ob += b;
            ov += v;
            ou += u;
            pb += b2;
            pv += v2;
        }
        assert_eq!(pb, 0, "the paper's protocol must never break");
        t.row([
            m.to_string(),
            format!("{ob}/{seeds}"),
            ov.to_string(),
            ou.to_string(),
            format!("{pb}/{seeds}"),
            pv.to_string(),
        ]);
    }
    out!("\nOptimistic (Pastry-style) join vs the paper's protocol");
    out!("(b=4, d=6, n={n} members; all joins start at t=0)");
    out!("{}", t.render());
    crate::write_csv(&t, "results/baseline_consistency.csv");
    Ok(())
}
