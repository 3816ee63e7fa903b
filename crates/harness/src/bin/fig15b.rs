//! Regenerates Figure 15(b) and the §5.2 averages table: the cumulative
//! distribution of `JoinNotiMsg` sent per joining node when 1000 nodes
//! join a consistent network concurrently, on an 8320-router transit-stub
//! topology.
//!
//! Usage:
//!   cargo run --release -p hyperring-harness --bin fig15b           # paper scale
//!   cargo run --release -p hyperring-harness --bin fig15b -- --small # quick run
//!
//! `--trials N` runs each configuration `N` times (fanned across cores;
//! all trials share one cached topology), adds one summary row per trial
//! plus a mean row, and plots the CDF of trial 0.

use std::path::Path;

use hyperring_harness::experiments::{run_fig15b_trials, Fig15bConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let small = opts.has_flag("--small");
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
        let runs = run_fig15b_trials(cfg, opts.trials);
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
            let row_label = if opts.trials > 1 {
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
        if opts.trials > 1 {
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

    println!("\nFigure 15(b) / §5.2: JoinNotiMsg sent by a joining node");
    println!("{}", summary.render());
    println!("CDF series (one row per distinct J value):");
    println!("{}", cdf_table.render());
    for (label, cdf) in &cdf_curves {
        println!("CDF, {label}:");
        let pts: Vec<(f64, f64)> = cdf.iter().map(|&(x, f)| (x as f64, f)).collect();
        println!("{}", report::ascii_chart(&pts, 60, 10));
    }
    report::write_csv_or_warn(&summary, Path::new("results/fig15b_summary.csv"));
    report::write_csv_or_warn(&cdf_table, Path::new("results/fig15b_cdf.csv"));
}
