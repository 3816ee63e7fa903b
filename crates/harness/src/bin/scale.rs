//! Large-n scaling of the arena-backed simulation core: batched
//! concurrent bootstrap throughput (nodes/sec), phase-attributed peak RSS,
//! streaming Definition-3.8 verification and sampled reachability.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin scale [n[,n…]] [--batch B] [--smoke] [--sample-pairs K] [--rss-budget-mib M] [--check-rss-budget-mib M]`
//!
//! * `n` — total nodes to bootstrap, optionally a comma-separated sweep
//!   (default 4096; `--smoke` forces 512);
//! * `--batch B` — joiners per concurrent wave (default 256);
//! * `--sample-pairs K` — seeded random routing pairs for the sampled
//!   Lemma-3.1 reachability check (default 256; 0 disables);
//! * `--rss-budget-mib M` — fail if any row's bootstrap-phase peak RSS
//!   exceeds `M` MiB (the CI regression guard);
//! * `--check-rss-budget-mib M` — fail if any row's *check-phase* peak-RSS
//!   delta exceeds `M` MiB; the checker borrows the tables in place and
//!   its delta is near zero, so a tight pin here catches any check that
//!   materializes a copy of them;
//! * `--smoke` — small fast configuration for CI; writes nothing.
//!
//! Writes `results/scale.csv`.

use std::path::Path;

use hyperring_harness::experiments::{run_scale, ScaleConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let opts = TrialOpts::from_env();
    let smoke = opts.has_flag("--smoke");
    let sizes_arg: String = if smoke {
        "512".to_string()
    } else {
        opts.positional(0, "4096".to_string())
    };
    let sizes: Vec<usize> = sizes_arg
        .split(',')
        .map(|s| s.trim().parse().expect("n takes integers"))
        .collect();
    let batch: usize = opts.named("--batch", if smoke { 64 } else { 256 });
    let sample_pairs: usize = opts.named("--sample-pairs", 256);
    let rss_budget_mib: u64 = opts.named("--rss-budget-mib", 0);
    let check_rss_budget_mib: u64 = opts.named("--check-rss-budget-mib", 0);

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
}
