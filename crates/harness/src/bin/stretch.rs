//! Routing stretch (the P2 property of §1) before and after
//! nearest-neighbor table optimization (extension; the paper's problem 3).
//!
//! Usage: `cargo run --release -p hyperring-harness --bin stretch [n] [--trials N]`
//!
//! With `--trials N`, the measurement is repeated under `N` independent
//! seeds (fanned across cores; each trial draws its own topology and id
//! population) and one table is printed per trial. Trial 0 keeps the base
//! seed, so `--trials 1` reproduces the plain run exactly.

use std::path::Path;

use hyperring_harness::experiments::run_stretch;
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let n: usize = opts.positional(0, 512);
    eprintln!("measuring stretch over {n} nodes on a transit-stub topology …");
    let runs = opts.run(2003, |_k, seed| {
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
        if opts.trials > 1 {
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
}
