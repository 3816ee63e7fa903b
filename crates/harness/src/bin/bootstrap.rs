//! §6.1 network initialization: build an n-node network from a single
//! node, sequentially, concurrently, and staggered.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin bootstrap [n] [--trials N] [--trace PATH]`
//!
//! With `--trials N`, each mode is re-run under `N` independent seeds
//! (fanned across cores), one row per trial; trial 0 keeps the base seed,
//! so `--trials 1` reproduces the plain run exactly. With `--trace PATH`,
//! the concurrent mode's trial-0 run writes its JSONL protocol trace to
//! `PATH` (deterministic for the fixed seed).

use std::path::Path;

use hyperring_harness::experiments::{run_bootstrap_traced, BootstrapConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let n: usize = opts.positional(0, 256);

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
        let trace = opts.trace.clone();
        let runs = opts.run(11, |k, seed| {
            let path = match (k, mode) {
                (0, BootstrapConfig::Concurrent) => trace.as_deref(),
                _ => None,
            };
            run_bootstrap_traced(16, 8, n, mode, seed, path)
        });
        for (k, r) in runs.iter().enumerate() {
            assert!(r.consistent, "{name} bootstrap inconsistent");
            let row_label = if opts.trials > 1 {
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
    println!("\n§6.1 network initialization from a single node (b=16, d=8)");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/bootstrap.csv"));
}
