//! Concurrent joins over a lossy network, recovered by timer retries.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin faultsim
//! [joiners] [drop_pct] [dup_pct] [--trials N] [--trace PATH]`
//!
//! Each trial runs `joiners` concurrent joins into a 16-member network
//! while every message is dropped with probability `drop_pct`% (default
//! 10) and duplicated with probability `dup_pct`% (default 2). The rows
//! show how many losses the retry timers had to repair; consistency
//! (Definition 3.8) must hold in every trial. With `--trace PATH`, trial
//! 0 additionally writes its full JSONL protocol trace — deterministic
//! for the fixed seed — to `PATH`.

use std::path::Path;

use hyperring_harness::experiments::{run_faults, FaultsConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let joiners: usize = opts.positional(0, 48);
    let drop_pct: u32 = opts.positional(1, 10);
    let dup_pct: u32 = opts.positional(2, 2);
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
    let trace = opts.trace.clone();
    let results = opts.run(23, |k, seed| {
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
    if let Some(path) = &opts.trace {
        println!(
            "trial 0 trace: {} ({} events)",
            path.display(),
            results[0].traced
        );
    }
    report::write_csv_or_warn(&t, Path::new("results/faultsim.csv"));
}
