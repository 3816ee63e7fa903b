//! Verifies Theorem 3 empirically: across workloads, no joining node ever
//! sends more than `d + 1` messages of types `CpRstMsg` + `JoinWaitMsg`.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin theorem3 [--trials N]`
//!
//! With `--trials N`, each parameter combination is re-run under `N`
//! independent seeds (fanned across cores) and the table reports the max
//! over all trials — a strictly harder test of the bound.

use std::path::Path;

use hyperring_harness::experiments::{run_fig15b, DelayKind, Fig15bConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
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
            payload: hyperring_core::PayloadMode::Full,
        };
        let runs = opts.run(cfg.seed, |_k, seed| {
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
    println!("Theorem 3: CpRstMsg + JoinWaitMsg per join is at most d + 1");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/theorem3.csv"));
}
