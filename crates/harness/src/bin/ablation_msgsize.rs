//! §6.2 ablation: bytes saved by the paper's message-size reductions
//! (level-restricted `JoinNotiMsg` payloads, bit-vector-filtered replies).
//!
//! Usage: `cargo run --release -p hyperring-harness --bin ablation_msgsize [--full] [--trials N]`
//!
//! With `--trials N`, each configuration is re-run under `N` independent
//! seeds (fanned across cores), one row per trial; trial 0 keeps the base
//! seed, so `--trials 1` reproduces the plain run exactly.

use std::path::Path;

use hyperring_harness::experiments::{run_msgsize_ablation, DelayKind, Fig15bConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let full = opts.has_flag("--full");
    let configs: Vec<Fig15bConfig> = if full {
        vec![
            Fig15bConfig {
                n: 3096,
                m: 1000,
                d: 8,
                b: 16,
                delay: DelayKind::PaperTopology,
                seed: 2003,
                payload: hyperring_core::PayloadMode::Full,
            },
            Fig15bConfig {
                n: 3096,
                m: 1000,
                d: 40,
                b: 16,
                delay: DelayKind::PaperTopology,
                seed: 2003,
                payload: hyperring_core::PayloadMode::Full,
            },
        ]
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
        let runs = opts.run(cfg.seed, |_k, seed| {
            run_msgsize_ablation(&Fig15bConfig { seed, ..*cfg })
        });
        for (k, r) in runs.iter().enumerate() {
            assert!(
                r.all_consistent,
                "{label}: a payload mode broke consistency"
            );
            let row_label = if opts.trials > 1 {
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
    println!("\n§6.2 message-size reduction ablation");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/ablation_msgsize.csv"));
}
