//! Footnote 8 quantified: how often is `SpeNotiMsg` actually sent? The
//! paper observed it is "rarely sent"; this sweep measures the rate per
//! join across identifier densities and concurrency levels.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin footnote8 [seeds] [--trials N]`
//!
//! The per-row runs (seeds `100..100+seeds`) are fanned across cores and
//! summed in seed order, so the output never depends on scheduling.
//! `--trials N` is this binary's repetition knob spelled the uniform way:
//! it overrides `[seeds]`.

use std::path::Path;

use hyperring_harness::experiments::{run_fig15b, DelayKind, Fig15bConfig};
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let seeds: u64 = if opts.trials > 1 {
        opts.trials as u64
    } else {
        opts.positional(0, 5)
    };

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
        let spe: u64 = opts
            .map_indexed(seeds as usize, |s| {
                let cfg = Fig15bConfig {
                    b,
                    d,
                    n,
                    m,
                    delay: DelayKind::Uniform,
                    seed: 100 + s as u64,
                    payload: hyperring_core::PayloadMode::Full,
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
    println!("\nFootnote 8: SpeNotiMsg frequency (repair path) per join");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/footnote8.csv"));
}
