//! Table occupancy vs the closed-form expectation (small-message volume).
//!
//! Usage: `cargo run --release -p hyperring-harness --bin occupancy [--trials N]`
//!
//! With `--trials N`, the measured column is averaged over `N`
//! independent id populations (fanned across cores); trial 0 keeps the
//! base seed, so `--trials 1` reproduces the plain run exactly.

use std::path::Path;

use hyperring_harness::experiments::run_occupancy;
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let mut t = Table::new(["b", "d", "n", "measured filled", "analytic", "capacity d*b"]);
    for (b, d) in [(16u16, 8usize), (16, 40), (4, 6)] {
        let runs = opts.run(7, |_k, seed| {
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
    println!("\nNeighbor-table occupancy (drives RvNghNotiMsg volume)");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/occupancy.csv"));
}
