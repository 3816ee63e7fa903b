//! Theorem 4: the expected number of `JoinNotiMsg` for a *single* join —
//! measured single joins against the closed-form expectation.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin theorem4 [samples] [--trials N]`
//!
//! With `--trials N`, the sweep repeats under `N` independent seeds
//! (fanned across cores) and the measured column becomes the mean over
//! trials. Trial 0 keeps the base seed, so `--trials 1` reproduces the
//! plain run exactly, and the core count never changes the numbers.

use std::path::Path;

use hyperring_harness::experiments::run_theorem4;
use hyperring_harness::{report, Table, TrialOpts};

fn main() {
    let opts = TrialOpts::from_env();
    let samples: usize = opts.positional(0, 48);
    let sizes = [64usize, 128, 256, 512, 1024, 2048];
    eprintln!("sampling {samples} single joins per size …");
    if opts.trials > 1 {
        eprintln!("averaging over {} independent trials …", opts.trials);
    }
    let runs = opts.run(2003, |_k, seed| run_theorem4(16, 8, &sizes, samples, seed));

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
    println!("Theorem 4: expected JoinNotiMsg of a single join (b=16, d=8)");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/theorem4.csv"));
}
