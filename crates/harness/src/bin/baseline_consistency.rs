//! The §1 comparison as an experiment: optimistic (Pastry-style) joins
//! versus the paper's protocol, measuring table-consistency violations as
//! concurrency grows.
//!
//! Usage: `cargo run --release -p hyperring-harness --bin baseline_consistency [seeds] [--trials N]`
//!
//! The per-seed runs (seeds `0..seeds`) are fanned across cores and
//! aggregated in seed order, so the output never depends on scheduling.
//! `--trials N` is this binary's repetition knob spelled the uniform way:
//! it overrides `[seeds]`.

use std::path::Path;

use hyperring_harness::{report, Scenario, Table, Timeline, TrialOpts};
use hyperring_id::IdSpace;

fn main() {
    let opts = TrialOpts::from_env();
    let seeds: u64 = if opts.trials > 1 {
        opts.trials as u64
    } else {
        opts.positional(0, 10)
    };
    let space = IdSpace::new(4, 6).expect("valid space");
    let n = 16;

    let mut t = Table::new([
        "m (concurrent joins)",
        "optimistic: broken runs",
        "optimistic: violations",
        "optimistic: unreachable pairs",
        "paper: broken runs",
        "paper: violations",
    ]);
    for m in [1usize, 4, 16, 48] {
        eprintln!("m = {m}: {seeds} seeds of each protocol …");
        let per_seed = opts.map_indexed(seeds as usize, |s| {
            let paper = Scenario::new(space)
                .members(n)
                .seed(s as u64)
                .delay_bounds(1_000, 100_000);
            let o = paper
                .clone()
                .optimistic()
                .reachability()
                .run(Timeline::join_wave(m));
            let p = paper.run(Timeline::join_wave(m));
            (
                u64::from(!o.consistent),
                o.violations as u64,
                o.unreachable_pairs.unwrap_or(0) as u64,
                u64::from(!p.consistent),
                p.violations as u64,
            )
        });
        let (mut ob, mut ov, mut ou) = (0u64, 0u64, 0u64);
        let (mut pb, mut pv) = (0u64, 0u64);
        for (b, v, u, b2, v2) in &per_seed {
            ob += b;
            ov += v;
            ou += u;
            pb += b2;
            pv += v2;
        }
        assert_eq!(pb, 0, "the paper's protocol must never break");
        t.row([
            m.to_string(),
            format!("{ob}/{seeds}"),
            ov.to_string(),
            ou.to_string(),
            format!("{pb}/{seeds}"),
            pv.to_string(),
        ]);
    }
    println!("\nOptimistic (Pastry-style) join vs the paper's protocol");
    println!("(b=4, d=6, n={n} members; all joins start at t=0)");
    println!("{}", t.render());
    report::write_csv_or_warn(&t, Path::new("results/baseline_consistency.csv"));
}
