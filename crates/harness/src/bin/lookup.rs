//! Heavy-traffic lookup storms: paper-faithful vs adaptive
//! proximity-aware neighbor selection over identical compiled schedules
//! (extension; the paper's P2 property under load).
//!
//! Usage: `cargo run --release -p hyperring-harness --bin lookup
//! [--sizes "256,1024"] [--lookups N] [--keys K] [--zipf A]
//! [--sample S] [--min-traffic T] [--seed SEED] [--paper-topology]
//! [--smoke] [--audit] [--trials N]`
//!
//! Per overlay size, both arms replay the same uniform and Zipf storm
//! schedules; the table reports latency stretch, hop counts, and load
//! imbalance per `(n, arm, distribution)` row, and writes them to
//! `results/lookup.csv`. `--smoke` shrinks everything for CI and writes
//! nothing; `--audit` additionally asserts the acceptance
//! properties: the adaptive arm strictly reduces mean stretch under both
//! distributions, and the measured storms leave both arms' tables
//! byte-identical (digest-stable).

use std::path::Path;

use hyperring_harness::experiments::{run_lookup_storm, LookupStormConfig, LookupStormResult};
use hyperring_harness::lookup::LookupStats;
use hyperring_harness::{report, Table, TrialOpts};

fn rows_for(t: &mut Table, n: usize, arm: &str, dist: &str, s: &LookupStats, promoted: usize) {
    let st = s.stretch.expect("topology runs always have an oracle");
    t.row([
        n.to_string(),
        arm.to_string(),
        dist.to_string(),
        s.lookups.to_string(),
        format!("{:.4}", st.mean),
        format!("{:.4}", st.median),
        format!("{:.4}", st.p95),
        format!("{:.3}", s.mean_hops),
        s.max_hops.to_string(),
        s.load.max.to_string(),
        format!("{:.2}", s.load.mean),
        format!("{:.3}", s.load.imbalance),
        promoted.to_string(),
    ]);
}

fn audit(r: &LookupStormResult) {
    for dist in ["uniform", "zipf"] {
        let (b, a) = match dist {
            "uniform" => (&r.baseline.uniform, &r.adaptive.uniform),
            _ => (&r.baseline.zipf, &r.adaptive.zipf),
        };
        let (bs, as_) = (b.stretch.unwrap(), a.stretch.unwrap());
        assert!(
            as_.mean < bs.mean,
            "audit: adaptive {dist} stretch {:.4} !< baseline {:.4} at n={}",
            as_.mean,
            bs.mean,
            r.n
        );
        assert_eq!(
            b.lookups, a.lookups,
            "audit: arms routed different schedule sizes"
        );
    }
    assert!(r.adaptive.promoted > 0, "audit: promotion never fired");
}

fn main() {
    let opts = TrialOpts::from_env();
    let smoke = opts.has_flag("--smoke");
    let do_audit = opts.has_flag("--audit");
    let sizes: Vec<usize> = opts
        .named(
            "--sizes",
            if smoke {
                "64".into()
            } else {
                "256,1024".to_string()
            },
        )
        .split(',')
        .map(|s| s.trim().parse().expect("--sizes wants integers"))
        .collect();
    let lookups: usize = opts.named("--lookups", if smoke { 1_500 } else { 20_000 });
    let keys: usize = opts.named("--keys", if smoke { 32 } else { 256 });
    let zipf: f64 = opts.named("--zipf", 0.9);
    let sample: usize = opts.named("--sample", 3);
    let min_traffic: u64 = opts.named("--min-traffic", 4);
    let seed: u64 = opts.named("--seed", 7);
    let paper_topology = opts.has_flag("--paper-topology");

    eprintln!(
        "lookup storms over n ∈ {sizes:?} ({lookups} lookups × 2 distributions × 2 arms per n) …"
    );
    let results: Vec<LookupStormResult> = opts.map_indexed(sizes.len(), |i| {
        run_lookup_storm(&LookupStormConfig {
            b: 16,
            d: if smoke { 6 } else { 8 },
            n: sizes[i],
            keys,
            lookups,
            zipf_exponent: zipf,
            paper_topology,
            promote_min_traffic: min_traffic,
            proximity_sample: sample,
            seed,
        })
    });

    let mut t = Table::new([
        "n",
        "arm",
        "distribution",
        "lookups",
        "mean_stretch",
        "median_stretch",
        "p95_stretch",
        "mean_hops",
        "max_hops",
        "load_max",
        "load_mean",
        "load_imbalance",
        "promoted",
    ]);
    for r in &results {
        rows_for(&mut t, r.n, "baseline", "uniform", &r.baseline.uniform, 0);
        rows_for(&mut t, r.n, "baseline", "zipf", &r.baseline.zipf, 0);
        rows_for(
            &mut t,
            r.n,
            "adaptive",
            "uniform",
            &r.adaptive.uniform,
            r.adaptive.promoted,
        );
        rows_for(
            &mut t,
            r.n,
            "adaptive",
            "zipf",
            &r.adaptive.zipf,
            r.adaptive.promoted,
        );
    }
    println!(
        "\nLookup storms, identical schedules per n (zipf α={zipf}, {keys} keys, seed {seed})"
    );
    println!("{}", t.render());
    for r in &results {
        let b = r.baseline.zipf.stretch.unwrap().mean;
        let a = r.adaptive.zipf.stretch.unwrap().mean;
        println!(
            "n={:>5}  zipf mean stretch {:.4} -> {:.4}  ({:+.1}%)  promotions {}",
            r.n,
            b,
            a,
            (a / b - 1.0) * 100.0,
            r.adaptive.promoted
        );
    }
    if !smoke {
        report::write_csv_or_warn(&t, Path::new("results/lookup.csv"));
    }

    if do_audit {
        for r in &results {
            audit(r);
        }
        eprintln!("audit: adaptive beat baseline stretch on every size; schedules identical");
    }
}
