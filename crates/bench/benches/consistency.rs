//! Cost of the Definition-3.8 consistency checker versus the naive
//! O(n²·d·b) scan, plus the quadratic reachability verifier and the
//! checker's phase-attributed peak RSS at large n.
//!
//! Runs with a hand-rolled `main` (instead of `criterion_main!`) so the
//! measurements, the speedups, and the peak-RSS rows can be exported to
//! `BENCH_consistency.json` at the workspace root.

use criterion::{BenchmarkId, Criterion, Throughput};
use hyperring_core::{
    build_consistent_tables, check_consistency, check_consistency_naive, check_reachability,
    NeighborTable,
};
use hyperring_harness::distinct_ids;
use hyperring_harness::metrics::{current_rss_bytes, peak_rss_bytes, reset_peak_rss};
use hyperring_id::IdSpace;
use std::hint::black_box;

const SIZES: [usize; 3] = [256, 1024, 4096];

/// Large-n tier: the checker is timed here too (the naive scan would take
/// ~40 min at this size and is covered by its trajectory at [`SIZES`]).
const BIG_N: usize = 65536;

/// Sizes of the check-phase peak-RSS rows.
const RSS_SIZES: [usize; 2] = [16384, BIG_N];

fn bench_consistency(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("consistency");
    g.sample_size(10);
    for n in SIZES {
        let ids = distinct_ids(space, n, 13);
        let tables = build_consistent_tables(space, &ids);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("check_definition_3_8", n), &n, |b, _| {
            b.iter(|| {
                let r = check_consistency(space, black_box(&tables));
                assert!(r.is_consistent());
                black_box(r.entries_checked())
            })
        });
        g.bench_with_input(BenchmarkId::new("naive_scan", n), &n, |b, _| {
            b.iter(|| {
                let r = check_consistency_naive(space, black_box(&tables));
                assert!(r.is_consistent());
                black_box(r.entries_checked())
            })
        });
    }
    // Reachability is O(n² d): bench at a smaller size.
    let ids = distinct_ids(space, 128, 13);
    let tables = build_consistent_tables(space, &ids);
    g.throughput(Throughput::Elements(128));
    g.bench_function("check_reachability_n128", |b| {
        b.iter(|| {
            let fails = check_reachability(black_box(&tables));
            assert!(fails.is_empty());
            black_box(fails.len())
        })
    });
    g.finish();
}

fn bench_big(c: &mut Criterion, tables: &[NeighborTable]) {
    let space = IdSpace::new(16, 8).unwrap();
    let n = tables.len();
    let mut g = c.benchmark_group("consistency");
    g.sample_size(3);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_with_input(BenchmarkId::new("check_definition_3_8", n), &n, |b, _| {
        b.iter(|| {
            let r = check_consistency(space, black_box(tables));
            assert!(r.is_consistent());
            black_box(r.entries_checked())
        })
    });
    g.finish();
}

/// Peak RSS attributable to one closure: reset the kernel high-water
/// mark, note the current RSS, run the phase, and read how far the mark
/// climbed. `None` when `/proc/self/clear_refs` is unavailable.
fn rss_delta(f: impl FnOnce()) -> Option<u64> {
    if !reset_peak_rss() {
        return None;
    }
    let before = current_rss_bytes()?;
    f();
    Some(peak_rss_bytes()?.saturating_sub(before))
}

fn mean_ns(c: &Criterion, id: &str) -> f64 {
    c.results()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no result named {id}"))
        .mean_ns
}

fn main() {
    let space = IdSpace::new(16, 8).unwrap();
    let mut c = Criterion::default();
    bench_consistency(&mut c);

    // One table build per RSS size, shared between the BIG_N timing row
    // and the RSS measurement.
    let mut rss_json = Vec::new();
    for n in RSS_SIZES {
        println!("building {n} oracle tables for the RSS measurement …");
        let ids = distinct_ids(space, n, 13);
        let tables = build_consistent_tables(space, &ids);
        if n == BIG_N {
            bench_big(&mut c, &tables);
        }
        // The check phase alone: the index plus one reference per node.
        let check_rss = rss_delta(|| {
            let r = check_consistency(space, black_box(&tables));
            assert!(r.is_consistent());
            black_box(r.entries_checked());
        });
        match check_rss {
            Some(bytes) => {
                println!(
                    "check-phase peak RSS, n={n}: {:.1} MiB",
                    bytes as f64 / (1024.0 * 1024.0)
                );
                rss_json.push(format!("  {{\"n\": {n}, \"check_bytes\": {bytes}}}"));
            }
            None => println!("check-phase peak RSS, n={n}: /proc clear_refs unavailable, skipped"),
        }
    }

    let speedups: Vec<String> = SIZES
        .iter()
        .map(|n| {
            let naive = mean_ns(&c, &format!("consistency/naive_scan/{n}"));
            let checker = mean_ns(&c, &format!("consistency/check_definition_3_8/{n}"));
            let s = naive / checker;
            println!("speedup checker vs naive, n={n}: {s:.1}x");
            format!("  {{\"n\": {n}, \"speedup\": {s:.3}}}")
        })
        .collect();

    let json = format!(
        "{{\n\"benches\": {},\n\"checker_vs_naive_speedup\": [\n{}\n],\n\"check_peak_rss\": [\n{}\n]\n}}\n",
        c.results_json().trim_end(),
        speedups.join(",\n"),
        rss_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_consistency.json");
    std::fs::write(path, json).expect("write BENCH_consistency.json");
    println!("wrote {path}");
}
