//! Join-protocol throughput trajectory: concurrent-join waves at several
//! network sizes, and §6.1 sequential bootstrap on the incremental
//! single-simulator path.
//!
//! Runs with a hand-rolled `main` (like the consistency bench) so the
//! measurements and the before/after trajectory can be exported to
//! `BENCH_join.json` at the workspace root. Set `BENCH_SMOKE=1` to run
//! one short iteration of each shape without touching the JSON (the CI
//! smoke step).

use criterion::{BenchmarkId, Criterion, Throughput};
use hyperring_core::{bootstrap_batched, bootstrap_sequential, ProtocolOptions, SimNetworkBuilder};
use hyperring_harness::distinct_ids;
use hyperring_harness::metrics::{cores, peak_rss_bytes};
use hyperring_id::IdSpace;
use hyperring_sim::UniformDelay;
use std::hint::black_box;

/// Total population of a concurrent-join run; 3/4 are oracle-built
/// members, 1/4 join concurrently at t = 0.
const JOIN_SIZES: [usize; 3] = [64, 256, 1024];

/// Population of a sequential-bootstrap run (seed node + n-1 joins).
const BOOTSTRAP_SIZES: [usize; 2] = [256, 1024];

/// Population of the scaling row (batched concurrent bootstrap).
const SCALE_N: usize = 4096;
/// Joiners per concurrent wave of the scaling row.
const SCALE_BATCH: usize = 256;

/// Pre-refactor measurements (ns/iter) of the same shapes, taken from a
/// build of the commit immediately before the zero-copy simulation core
/// landed (snapshot memoization, shared directory snapshots, oracle
/// suffix-row lookups, incremental bootstrap). Concurrent numbers are
/// medians of interleaved before/after runs in one session on one
/// machine, so load drift cancels out. Bootstrap numbers are a
/// rebuild-per-join bootstrap (a fresh simulator built from all tables so
/// far before every join) timed in the same session on the refactored
/// engine — a conservative "before", since it also benefits from the
/// per-join engine speedups. Machine-specific.
const SEED_CONCURRENT_NS: [(usize, f64); 3] =
    [(64, 898_000.0), (256, 6_131_000.0), (1024, 40_943_000.0)];
const SEED_BOOTSTRAP_NS: [(usize, f64); 2] = [(256, 117_204_000.0), (1024, 2_610_774_000.0)];

fn bench_concurrent_joins(c: &mut Criterion, sizes: &[usize]) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("join_throughput");
    g.sample_size(10);
    for &n in sizes {
        let members = n * 3 / 4;
        let joiners = n - members;
        let ids = distinct_ids(space, n, 5);
        g.throughput(Throughput::Elements(joiners as u64));
        g.bench_with_input(BenchmarkId::new("concurrent", n), &n, |b, _| {
            b.iter(|| {
                let mut builder = SimNetworkBuilder::new(space);
                for id in &ids[..members] {
                    builder.add_member(*id);
                }
                for (i, id) in ids[members..].iter().enumerate() {
                    builder.add_joiner(*id, ids[i % members], 0);
                }
                let mut net = builder.build(UniformDelay::new(1_000, 60_000), 2);
                let report = net.run();
                assert!(net.all_in_system());
                black_box(report.delivered)
            })
        });
    }
    g.finish();
}

fn bench_bootstrap(c: &mut Criterion, sizes: &[usize]) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("join_throughput");
    g.sample_size(3);
    for &n in sizes {
        let ids = distinct_ids(space, n, 11);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("bootstrap_sequential", n), &n, |b, _| {
            b.iter(|| {
                let tables = bootstrap_sequential(space, ProtocolOptions::new(), &ids);
                assert_eq!(tables.len(), n);
                black_box(tables.len())
            })
        });
    }
    g.finish();
}

/// Batched concurrent bootstrap of `n` nodes in waves of `batch`.
fn bench_scale(c: &mut Criterion, n: usize, batch: usize) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, n, 13);
    let mut g = c.benchmark_group("join_throughput");
    g.sample_size(2);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_with_input(BenchmarkId::new("scale", n), &n, |b, _| {
        b.iter(|| {
            let tables = bootstrap_batched(space, ProtocolOptions::new(), &ids, batch);
            assert_eq!(tables.len(), n);
            black_box(tables.len())
        })
    });
    g.finish();
}

fn mean_ns(c: &Criterion, id: &str) -> Option<f64> {
    c.results().iter().find(|r| r.id == id).map(|r| r.mean_ns)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let mut c = Criterion::default();
    if smoke {
        bench_concurrent_joins(&mut c, &[64]);
        bench_bootstrap(&mut c, &[64]);
        // The scaling row keeps its full n even in smoke mode: it is the
        // size the committed numbers are quoted at.
        bench_scale(&mut c, SCALE_N, SCALE_BATCH);
        println!("smoke run complete; BENCH_join.json left untouched");
        return;
    }
    bench_concurrent_joins(&mut c, &JOIN_SIZES);
    bench_bootstrap(&mut c, &BOOTSTRAP_SIZES);
    bench_scale(&mut c, SCALE_N, SCALE_BATCH);

    let mut trajectory = Vec::new();
    for (shape, seeds) in [
        ("concurrent", &SEED_CONCURRENT_NS[..]),
        ("bootstrap_sequential", &SEED_BOOTSTRAP_NS[..]),
    ] {
        for &(n, before) in seeds {
            if let Some(after) = mean_ns(&c, &format!("join_throughput/{shape}/{n}")) {
                let speedup = if after > 0.0 { before / after } else { 0.0 };
                println!(
                    "{shape} n={n}: before {before:.0} ns, after {after:.0} ns ({speedup:.2}x)"
                );
                trajectory.push(format!(
                    "  {{\"shape\": \"{shape}\", \"n\": {n}, \"before_ns\": {before:.1}, \"after_ns\": {after:.1}, \"speedup\": {speedup:.3}}}"
                ));
            }
        }
    }

    // Scaling row: nodes/sec at SCALE_N. Peak RSS is the process
    // high-water mark, so an upper bound over every shape above.
    let rss = peak_rss_bytes().unwrap_or(0);
    let ncores = cores();
    let mut scale_rows = Vec::new();
    if let Some(ns) = mean_ns(&c, &format!("join_throughput/scale/{SCALE_N}")) {
        let nodes_per_sec = SCALE_N as f64 / (ns / 1e9);
        println!(
            "scale n={SCALE_N}: {ns:.0} ns/iter, {nodes_per_sec:.0} nodes/sec, peak RSS {rss} B, {ncores} core(s)"
        );
        scale_rows.push(format!(
            "  {{\"shape\": \"scale\", \"n\": {SCALE_N}, \"mean_ns\": {ns:.1}, \"nodes_per_sec\": {nodes_per_sec:.1}, \"peak_rss_bytes\": {rss}, \"cores\": {ncores}}}"
        ));
    }

    let json = format!(
        "{{\n\"benches\": {},\n\"before_after\": [\n{}\n],\n\"scale\": [\n{}\n],\n\"cores\": {ncores}\n}}\n",
        c.results_json().trim_end(),
        trajectory.join(",\n"),
        scale_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_join.json");
    std::fs::write(path, json).expect("write BENCH_join.json");
    println!("wrote {path}");
}
