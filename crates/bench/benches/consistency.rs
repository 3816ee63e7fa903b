//! Cost of the Definition-3.8 consistency checker versus the naive
//! O(n²·d·b) scan, plus the quadratic reachability verifier. The check
//! phase's peak RSS is held to a budget by `scale --check-rss-budget-mib`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperring_core::{
    build_consistent_tables, check_consistency, check_consistency_naive, check_reachability,
};
use hyperring_harness::distinct_ids;
use hyperring_id::IdSpace;
use std::hint::black_box;

const SIZES: [usize; 3] = [256, 1024, 4096];

/// Large-n tier: the checker is timed here too (the naive scan would take
/// ~40 min at this size and is covered by its trajectory at [`SIZES`]).
const BIG_N: usize = 65536;

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

fn bench_big(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct_ids(space, BIG_N, 13);
    let tables = build_consistent_tables(space, &ids);
    let mut g = c.benchmark_group("consistency");
    g.sample_size(3);
    g.throughput(Throughput::Elements(BIG_N as u64));
    g.bench_with_input(
        BenchmarkId::new("check_definition_3_8", BIG_N),
        &BIG_N,
        |b, _| {
            b.iter(|| {
                let r = check_consistency(space, black_box(&tables));
                assert!(r.is_consistent());
                black_box(r.entries_checked())
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_consistency, bench_big);
criterion_main!(benches);
