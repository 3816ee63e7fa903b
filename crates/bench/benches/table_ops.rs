//! Microbenchmarks of the neighbor-table data structure: building and
//! scanning snapshots (the dominant per-message cost), lookups, and the
//! §6.2 bit-vector filters. Set `BENCH_SMOKE=1` for d = 8 only, two
//! samples a row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperring_core::{build_consistent_tables, NeighborTable};
use hyperring_harness::distinct_ids;
use hyperring_id::IdSpace;
use std::hint::black_box;

fn full_table(d: usize) -> NeighborTable {
    let space = IdSpace::new(16, d).unwrap();
    let ids = distinct_ids(space, 512, 3);
    build_consistent_tables(space, &ids).remove(0)
}

fn bench_table_ops(c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let sizes: &[usize] = if smoke { &[8] } else { &[8, 40] };
    for &d in sizes {
        let t = full_table(d);
        let mut g = c.benchmark_group(format!("table_d{d}"));
        g.sample_size(if smoke { 2 } else { 20 });
        // A build of the full snapshot: `snapshot()` would hand back the
        // memoized one, since the table does not change between calls.
        g.bench_with_input(BenchmarkId::new("snapshot_full", d), &d, |b, &d| {
            b.iter(|| black_box(t.snapshot_levels(0, d)))
        });
        g.bench_with_input(BenchmarkId::new("snapshot_levels_half", d), &d, |b, &d| {
            b.iter(|| black_box(t.snapshot_levels(0, d / 2)))
        });
        g.bench_with_input(BenchmarkId::new("filled_bitvec", d), &d, |b, _| {
            b.iter(|| black_box(t.filled_bitvec()))
        });
        let bits = t.filled_bitvec();
        g.bench_with_input(BenchmarkId::new("snapshot_bitvec", d), &d, |b, _| {
            b.iter(|| black_box(t.snapshot_bitvec(2, &bits)))
        });
        let owner = t.owner();
        g.bench_with_input(BenchmarkId::new("get", d), &d, |b, _| {
            b.iter(|| black_box(t.get(black_box(1), owner.digit(1))))
        });
        let snap = t.snapshot();
        g.bench_with_input(BenchmarkId::new("snapshot_clone", d), &d, |b, _| {
            b.iter(|| black_box(snap.clone()))
        });
        // Every row read once, as a receiver's scan of a payload does.
        g.bench_with_input(BenchmarkId::new("snapshot_scan", d), &d, |b, _| {
            b.iter(|| {
                let mut sum = 0usize;
                for r in snap.rows() {
                    sum += r.level as usize + r.entry.node.digit(0) as usize;
                }
                black_box(sum)
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_table_ops);
criterion_main!(benches);
