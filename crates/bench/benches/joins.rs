//! Join-protocol throughput: complete join waves of varying concurrency,
//! §6.1 sequential bootstrap, and the oracle's table construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperring_core::{bootstrap_sequential, ProtocolOptions, SimNetworkBuilder};
use hyperring_harness::distinct_ids;
use hyperring_id::IdSpace;
use hyperring_sim::UniformDelay;
use std::hint::black_box;

fn bench_join_waves(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("join_waves");
    g.sample_size(10);
    for m in [16usize, 64, 128] {
        let n = 256;
        let ids = distinct_ids(space, n + m, 5);
        g.throughput(Throughput::Elements(m as u64));
        g.bench_with_input(BenchmarkId::new("concurrent_joins_n256", m), &m, |b, &m| {
            b.iter(|| {
                let mut builder = SimNetworkBuilder::new(space);
                for id in &ids[..n] {
                    builder.add_member(*id);
                }
                for (i, id) in ids[n..n + m].iter().enumerate() {
                    builder.add_joiner(*id, ids[i % n], 0);
                }
                let mut net = builder.build(UniformDelay::new(1_000, 60_000), 2);
                net.run();
                assert!(net.all_in_system());
                black_box(net.now())
            })
        });
    }
    g.finish();
}

/// §6.1: a seed node and `n - 1` joins, one at a time.
fn bench_bootstrap_sequential(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("bootstrap_sequential");
    g.sample_size(3);
    for n in [256usize, 1024] {
        let ids = distinct_ids(space, n, 11);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let tables = bootstrap_sequential(space, ProtocolOptions::new(), &ids);
                assert_eq!(tables.len(), n);
                black_box(tables.len())
            })
        });
    }
    g.finish();
}

fn bench_oracle(c: &mut Criterion) {
    let space = IdSpace::new(16, 8).unwrap();
    let mut g = c.benchmark_group("oracle_tables");
    g.sample_size(10);
    for n in [256usize, 1024] {
        let ids = distinct_ids(space, n, 7);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("build_consistent", n), &n, |b, _| {
            b.iter(|| black_box(hyperring_core::build_consistent_tables(space, &ids)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_join_waves,
    bench_bootstrap_sequential,
    bench_oracle
);
criterion_main!(benches);
