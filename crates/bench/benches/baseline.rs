//! Optimistic-join baseline vs the paper's protocol: run cost on the same
//! workload (the paper's protocol pays messages for its guarantee).

use criterion::{criterion_group, criterion_main, Criterion};
use hyperring_harness::{Scenario, Timeline};
use hyperring_id::IdSpace;
use std::hint::black_box;

fn bench_baseline(c: &mut Criterion) {
    let space = IdSpace::new(4, 6).unwrap();
    let scenario = Scenario::new(space)
        .members(16)
        .seed(3)
        .delay_bounds(1_000, 100_000)
        .reachability();
    let mut g = c.benchmark_group("baseline");
    g.sample_size(10);
    g.bench_function("optimistic_join_wave", |b| {
        b.iter(|| {
            let r = scenario.clone().optimistic().run(Timeline::join_wave(32));
            black_box(r.false_negatives)
        })
    });
    g.bench_function("paper_protocol_wave", |b| {
        b.iter(|| {
            let r = scenario.run(Timeline::join_wave(32));
            assert!(r.consistent);
            black_box(r.unreachable_pairs)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_baseline);
criterion_main!(benches);
