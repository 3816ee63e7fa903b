//! End-to-end validation of Theorems 1 and 2 across a matrix of spaces,
//! population sizes, and schedules — plus coverage of the rare `SpeNotiMsg`
//! repair path.

use hyperring::core::{MessageKind, SimNetworkBuilder, Status};
use hyperring::harness::distinct_ids;
use hyperring::id::IdSpace;
use hyperring::sim::UniformDelay;

/// Runs `n` members + `m` concurrent joiners and asserts both theorems.
fn run_case(b: u16, d: usize, n: usize, m: usize, seed: u64) -> u64 {
    let space = IdSpace::new(b, d).unwrap();
    let ids = distinct_ids(space, n + m, seed);
    let mut builder = SimNetworkBuilder::new(space);
    for id in &ids[..n] {
        builder.add_member(*id);
    }
    for (i, id) in ids[n..].iter().enumerate() {
        builder.add_joiner(*id, ids[i % n], 0);
    }
    let mut net = builder.build(UniformDelay::new(100, 150_000), seed);
    let report = net.run_limited(50_000_000);
    assert!(
        !report.truncated,
        "b={b} d={d} n={n} m={m} seed={seed}: no quiescence"
    );
    // Theorem 2.
    assert!(
        net.engines().all(|e| e.status() == Status::InSystem),
        "b={b} d={d} n={n} m={m} seed={seed}: joiner stuck"
    );
    // Theorem 1.
    let c = net.check_consistency();
    assert!(
        c.is_consistent(),
        "b={b} d={d} n={n} m={m} seed={seed}: {c}"
    );
    // Theorem 3.
    for e in net.joiners() {
        assert!(
            e.stats().cprst_plus_joinwait() <= (d + 1) as u64,
            "b={b} d={d} seed={seed}: Theorem 3 violated by {}",
            e.id()
        );
    }
    net.engines()
        .map(|e| e.stats().sent(MessageKind::SpeNoti))
        .sum()
}

#[test]
fn matrix_of_spaces_and_sizes() {
    for (b, d, n, m) in [
        (2u16, 10usize, 20usize, 20usize),
        (4, 6, 30, 30),
        (8, 5, 40, 20),
        (16, 8, 60, 30),
        (16, 40, 20, 12),
        (12, 4, 40, 20),
        (3, 7, 25, 25),
    ] {
        run_case(b, d, n, m, 1);
    }
}

#[test]
fn many_seeds_binary_space() {
    // Binary digits maximize suffix collisions — the most dependent joins.
    for seed in 0..15 {
        run_case(2, 9, 12, 24, seed);
    }
}

#[test]
fn minimal_network_single_member() {
    // V = {one node}; everyone else piles in concurrently.
    for seed in 0..5 {
        run_case(16, 6, 1, 30, seed);
    }
}

#[test]
fn spenoti_path_is_exercised_somewhere() {
    // Footnote 8: SpeNotiMsg is rarely sent — but the repair path must
    // actually fire under dense dependent concurrency. Hunt across seeds
    // in a tiny binary space until observed.
    let mut total = 0u64;
    for seed in 0..40 {
        total += run_case(2, 8, 4, 28, 1000 + seed);
        if total > 0 {
            break;
        }
    }
    assert!(
        total > 0,
        "SpeNotiMsg never sent across 40 dense concurrent-join runs; \
         the repair path is unreachable or the workload is too easy"
    );
}

#[test]
fn joiner_tables_have_only_s_states_at_the_end() {
    let space = IdSpace::new(8, 5).unwrap();
    let ids = distinct_ids(space, 50, 77);
    let mut builder = SimNetworkBuilder::new(space);
    for id in &ids[..30] {
        builder.add_member(*id);
    }
    for id in &ids[30..] {
        builder.add_joiner(*id, ids[0], 0);
    }
    let mut net = builder.build(UniformDelay::new(1_000, 90_000), 5);
    net.run();
    for e in net.engines() {
        for (l, d_, entry) in e.table().iter() {
            assert_eq!(
                entry.state,
                hyperring::core::NodeState::S,
                "{} entry ({l},{d_}) still T",
                e.id()
            );
        }
    }
}
