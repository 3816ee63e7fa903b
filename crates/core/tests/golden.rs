//! Golden determinism tests: fixed-seed scenarios must reproduce exactly
//! the `RunReport` and final tables recorded before the zero-copy
//! simulation-core refactor (snapshot memoization, directory interner,
//! incremental bootstrap). Any drift here means the optimization changed
//! protocol behavior, not just speed.
//!
//! Each test has a `*_over_loopback` twin that sends every protocol
//! message through the wire codec and a real loopback socket
//! ([`common::Hop`]) and must read the same golden.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -p hyperring-core --test golden
//! -- --nocapture` to print the observed values when (deliberately)
//! re-recording.

mod common;

use common::Hop;
use hyperring_core::{
    check_consistency, tables_digest, DigestTrace, JoinEngine, NeighborTable, ProtocolOptions,
    SharedSink, SimNetworkBuilder,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{ConstantDelay, UniformDelay};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = space.random_id(&mut rng);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

fn check(name: &str, observed: (u64, u64, bool, u64), golden: (u64, u64, bool, u64)) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "{name}: ({}, {}, {}, 0x{:016x})",
            observed.0, observed.1, observed.2, observed.3
        );
        return;
    }
    assert_eq!(
        observed, golden,
        "{name} drifted from the recorded golden run"
    );
}

/// The paper's Figure 2 scenario: five members, three concurrent joiners.
fn figure2_concurrent_join(socket: bool) {
    let space = IdSpace::new(8, 5).unwrap();
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for s in ["72430", "10353", "62332", "13141", "31701"] {
        b.add_member(space.parse_id(s).unwrap());
    }
    let gateway = space.parse_id("72430").unwrap();
    for s in ["10261", "47051", "00261"] {
        b.add_joiner(space.parse_id(s).unwrap(), gateway, 0);
    }
    let mut net = b.build(UniformDelay::new(1_000, 80_000), 1234);
    let report = net.run();
    hop.check();
    let observed = (
        report.delivered,
        report.finished_at,
        net.check_consistency().is_consistent(),
        tables_digest(&net.tables()),
    );
    check(
        "figure2",
        observed,
        (60, 520_793, true, 0xa060_6a01_b74e_1e11),
    );
}

#[test]
fn golden_figure2_concurrent_join() {
    figure2_concurrent_join(false);
}

#[test]
fn golden_figure2_concurrent_join_over_loopback() {
    figure2_concurrent_join(true);
}

/// 40 random nodes (b=4, d=6): 25 members, 15 concurrent joiners.
fn forty_node_concurrent_join(socket: bool) {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 40, 5);
    let (v, w) = ids.split_at(25);
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for id in v {
        b.add_member(*id);
    }
    for id in w {
        b.add_joiner(*id, v[0], 0);
    }
    let mut net = b.build(UniformDelay::new(100, 200_000), 99);
    let report = net.run();
    hop.check();
    let observed = (
        report.delivered,
        report.finished_at,
        net.check_consistency().is_consistent(),
        tables_digest(&net.tables()),
    );
    check(
        "forty_node",
        observed,
        (358, 1_495_051, true, 0x8b04_5360_ccdc_6dc7),
    );
}

#[test]
fn golden_forty_node_concurrent_join() {
    forty_node_concurrent_join(false);
}

#[test]
fn golden_forty_node_concurrent_join_over_loopback() {
    forty_node_concurrent_join(true);
}

/// The Figure 2 scenario again, with a digest sink attached: the ordered
/// stream of `ProtocolEvent`s is itself part of the golden fingerprint.
/// Two invariants at once — attaching a trace must not perturb the run
/// (delivered/finished_at equal the untraced golden above), and the trace
/// content must be bit-stable under a fixed seed.
fn figure2_trace_digest(socket: bool) {
    let space = IdSpace::new(8, 5).unwrap();
    let hop = Hop::new(space, socket);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    for s in ["72430", "10353", "62332", "13141", "31701"] {
        b.add_member(space.parse_id(s).unwrap());
    }
    let gateway = space.parse_id("72430").unwrap();
    for s in ["10261", "47051", "00261"] {
        b.add_joiner(space.parse_id(s).unwrap(), gateway, 0);
    }
    let sink = SharedSink::new(DigestTrace::new());
    b.trace(Box::new(sink.clone()));
    let mut net = b.build(UniformDelay::new(1_000, 80_000), 1234);
    let report = net.run();
    hop.check();
    assert_eq!(
        (report.delivered, report.finished_at),
        (60, 520_793),
        "tracing perturbed the run itself"
    );
    let digest = *sink.lock();
    assert_eq!(digest.count(), report.traced, "sink missed records");
    let observed = (
        digest.count(),
        report.finished_at,
        net.check_consistency().is_consistent(),
        digest.digest(),
    );
    check(
        "figure2_trace",
        observed,
        (63, 520_793, true, 0xb38d_2be8_4c38_6573),
    );
}

#[test]
fn golden_figure2_trace_digest() {
    figure2_trace_digest(false);
}

#[test]
fn golden_figure2_trace_digest_over_loopback() {
    figure2_trace_digest(true);
}

/// §6.1 bootstrap of `ids` in waves of `batch`:
/// [`hyperring_core::bootstrap`], or, when `socket`, the same loop
/// re-stated over the public builder with every message sent through a
/// loopback carrier.
fn bootstrap(space: IdSpace, ids: &[NodeId], batch: usize, socket: bool) -> Vec<NeighborTable> {
    let opts = ProtocolOptions::new();
    if !socket {
        return hyperring_core::bootstrap(space, opts, ids, batch).tables();
    }
    let hop = Hop::new(space, true);
    let mut b = SimNetworkBuilder::new(space);
    hop.attach(&mut b);
    b.options(opts)
        .with_member_tables(vec![JoinEngine::new_seed(space, opts, ids[0])
            .table()
            .clone()]);
    let mut net = b.build(ConstantDelay(1), 0);
    for wave in ids[1..].chunks(batch) {
        net.add_joiners_live(wave, ids[0]);
        net.run();
        assert!(net.all_in_system(), "join wave failed to terminate");
    }
    hop.check();
    net.tables()
}

/// §6.1 sequential bootstrap of 24 nodes (b=8, d=5).
fn sequential_bootstrap(socket: bool) {
    let space = IdSpace::new(8, 5).unwrap();
    let ids = distinct(space, 24, 17);
    let tables = bootstrap(space, &ids, 1, socket);
    let observed = (
        tables.len() as u64,
        0,
        check_consistency(space, &tables).is_consistent(),
        tables_digest(&tables),
    );
    check(
        "bootstrap24",
        observed,
        (24, 0, true, 0x171e_f58e_446d_553c),
    );
}

#[test]
fn golden_sequential_bootstrap() {
    sequential_bootstrap(false);
}

#[test]
fn golden_sequential_bootstrap_over_loopback() {
    sequential_bootstrap(true);
}

/// Fingerprints a batched concurrent bootstrap (b=16, d=8) of `n` nodes
/// in waves of `batch`, over loopback when `socket`.
fn batched_bootstrap_digest(
    name: &str,
    n: usize,
    seed: u64,
    batch: usize,
    golden: u64,
    socket: bool,
) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct(space, n, seed);
    let tables = bootstrap(space, &ids, batch, socket);
    let observed = (
        tables.len() as u64,
        0,
        check_consistency(space, &tables).is_consistent(),
        tables_digest(&tables),
    );
    check(name, observed, (n as u64, 0, true, golden));
}

/// Batched concurrent bootstrap at n=256 (seed 7, waves of 32).
fn batched_bootstrap_n256(socket: bool) {
    batched_bootstrap_digest(
        "batched_bootstrap_n256",
        256,
        7,
        32,
        0xca26_c1c7_6a53_5e86,
        socket,
    );
}

#[test]
fn golden_batched_bootstrap_n256() {
    batched_bootstrap_n256(false);
}

#[test]
fn golden_batched_bootstrap_n256_over_loopback() {
    batched_bootstrap_n256(true);
}

/// Same at n=1024, many waves deep. Ignored by default (seconds of
/// debug-mode work); exercised in CI's release-mode scale step.
fn batched_bootstrap_n1024(socket: bool) {
    batched_bootstrap_digest(
        "batched_bootstrap_n1024",
        1024,
        11,
        128,
        0xa6c7_e573_3108_65d7,
        socket,
    );
}

#[test]
#[ignore = "slow in debug builds; run with --ignored --release"]
fn golden_batched_bootstrap_n1024() {
    batched_bootstrap_n1024(false);
}

#[test]
#[ignore = "slow in debug builds; run with --ignored --release"]
fn golden_batched_bootstrap_n1024_over_loopback() {
    batched_bootstrap_n1024(true);
}

/// 100k-scale smoke test: a 65 536-node batched concurrent bootstrap
/// completes. Release-only (`--ignored`).
fn batched_bootstrap_n65536(socket: bool) {
    let space = IdSpace::new(16, 8).unwrap();
    let ids = distinct(space, 65_536, 13);
    let tables = bootstrap(space, &ids, 2048, socket);
    assert_eq!(tables.len(), 65_536);
}

#[test]
#[ignore = "large-n smoke test; run with --ignored --release"]
fn batched_bootstrap_n65536_completes() {
    batched_bootstrap_n65536(false);
}

#[test]
#[ignore = "large-n smoke test; run with --ignored --release"]
fn batched_bootstrap_n65536_completes_over_loopback() {
    batched_bootstrap_n65536(true);
}
