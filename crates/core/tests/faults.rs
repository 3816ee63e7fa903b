//! End-to-end fault injection: the join protocol must still reach
//! Definition 3.8 consistency when the network drops and duplicates
//! messages, with recovery driven entirely by the engine's timer retries
//! (`RetryPolicy`). The paper assumes reliable delivery; these tests show
//! the timeout/retransmission layer restores that assumption on top of a
//! lossy substrate.

use hyperring_core::{NodeState, ProtocolOptions, RetryPolicy, SimNetworkBuilder};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{FaultyDelay, UniformDelay};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn distinct(space: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
    space.distinct_ids(n, &mut StdRng::seed_from_u64(seed))
}

/// 64 nodes (16 members, 48 concurrent joiners) on a network that drops
/// 10% and duplicates 2% of all messages. Every joiner must still reach
/// `in_system` and the final tables must satisfy Definition 3.8 — losses
/// repaired by timer-driven retransmission, duplicates absorbed by the
/// engine's reply guards.
#[test]
fn sixty_four_nodes_join_through_ten_percent_drop() {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 64, 42);
    let (v, w) = ids.split_at(16);
    let mut b = SimNetworkBuilder::new(space);
    for id in v {
        b.add_member(*id);
    }
    for id in w {
        b.add_joiner(*id, v[0], 0);
    }
    b.options(ProtocolOptions::new().with_retry(RetryPolicy {
        timeout_us: 300_000,
        max_retries: 30,
        ..RetryPolicy::default()
    }));
    let delay = FaultyDelay::new(UniformDelay::new(1_000, 50_000), 0.10, 0.02);
    let mut net = b.build(delay, 4242);
    let report = net.run();
    assert!(!report.truncated, "run failed to quiesce");
    assert!(report.dropped > 0, "fault injection never fired");
    assert!(report.duplicated > 0, "duplication never fired");
    assert!(
        report.timers_fired > 0,
        "recovery must have come from timer retries"
    );
    assert!(
        net.all_in_system(),
        "a joiner stalled despite retries ({} drops, {} timer fires)",
        report.dropped,
        report.timers_fired
    );
    let rep = net.check_consistency();
    assert!(rep.is_consistent(), "{rep}");
}

/// 20% loss and 5% duplication: every notification is acknowledged or
/// gives up, so at quiescence no engine still guards a request, the
/// tables satisfy Definition 3.8, and — `InSysNoti` being retransmitted
/// until its `Pong` arrives — every storer records every node as `S`.
#[test]
fn heavy_loss_leaves_no_live_timer_and_no_t_state_behind() {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 40, 7);
    let (v, w) = ids.split_at(10);
    for seed in 0..4 {
        let mut b = SimNetworkBuilder::new(space);
        for id in v {
            b.add_member(*id);
        }
        for id in w {
            b.add_joiner(*id, v[0], 0);
        }
        b.options(ProtocolOptions::new().with_retry(RetryPolicy {
            timeout_us: 300_000,
            max_retries: 40,
            ..RetryPolicy::default()
        }));
        let delay = FaultyDelay::new(UniformDelay::new(1_000, 50_000), 0.20, 0.05);
        let mut net = b.build(delay, seed);
        let report = net.run();
        assert!(!report.truncated, "seed {seed}: run failed to quiesce");
        assert!(report.dropped > 0 && report.duplicated > 0);
        assert!(net.all_in_system(), "seed {seed}: a joiner stalled");
        for e in net.engines() {
            let live: Vec<_> = e.live_timers().collect();
            assert!(
                live.is_empty(),
                "seed {seed}: {} still guards {live:?}",
                e.id()
            );
            for (level, digit, entry) in e.table().iter() {
                assert_eq!(
                    entry.state,
                    NodeState::S,
                    "seed {seed}: {} records {} as T at ({level}, {digit})",
                    e.id(),
                    entry.node
                );
            }
        }
        let rep = net.check_consistency();
        assert!(rep.is_consistent(), "seed {seed}: {rep}");
    }
}

/// Without a retry policy the same lossy network strands joiners: the
/// control experiment showing the timers are what Theorem 2's liveness
/// rides on once delivery is unreliable.
#[test]
fn drops_without_retries_strand_joiners() {
    let space = IdSpace::new(4, 6).unwrap();
    let ids = distinct(space, 32, 42);
    let (v, w) = ids.split_at(16);
    let mut stranded = 0;
    for seed in 0..4 {
        let mut b = SimNetworkBuilder::new(space);
        for id in v {
            b.add_member(*id);
        }
        for id in w {
            b.add_joiner(*id, v[0], 0);
        }
        let delay = FaultyDelay::new(UniformDelay::new(1_000, 50_000), 0.10, 0.02);
        let mut net = b.build(delay, seed);
        let report = net.run();
        assert!(!report.truncated);
        if !net.all_in_system() {
            stranded += 1;
        }
    }
    assert!(
        stranded > 0,
        "10% drop over 4 seeds never stranded a retry-less joiner"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random loss rates up to 15% (and duplication up to 10%), random
    /// seeds: bounded retries always reach `all_in_system` and a table set
    /// satisfying Definition 3.8.
    #[test]
    fn retries_recover_from_random_drops(
        seed in 0u64..10_000,
        drop_pct in 0u32..16,
        dup_pct in 0u32..11,
    ) {
        let space = IdSpace::new(4, 4).unwrap();
        let ids = distinct(space, 10, seed ^ 0xD1CE);
        let (v, w) = ids.split_at(6);
        let mut b = SimNetworkBuilder::new(space);
        for id in v {
            b.add_member(*id);
        }
        for id in w {
            b.add_joiner(*id, v[0], 0);
        }
        b.options(ProtocolOptions::new().with_retry(RetryPolicy {
            timeout_us: 200_000,
            max_retries: 40,
            ..RetryPolicy::default()
        }));
        let delay = FaultyDelay::new(
            UniformDelay::new(1_000, 40_000),
            f64::from(drop_pct) / 100.0,
            f64::from(dup_pct) / 100.0,
        );
        let mut net = b.build(delay, seed);
        let report = net.run();
        prop_assert!(!report.truncated);
        prop_assert!(net.all_in_system(), "stranded at drop={drop_pct}% seed={seed}");
        let rep = net.check_consistency();
        prop_assert!(rep.is_consistent(), "{}", rep);
    }
}
