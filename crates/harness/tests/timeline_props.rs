//! Property tests of the timeline scenario runner: *random* seeded
//! timelines — population size, join count, crash wave size and instant
//! all drawn by proptest — must always settle to survivor-restricted
//! Definition-3.8 consistency once the schedule quiesces and the
//! hardened repair path has run its course; and the crash model's retry
//! backoff must be inert on lossless runs (it only reshapes the waits
//! after a first retransmission, which a prompt reply cancels).

use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
use hyperring_harness::{Scenario, Timeline};
use hyperring_id::IdSpace;
use proptest::prelude::*;

/// The crash model the Poisson-churn experiment runs: a detector with
/// repair on (which paces repair queries, backs retries off and turns
/// the join fallback on) and a churn-sized retry budget.
fn hardened() -> ProtocolOptions {
    ProtocolOptions::new()
        .with_failure_detector(FailureDetector {
            probe_interval_us: 100_000,
            ..FailureDetector::default()
        })
        .with_retry(RetryPolicy {
            timeout_us: 300_000,
            max_retries: 2,
            ..RetryPolicy::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random join-then-crash timelines: joiners start at t = 0, a crash
    /// wave lands somewhere in [1.5 s, 3 s] while late joins may still be
    /// in flight, and after quiescence the survivors must be consistent
    /// with zero dead references — no strand, no stale entry, regardless
    /// of the draw.
    #[test]
    fn random_timelines_settle_consistent(
        seed in 0u64..100_000,
        members in 10usize..16,
        joins in 0usize..4,
        crashes in 1usize..4,
        crash_at in 1_500_000u64..3_000_000,
    ) {
        let crashes = crashes.min(members / 4);
        let tl = Timeline::new()
            .at(0)
            .join(joins)
            .at(crash_at)
            .crash_count(crashes)
            .horizon(14_000_000);
        let r = Scenario::new(IdSpace::new(4, 6).unwrap())
            .members(members)
            .seed(seed)
            .options(hardened())
            .run(tl);
        prop_assert_eq!(r.crashed, crashes);
        prop_assert_eq!(r.survivors, members + joins - crashes);
        prop_assert_eq!(
            r.dead_refs, 0,
            "a survivor still stores a crashed node (seed {})", seed
        );
        prop_assert!(
            r.consistent,
            "survivors inconsistent after quiescence (seed {}, {} violations, {} false negatives)",
            seed, r.violations, r.false_negatives
        );
    }

    /// Under the crash model (a detector) retransmissions back off and
    /// jitter, but only the waits after the first one: a request is first
    /// guarded for exactly `timeout_us`. Joins one at a time, 2 s apart,
    /// have no reply deferred by a `T`-node, so every round trip is two
    /// delays in [40 ms, 50 ms]: under a 101 ms timeout no retry timer
    /// fires, and the lossless run is bit-identical to the same run with a
    /// ten-times longer timeout. A first wait jittered by ±10 % would
    /// expire before many of those replies.
    #[test]
    fn backoff_is_inert_without_loss(
        seed in 0u64..100_000,
        members in 10usize..20,
        joins in 1usize..5,
    ) {
        let space = IdSpace::new(4, 6).unwrap();
        let run = |timeout_us: u64| {
            let mut tl = Timeline::new();
            for k in 0..joins as u64 {
                tl = tl.at(k * 2_000_000).join(1).done();
            }
            let opts = ProtocolOptions::new()
                .with_failure_detector(FailureDetector::default())
                .with_retry(RetryPolicy {
                    timeout_us,
                    ..RetryPolicy::default()
                });
            Scenario::new(space)
                .members(members)
                .seed(seed)
                .delay_bounds(40_000, 50_000)
                .options(opts)
                .run(tl.horizon(10_000_000))
        };
        let tight = run(101_000);
        let loose = run(1_010_000);
        prop_assert_eq!(tight.survivors, members + joins);
        prop_assert_eq!(tight.timers_fired, loose.timers_fired);
        prop_assert_eq!(
            tight.trace_digest, loose.trace_digest,
            "a retry timer fired on a lossless run (seed {})", seed
        );
        prop_assert_eq!(tight.delivered, loose.delivered);
    }
}
