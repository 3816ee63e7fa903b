//! Property tests of the timeline scenario runner: *random* seeded
//! timelines — population size, join count, crash wave size and instant
//! all drawn by proptest — must always settle to survivor-restricted
//! Definition-3.8 consistency once the schedule quiesces and the
//! hardened repair path has run its course; and retry backoff must be
//! inert on lossless runs (it only reshapes timers that never fire).

use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
use hyperring_harness::{Scenario, Timeline};
use hyperring_id::IdSpace;
use proptest::prelude::*;

/// The hardened repair/fallback options the Poisson-churn experiment
/// runs with: detector + repair on, bounded in-flight repair queries,
/// exponential re-query pacing, a churn-sized retry budget, and the
/// join gateway fallback.
fn hardened() -> ProtocolOptions {
    ProtocolOptions::new()
        .with_failure_detector(FailureDetector {
            probe_interval_us: 100_000,
            suspicion_threshold: 3,
            repair: true,
            max_repairs_in_flight: 4,
            repair_backoff: true,
        })
        .with_retry(RetryPolicy {
            timeout_us: 300_000,
            max_retries: 2,
            backoff_pct: 200,
            jitter_pct: 10,
            join_fallback: true,
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

    /// Retry backoff and jitter only reshape the reply-awaiting timers,
    /// and on a lossless run no reply-awaiting timer ever fires — so a
    /// join-only timeline must produce a bit-identical protocol trace
    /// with backoff cranked all the way up or left at the default.
    #[test]
    fn backoff_is_inert_without_loss(
        seed in 0u64..100_000,
        members in 10usize..20,
        joins in 1usize..5,
    ) {
        let space = IdSpace::new(4, 6).unwrap();
        let run = |retry: RetryPolicy| {
            let tl = Timeline::new().at(0).join(joins).horizon(10_000_000);
            Scenario::new(space)
                .members(members)
                .seed(seed)
                .options(ProtocolOptions::new().with_retry(retry))
                .run(tl)
        };
        let plain = run(RetryPolicy::default());
        let backed = run(RetryPolicy {
            backoff_pct: 300,
            jitter_pct: 25,
            ..RetryPolicy::default()
        });
        prop_assert_eq!(plain.survivors, members + joins);
        prop_assert_eq!(
            plain.trace_digest, backed.trace_digest,
            "backoff perturbed a lossless run (seed {})", seed
        );
        prop_assert_eq!(plain.delivered, backed.delivered);
        prop_assert_eq!(plain.finished_at, backed.finished_at);
    }
}
