//! Golden determinism tests for the timeline scenario runner: a pinned
//! canonical schedule — joins, a crash wave, a graceful leave, a
//! checkpoint, and a keyed lookup storm — must reproduce exactly the trace
//! digest and headline counters recorded when the DSL landed. Any drift
//! means a change to the compiler, the runner, or the protocol altered
//! scheduled behavior, not just internals.
//!
//! Run with `GOLDEN_PRINT=1 cargo test -p hyperring-harness --test
//! timeline_golden -- --nocapture` to print the observed values when
//! (deliberately) re-recording.

use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
use hyperring_harness::{Scenario, Timeline};
use hyperring_id::IdSpace;

/// The canonical schedule: 24 members, 3 joiners at t = 0, a crash wave
/// of 5 at 2 s, one graceful leave at 4 s, a checkpoint at 8 s, a
/// 32-lookup keyed storm at 10 s, horizon 14 s.
fn canonical() -> Timeline {
    Timeline::new()
        .at(0)
        .join(3)
        .at(2_000_000)
        .crash_count(5)
        .at(4_000_000)
        .leave(1)
        .at(8_000_000)
        .checkpoint("settled")
        .at(10_000_000)
        .keyed_storm(32, 16, 0.9)
        .horizon(14_000_000)
}

fn scenario() -> Scenario {
    Scenario::new(IdSpace::new(4, 6).unwrap())
        .members(24)
        .seed(4242)
        .options(
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
                }),
        )
}

/// The canonical schedule's pinned outcome.
#[test]
fn canonical_timeline_matches_golden() {
    let r = scenario().run(canonical());
    let observed = (
        r.crashed,
        r.left,
        r.survivors,
        r.consistent,
        r.dead_refs,
        r.traced,
        r.trace_digest,
    );
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "canonical: ({}, {}, {}, {}, {}, {}, 0x{:016x})",
            observed.0, observed.1, observed.2, observed.3, observed.4, observed.5, observed.6
        );
        return;
    }
    let golden = (5, 1, 21, true, 0, 272, 0x72e1_7661_d9e8_c29e);
    assert_eq!(
        observed, golden,
        "canonical timeline drifted from the recorded golden run"
    );
    let ck = &r.checkpoints[0];
    assert!(
        ck.consistent,
        "settled checkpoint saw {} violations",
        ck.violations
    );
    let storm = &r.keyed_storms[0].stats;
    assert_eq!(storm.lost, 0, "storm lost lookups on the settled network");
    assert!(storm.max_hops <= 6);
}

/// Checkpoints and storms pause the simulator to inspect state; the
/// compiled schedule with them present must leave the protocol's own
/// event stream byte-identical to the same schedule without them.
#[test]
fn observation_events_do_not_perturb_the_golden_run() {
    let with_obs = scenario().run(canonical());
    let without_obs = scenario().run(
        Timeline::new()
            .at(0)
            .join(3)
            .at(2_000_000)
            .crash_count(5)
            .at(4_000_000)
            .leave(1)
            .horizon(14_000_000),
    );
    assert_eq!(with_obs.trace_digest, without_obs.trace_digest);
    assert_eq!(with_obs.delivered, without_obs.delivered);
    assert_eq!(with_obs.timers_fired, without_obs.timers_fired);
    assert_eq!(with_obs.finished_at, without_obs.finished_at);
}
