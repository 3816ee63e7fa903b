//! Steady-state Poisson churn: the paper's dynamic network, run as a
//! continuous process rather than a one-shot wave. Node lifetimes are
//! exponential with a configurable half-life, so departures form a
//! Poisson process of rate `λ = n · ln2 / t½`; arrivals form an
//! independent Poisson process of the same rate, holding the population
//! near `n`. Every departure is a *silent crash* — the failure detector
//! must notice, evict, and (in the repair arm) refill the vacated slots
//! while the next disruptions are already landing.
//!
//! Churn runs over `[0, churn_until]`; the tail up to `horizon` is
//! quiescent so the final checkpoints measure whether repair *converges*
//! once disruptions stop, not merely whether it keeps pace. Periodic
//! [`Timeline`] checkpoints yield consistency-recovery spans, and the
//! [`ChurnLog`](crate::timeline::ChurnLog) trace sink yields per-slot
//! time-to-repair samples; both are reported as raw vectors so callers
//! can build CDFs (p50/p95/p99 via [`crate::metrics::percentile`]).
//!
//! The repair arm runs the hardened recovery path — exponential backoff
//! with deterministic jitter on reply-awaiting retries, bounded repair
//! queries in flight, exponential re-query pacing — plus gateway
//! fallback for joins whose contact crashes mid-handshake. The control
//! arm evicts but never repairs, pinning down what the repair subsystem
//! (and not mere eviction) buys.

use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
use hyperring_id::IdSpace;
use hyperring_sim::Time;

use crate::timeline::{CheckpointReport, Timeline, TimelineScenario};

/// Shape of a steady-state Poisson churn run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonChurnConfig {
    /// Identifier base `b`.
    pub base: u16,
    /// Identifier length `d`.
    pub digits: usize,
    /// Size of the initial consistent network `V` (and the target
    /// steady-state population).
    pub members: usize,
    /// Node-lifetime half-life (virtual µs). Departure rate is
    /// `members · ln2 / half_life_us`; arrivals match it.
    pub half_life_us: u64,
    /// End of the churn window: no crash or join is scheduled after this.
    pub churn_until: Time,
    /// End of the run; the `[churn_until, horizon]` tail is quiescent so
    /// late checkpoints measure convergence.
    pub horizon: Time,
    /// Spacing of consistency checkpoints (µs).
    pub checkpoint_every: Time,
    /// Probe interval and suspicion threshold; `repair` and the pacing
    /// fields are overridden per arm by [`run_poisson_churn`].
    pub fd: FailureDetector,
}

impl Default for PoissonChurnConfig {
    fn default() -> Self {
        PoissonChurnConfig {
            base: 4,
            digits: 6,
            members: 64,
            half_life_us: 20_000_000,
            churn_until: 14_000_000,
            horizon: 30_000_000,
            checkpoint_every: 2_000_000,
            fd: FailureDetector {
                probe_interval_us: 200_000,
                suspicion_threshold: 3,
                repair: true,
                ..FailureDetector::default()
            },
        }
    }
}

impl PoissonChurnConfig {
    /// Expected departures over the churn window
    /// (`members · ln2 · churn_until / half_life_us`).
    pub fn expected_departures(&self) -> f64 {
        (self.members as f64) * std::f64::consts::LN_2 * (self.churn_until as f64)
            / (self.half_life_us as f64)
    }
}

/// Outcome of one Poisson-churn arm.
#[derive(Debug, Clone)]
pub struct PoissonChurnResult {
    /// The half-life this arm ran under (µs).
    pub half_life_us: u64,
    /// Crashes the schedule produced (Poisson draw; capped at
    /// `members − 1`).
    pub crashed: usize,
    /// Joins the schedule produced.
    pub joins: usize,
    /// Whether the crash draw hit the `members − 1` cap (the schedule is
    /// then truncated, not thinned).
    pub crash_capped: bool,
    /// Live nodes at the end.
    pub survivors: usize,
    /// Definition-3.8 violations among the survivor tables at the end.
    pub violations: usize,
    /// The reachability-breaking subset of those.
    pub false_negatives: usize,
    /// Whether the run ended consistent.
    pub consistent: bool,
    /// Survivor table entries still naming a crashed node.
    pub dead_refs: usize,
    /// Per-checkpoint consistency verdicts, in schedule order.
    pub checkpoints: Vec<CheckpointReport>,
    /// Slots evicted over the run.
    pub evicted: u64,
    /// Slots repaired over the run.
    pub repaired: u64,
    /// Eviction-to-repair latency samples (µs).
    pub ttr_from_eviction_us: Vec<u64>,
    /// Crash-to-repair latency samples (µs).
    pub ttr_from_crash_us: Vec<u64>,
    /// Consistency-recovery spans (µs).
    pub recovery_us: Vec<u64>,
    /// Messages delivered over the run.
    pub delivered: u64,
    /// Timers fired over the run.
    pub timers_fired: u64,
    /// Virtual time the run ended at (µs).
    pub finished_at: u64,
    /// Protocol events recorded.
    pub traced: u64,
    /// FNV-1a digest of the full protocol trace.
    pub trace_digest: u64,
}

/// Samples a Poisson process of `rate` events/µs over `[0, until)` with
/// exponential inter-arrival gaps, capped at `max_events`. Returns the
/// event times and whether the cap truncated the draw.
fn poisson_times(rate: f64, until: Time, max_events: usize, seed: u64) -> (Vec<Time>, bool) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut times = Vec::new();
    let mut t = 0.0_f64;
    loop {
        // Inverse-CDF exponential sample; gen::<f64>() ∈ [0, 1), so flip
        // to (0, 1] to keep ln finite.
        let u: f64 = 1.0 - rng.gen::<f64>();
        t += -u.ln() / rate;
        if t >= until as f64 {
            return (times, false);
        }
        if times.len() == max_events {
            return (times, true);
        }
        times.push(t as Time);
    }
}

/// Builds the seeded churn schedule for `cfg`: one `crash_count(1)` per
/// departure, one `join(1)` per arrival, checkpoints every
/// `checkpoint_every` µs through the horizon. Pure — both arms of a trial
/// compile the identical timeline.
pub fn poisson_timeline(cfg: &PoissonChurnConfig, seed: u64) -> (Timeline, usize, usize, bool) {
    let rate = (cfg.members as f64) * std::f64::consts::LN_2 / (cfg.half_life_us as f64);
    // Victims are drawn from the initial members, so the schedule can
    // kill at most members − 1 of them; an extreme half-life truncates.
    let (deaths, capped) = poisson_times(
        rate,
        cfg.churn_until,
        cfg.members - 1,
        seed ^ 0x9e6c_63d0_76cc_4957,
    );
    let (births, _) = poisson_times(
        rate,
        cfg.churn_until,
        usize::MAX,
        seed ^ 0x2545_f491_4f6c_dd1d,
    );
    let mut tl = Timeline::new();
    for t in &deaths {
        tl = tl.at(*t).crash_count(1).into();
    }
    for t in &births {
        tl = tl.at(*t).join(1).into();
    }
    let mut at = cfg.checkpoint_every;
    while at <= cfg.horizon {
        tl = tl.at(at).checkpoint(&format!("t={at}")).into();
        at += cfg.checkpoint_every;
    }
    (tl.horizon(cfg.horizon), deaths.len(), births.len(), capped)
}

/// Runs one seeded Poisson-churn arm. `repair` selects the arm: `true`
/// runs the hardened repair path (bounded in-flight queries, exponential
/// re-query pacing, retry backoff with jitter, join gateway fallback);
/// `false` is the eviction-only control on the identical schedule.
pub fn run_poisson_churn(cfg: &PoissonChurnConfig, seed: u64, repair: bool) -> PoissonChurnResult {
    let space = IdSpace::new(cfg.base, cfg.digits).expect("valid space");
    let (tl, crashes, joins, crash_capped) = poisson_timeline(cfg, seed);
    let r = TimelineScenario::new(space)
        .members(cfg.members)
        .seed(seed)
        .options(poisson_options(cfg, repair))
        .run(tl);
    debug_assert_eq!(r.crashed, crashes);
    debug_assert_eq!(r.joins, joins);
    PoissonChurnResult {
        half_life_us: cfg.half_life_us,
        crashed: r.crashed,
        joins: r.joins,
        crash_capped,
        survivors: r.survivors,
        violations: r.violations,
        false_negatives: r.false_negatives,
        consistent: r.consistent,
        dead_refs: r.dead_refs,
        checkpoints: r.checkpoints,
        evicted: r.evicted,
        repaired: r.repaired,
        ttr_from_eviction_us: r.ttr_from_eviction_us,
        ttr_from_crash_us: r.ttr_from_crash_us,
        recovery_us: r.recovery_us,
        delivered: r.delivered,
        timers_fired: r.timers_fired,
        finished_at: r.finished_at,
        traced: r.traced,
        trace_digest: r.trace_digest,
    }
}

/// The detector and retry options of one [`run_poisson_churn`] arm.
pub fn poisson_options(cfg: &PoissonChurnConfig, repair: bool) -> ProtocolOptions {
    let fd = FailureDetector {
        repair,
        max_repairs_in_flight: 4,
        repair_backoff: true,
        ..cfg.fd
    };
    // Churn-sized retry budget: short enough that a join whose contact
    // crashed falls back within a couple of virtual seconds (timeout
    // 300 ms ≫ the 100 ms worst-case round trip; exhaustion after
    // 0.3 + 0.6 + 1.2 s of doubling), with jitter de-synchronizing the
    // retry bursts a crash wave would otherwise align.
    let retry = RetryPolicy {
        timeout_us: 300_000,
        max_retries: 2,
        backoff_pct: 200,
        jitter_pct: 10,
        join_fallback: true,
        ..RetryPolicy::default()
    };
    ProtocolOptions::new()
        .with_failure_detector(fd)
        .with_retry(retry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PoissonChurnConfig {
        PoissonChurnConfig {
            members: 16,
            half_life_us: 8_000_000,
            churn_until: 4_000_000,
            horizon: 12_000_000,
            checkpoint_every: 2_000_000,
            fd: FailureDetector {
                probe_interval_us: 100_000,
                suspicion_threshold: 3,
                repair: true,
                ..FailureDetector::default()
            },
            ..PoissonChurnConfig::default()
        }
    }

    #[test]
    fn schedule_is_pure_and_rate_scales_with_half_life() {
        let cfg = small();
        let (a, da, ba, _) = poisson_timeline(&cfg, 7);
        let (b, db, bb, _) = poisson_timeline(&cfg, 7);
        assert_eq!(a, b);
        assert_eq!((da, ba), (db, bb));
        // Quartering the half-life quadruples the expected event count;
        // with these draws it must strictly increase.
        let fast = PoissonChurnConfig {
            half_life_us: cfg.half_life_us / 4,
            ..cfg
        };
        let (_, df, bf, _) = poisson_timeline(&fast, 7);
        assert!(df > da && bf > ba, "({df},{bf}) vs ({da},{ba})");
    }

    #[test]
    fn repair_arm_converges_where_control_does_not() {
        let cfg = small();
        let on = run_poisson_churn(&cfg, 11, true);
        assert!(on.crashed > 0 && on.joins > 0, "churn draw was empty");
        assert_eq!(on.dead_refs, 0);
        assert!(on.consistent, "{} violations with repair on", on.violations);
        assert!(on.repaired > 0 && !on.ttr_from_crash_us.is_empty());
        let last = on.checkpoints.last().unwrap();
        assert!(last.consistent, "quiescent-tail checkpoint inconsistent");

        let off = run_poisson_churn(&cfg, 11, false);
        assert_eq!(off.crashed, on.crashed, "arms drew different schedules");
        assert!(
            !off.consistent && off.false_negatives > 0,
            "the control arm should be left with holes"
        );
        // Wherever the settled control is inconsistent, repair is not.
        let settled = on
            .checkpoints
            .iter()
            .zip(&off.checkpoints)
            .filter(|(_, c)| c.at >= cfg.churn_until + 4_000_000);
        for (r, c) in settled {
            if !c.consistent {
                assert!(r.consistent, "repair arm inconsistent at t={}", r.at);
            }
        }
    }

    #[test]
    fn crash_cap_truncates_extreme_half_lives() {
        let cfg = PoissonChurnConfig {
            half_life_us: 100_000, // far more deaths than members
            ..small()
        };
        let (_, deaths, _, capped) = poisson_timeline(&cfg, 3);
        assert!(capped);
        assert_eq!(deaths, cfg.members - 1);
    }
}
