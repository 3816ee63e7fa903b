//! Churn: every way this repository churns a network, as a [`Timeline`]
//! run by the one [`Scenario`] runner and reported in one
//! [`TimelineReport`]. Three shapes:
//!
//! * **waves** — alternating waves of concurrent joins and sequential
//!   graceful leaves over the paper's join protocol plus this
//!   repository's leave extension (see `DESIGN.md`), with a consistency
//!   checkpoint after every wave;
//! * **a crash wave** — concurrent joins at t = 0 and one silent crash of
//!   a fraction of the members; the failure detector evicts the dead and
//!   suffix-routed repair refills the vacated slots. The paper defers
//!   failure recovery to future work (§7); this measures the subsystem
//!   this repository adds in its place;
//! * **Poisson** — the steady state of Jacobs & Pandurangan's model: node
//!   lifetimes are exponential with a configurable half-life, so
//!   departures (silent crashes) form a Poisson process of rate
//!   `λ = n · ln2 / t½`, and arrivals an independent one of the same
//!   rate, holding the population near `n`. Churn runs over
//!   `[0, churn_until]`; the quiet tail up to `horizon` lets the last
//!   checkpoints say whether repair *converges* once disruptions stop.
//!
//! The crash shapes run two arms on the identical compiled schedule:
//! repair on and the eviction-only control, which pins down what repair
//! (and not mere eviction) buys. Both configure a failure detector, and
//! with it the crash model: repair queries paced per probe tick, and (for
//! Poisson, which also sets a retry policy) exponential backoff with
//! deterministic jitter on reply-awaiting retries and gateway fallback
//! for joins whose contact crashed. On the simulator every
//! metric, the trace digest included, is bit-for-bit reproducible per
//! seed. Time-to-repair and recovery samples come back as raw vectors;
//! take percentiles with [`crate::metrics::percentile`].

use hyperring_core::{FailureDetector, ProtocolOptions, RetryPolicy};
use hyperring_id::IdSpace;
use hyperring_sim::Time;

use crate::timeline::{CheckpointReport, Scenario, Timeline, TimelineReport};

/// Shape of a join/leave wave run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveChurnConfig {
    /// Identifier base `b`.
    pub base: u16,
    /// Identifier length `d`.
    pub digits: usize,
    /// Size of the initial consistent network `V`.
    pub members: usize,
    /// Rounds of (join wave, leave wave).
    pub rounds: usize,
    /// Concurrent joins per round.
    pub joins_per_round: usize,
    /// Sequential graceful leaves per round. Leavers go oldest first: the
    /// members in a seed-derived order, then the joiners as they joined.
    pub leaves_per_round: usize,
}

/// Virtual time a wave of joins, or one leave, is given to settle before
/// the next event (µs): far beyond the protocol's round trips under the
/// waves' `[0.5 ms, 60 ms]` delays, so the leaves are sequential.
const WAVE_SETTLE_US: Time = 5_000_000;
const LEAVE_GAP_US: Time = 1_000_000;

impl WaveChurnConfig {
    /// The schedule: round `k` joins `joins_per_round` nodes at once,
    /// checkpoints `"join k"` once they settle, makes `leaves_per_round`
    /// nodes leave one after another, and checkpoints `"leave k"`. A join
    /// whose drawn gateway has left goes through a node drawn uniformly
    /// from those alive and joined before the wave (see
    /// [`Timeline::compile`]), so no one node carries a wave.
    pub fn timeline(&self) -> Timeline {
        let mut tl = Timeline::new();
        let mut t = 0;
        for k in 1..=self.rounds {
            t += WAVE_SETTLE_US;
            tl = tl.at(t).join(self.joins_per_round).done();
            t += WAVE_SETTLE_US;
            tl = tl.at(t).checkpoint(&format!("join {k}")).done();
            for _ in 0..self.leaves_per_round {
                t += LEAVE_GAP_US;
                tl = tl.at(t).leave(1).done();
            }
            t += WAVE_SETTLE_US;
            tl = tl.at(t).checkpoint(&format!("leave {k}")).done();
        }
        tl
    }

    /// The runner for trial `seed`: no failure detector, so the horizon
    /// is the last checkpoint.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let space = IdSpace::new(self.base, self.digits).expect("valid space");
        Scenario::new(space)
            .members(self.members)
            .seed(seed)
            .delay_bounds(500, 60_000)
    }
}

/// One wave of a wave-churn run, read off the checkpoint that closes it.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveStats {
    /// The checkpoint: `"join k"` or `"leave k"`, population, verdict,
    /// and joins still unfinished.
    pub checkpoint: CheckpointReport,
    /// Messages delivered during the wave.
    pub messages: u64,
    /// Mean `LeaveNoti + RvNghForget` sent per leaver of the wave (0 for
    /// join waves).
    pub leave_cost: f64,
}

impl WaveStats {
    /// Whether this was a join wave (else a leave wave).
    pub fn is_join(&self) -> bool {
        self.checkpoint.label.starts_with("join")
    }
}

/// Runs one seeded wave-churn trial; its checkpoints alternate join and
/// leave waves.
///
/// # Panics
///
/// Panics if the schedule would remove every node.
pub fn run_wave_churn(cfg: &WaveChurnConfig, seed: u64) -> TimelineReport {
    cfg.scenario(seed).run(cfg.timeline())
}

/// The per-wave view of a [`run_wave_churn`] report: wave `i` spans the
/// run from checkpoint `i − 1` to checkpoint `i`, and leave wave `k`'s
/// leavers are entries `(k − 1) · leaves_per_round ..` of
/// [`TimelineReport::leave_msgs`].
pub fn wave_stats(cfg: &WaveChurnConfig, r: &TimelineReport) -> Vec<WaveStats> {
    let mut leavers = r.leave_msgs.chunks(cfg.leaves_per_round.max(1));
    let mut before = 0;
    r.checkpoints
        .iter()
        .map(|c| {
            let messages = c.delivered - before;
            before = c.delivered;
            let leave_cost = if c.label.starts_with("leave") {
                let sent = leavers.next().unwrap_or_default();
                sent.iter().sum::<u64>() as f64 / sent.len().max(1) as f64
            } else {
                0.0
            };
            WaveStats {
                checkpoint: c.clone(),
                messages,
                leave_cost,
            }
        })
        .collect()
}

/// Shape of a crash-wave run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashChurnConfig {
    /// Identifier base `b`.
    pub base: u16,
    /// Identifier length `d`.
    pub digits: usize,
    /// Size of the initial consistent network `V` (all `in_system` from
    /// t = 0; crash victims are drawn from these).
    pub members: usize,
    /// Concurrent joiners started at t = 0 (they churn *in* while the
    /// victims churn *out*).
    pub joiners: usize,
    /// Fraction of the members crashed (`⌈members · fraction⌉`).
    pub crash_fraction: f64,
    /// Virtual time (µs) at which every victim crashes.
    pub crash_at: Time,
    /// Virtual time (µs) the run is cut off at — must leave room for
    /// detection (`suspicion_threshold` probe intervals) plus repair.
    pub horizon: Time,
    /// Probe interval and suspicion threshold; the `repair` field here is
    /// ignored (each arm of [`run_crashchurn`] sets its own).
    pub fd: FailureDetector,
}

impl Default for CrashChurnConfig {
    fn default() -> Self {
        CrashChurnConfig {
            base: 4,
            digits: 6,
            members: 64,
            joiners: 0,
            crash_fraction: 0.20,
            crash_at: 500_000,
            fd: FailureDetector {
                probe_interval_us: 200_000,
                ..FailureDetector::default()
            },
            horizon: 30_000_000,
        }
    }
}

impl CrashChurnConfig {
    /// Number of victims the crash schedule kills.
    pub fn crashes(&self) -> usize {
        ((self.members as f64) * self.crash_fraction).ceil() as usize
    }

    /// The schedule: joins at t = 0, one crash wave at `crash_at`. Its
    /// victims are the ones the bespoke scheduler this experiment first
    /// used drew, so the trace digests recorded then still hold.
    pub fn timeline(&self) -> Timeline {
        Timeline::new()
            .at(0)
            .join(self.joiners)
            .at(self.crash_at)
            .crash_count(self.crashes())
            .horizon(self.horizon)
    }

    /// The runner of one arm for trial `seed`: `repair` on, or the
    /// eviction-only control.
    pub fn scenario(&self, seed: u64, repair: bool) -> Scenario {
        let space = IdSpace::new(self.base, self.digits).expect("valid space");
        Scenario::new(space)
            .members(self.members)
            .seed(seed)
            .options(
                ProtocolOptions::new().with_failure_detector(FailureDetector { repair, ..self.fd }),
            )
    }
}

/// Runs one seeded crash-wave arm on the simulator. `repair` selects the
/// arm: `true` enables slot refill after eviction, `false` is the control
/// (detection and eviction only).
///
/// # Panics
///
/// Panics if the configuration is degenerate (no members, or a crash
/// fraction that kills every member, even when joiners would survive).
pub fn run_crashchurn(cfg: &CrashChurnConfig, seed: u64, repair: bool) -> TimelineReport {
    assert!(
        cfg.members > 0 && cfg.crashes() < cfg.members,
        "degenerate crash-churn configuration"
    );
    cfg.scenario(seed, repair).run(cfg.timeline())
}

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
    /// Probe interval and suspicion threshold; `repair` is overridden
    /// per arm by [`run_poisson_churn`].
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
                ..FailureDetector::default()
            },
        }
    }
}

impl PoissonChurnConfig {
    /// The runner of one arm for trial `seed`: repair on (`repair`) or
    /// the eviction-only control. The detector makes either arm run the
    /// crash model: paced repair queries, backed-off and jittered
    /// retransmissions, and the join fallback (see
    /// [`RetryPolicy`](hyperring_core::RetryPolicy)).
    pub fn scenario(&self, seed: u64, repair: bool) -> Scenario {
        let space = IdSpace::new(self.base, self.digits).expect("valid space");
        // Churn-sized retry budget: short enough that a join whose contact
        // crashed falls back within a couple of virtual seconds (timeout
        // 300 ms ≫ the 100 ms worst-case round trip; exhaustion after
        // 0.3 + 0.6 + 1.2 s of doubling).
        let retry = RetryPolicy {
            timeout_us: 300_000,
            max_retries: 2,
            ..RetryPolicy::default()
        };
        Scenario::new(space)
            .members(self.members)
            .seed(seed)
            .options(
                ProtocolOptions::new()
                    .with_failure_detector(FailureDetector { repair, ..self.fd })
                    .with_retry(retry),
            )
    }
}

/// Outcome of one Poisson-churn arm: the one report, under the name the
/// benchmark imports.
pub type PoissonChurnResult = TimelineReport;

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
/// `checkpoint_every` µs through the horizon. Returns the timeline, the
/// crash and join counts, and whether the crash draw hit the
/// `members − 1` cap (the schedule is then truncated, not thinned). Pure
/// — both arms of a trial compile the identical timeline.
pub fn poisson_timeline(cfg: &PoissonChurnConfig, seed: u64) -> (Timeline, usize, usize, bool) {
    let rate = (cfg.members as f64) * std::f64::consts::LN_2 / (cfg.half_life_us as f64);
    // The victim pool lists the initial members before any joiner; capping
    // the deaths at members − 1 keeps every victim a member and one member
    // alive, as the recorded schedules were drawn. An extreme half-life
    // truncates.
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

/// Runs one seeded Poisson-churn arm on the simulator. `repair` selects
/// the arm: `true` runs the hardened repair path, `false` is the
/// eviction-only control on the identical schedule.
pub fn run_poisson_churn(cfg: &PoissonChurnConfig, seed: u64, repair: bool) -> PoissonChurnResult {
    let (tl, ..) = poisson_timeline(cfg, seed);
    cfg.scenario(seed, repair).run(tl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_keep_consistency_throughout() {
        let cfg = WaveChurnConfig {
            base: 8,
            digits: 5,
            members: 24,
            rounds: 3,
            joins_per_round: 8,
            leaves_per_round: 6,
        };
        let r = run_wave_churn(&cfg, 42);
        assert!(r.consistent, "{}", r.final_report);
        assert_eq!((r.joins, r.left), (24, 18));
        let waves = wave_stats(&cfg, &r);
        let live: Vec<usize> = waves.iter().map(|w| w.checkpoint.live).collect();
        // +8 then −6 per round.
        assert_eq!(live, [32, 26, 34, 28, 36, 30]);
        for w in &waves {
            assert!(w.checkpoint.consistent, "{w:?}");
            assert_eq!(w.checkpoint.joining, 0, "a join did not settle: {w:?}");
            assert!(w.messages > 0, "{w:?}");
            // Leave waves report a positive mean leave cost, join waves 0.
            assert_eq!(w.leave_cost > 0.0, !w.is_join(), "{w:?}");
        }
        let total: u64 = waves.iter().map(|w| w.messages).sum();
        assert!(total <= r.delivered);
    }

    #[test]
    fn heavy_waves_outlast_the_initial_members() {
        // 4 rounds of 10 leaves from 12 members: from the second round on
        // the leavers are nodes that joined during the run.
        let cfg = WaveChurnConfig {
            base: 4,
            digits: 6,
            members: 12,
            rounds: 4,
            joins_per_round: 10,
            leaves_per_round: 10,
        };
        let r = run_wave_churn(&cfg, 7);
        assert!(r.checkpoints.iter().all(|c| c.consistent && c.joining == 0));
        assert_eq!(r.survivors, 12);
    }

    fn small_crash() -> CrashChurnConfig {
        CrashChurnConfig {
            members: 16,
            crash_at: 100_000,
            fd: FailureDetector {
                probe_interval_us: 100_000,
                ..FailureDetector::default()
            },
            horizon: 5_000_000,
            ..CrashChurnConfig::default()
        }
    }

    #[test]
    fn repair_converges_and_control_does_not() {
        let cfg = small_crash();
        let on = run_crashchurn(&cfg, 5, true);
        assert_eq!(on.crashed, 4);
        assert_eq!(on.survivors, 12);
        assert_eq!(on.dead_refs, 0, "a survivor still stores a crashed node");
        assert!(on.consistent, "{} violations with repair on", on.violations);

        let off = run_crashchurn(&cfg, 5, false);
        assert_eq!(off.dead_refs, 0, "eviction works without repair");
        assert!(
            !off.consistent && off.false_negatives > 0,
            "the control arm should be left with holes"
        );
    }

    #[test]
    fn same_seed_gives_identical_results_and_trace_digest() {
        let cfg = small_crash();
        let a = run_crashchurn(&cfg, 9, true);
        let b = run_crashchurn(&cfg, 9, true);
        assert_eq!(a, b);
        assert!(a.traced > 0);
        let c = run_crashchurn(&cfg, 10, true);
        assert_ne!(a.trace_digest, c.trace_digest, "digest ignores the seed");
    }

    #[test]
    fn joiners_and_crashes_can_overlap() {
        let cfg = CrashChurnConfig {
            joiners: 4,
            // Crash well after the joins quiesce, so repair never needs a
            // still-copying node (concurrent join+crash interleavings are
            // exercised by the engine's proptests).
            crash_at: 2_000_000,
            horizon: 8_000_000,
            ..small_crash()
        };
        let r = run_crashchurn(&cfg, 3, true);
        assert_eq!(r.survivors, 16 - 4 + 4);
        assert!(r.consistent, "{} violations", r.violations);
    }

    fn small_poisson() -> PoissonChurnConfig {
        PoissonChurnConfig {
            members: 16,
            half_life_us: 8_000_000,
            churn_until: 4_000_000,
            horizon: 12_000_000,
            checkpoint_every: 2_000_000,
            fd: FailureDetector {
                probe_interval_us: 100_000,
                ..FailureDetector::default()
            },
            ..PoissonChurnConfig::default()
        }
    }

    #[test]
    fn schedule_is_pure_and_rate_scales_with_half_life() {
        let cfg = small_poisson();
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
        let cfg = small_poisson();
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
            ..small_poisson()
        };
        let (_, deaths, _, capped) = poisson_timeline(&cfg, 3);
        assert!(capped);
        assert_eq!(deaths, cfg.members - 1);
    }
}
