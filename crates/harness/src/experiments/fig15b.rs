//! Figure 15(b) and the §5.2 averages table: simulate `m` concurrent joins
//! into a consistent `n`-node network and report the distribution of
//! `JoinNotiMsg` sent per joining node, alongside the Theorem-5 bound, the
//! Theorem-3 bound check, and the `SpeNotiMsg` rarity claim (footnote 8).

use hyperring_analysis::{theorem3_bound, upper_bound_join_noti};
use hyperring_core::{MessageKind, PayloadMode, ProtocolOptions, SimNetworkBuilder};
use hyperring_id::IdSpace;
use hyperring_sim::stats::Distribution;
use hyperring_sim::UniformDelay;

use crate::topo_delay::TopologyDelay;
use crate::workload::{run_trials, JoinWorkload};

/// Which latency substrate to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayKind {
    /// Full 8320-router transit-stub topology (the paper's setup).
    PaperTopology,
    /// Small 72-router transit-stub topology (tests).
    TestTopology,
    /// Uniform random latency in `[1 ms, 100 ms]` (no router graph).
    Uniform,
}

/// Configuration of one Figure 15(b) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig15bConfig {
    /// Digit base (the paper: 16).
    pub b: u16,
    /// Digits per id (the paper: 8 or 40).
    pub d: usize,
    /// Initial network size (the paper: 3096 or 7192).
    pub n: usize,
    /// Concurrent joiners (the paper: 1000).
    pub m: usize,
    /// Latency substrate.
    pub delay: DelayKind,
    /// Run seed.
    pub seed: u64,
    /// Table-payload mode (§6.2); the base protocol uses `Full`.
    pub payload: PayloadMode,
}

impl Fig15bConfig {
    /// The four configurations of Figure 15(b), in the paper's order.
    pub fn paper_configs() -> [Fig15bConfig; 4] {
        let base = Fig15bConfig {
            b: 16,
            d: 8,
            n: 3096,
            m: 1000,
            delay: DelayKind::PaperTopology,
            seed: 2003,
            payload: PayloadMode::Full,
        };
        [
            Fig15bConfig { ..base },
            Fig15bConfig { d: 40, ..base },
            Fig15bConfig { n: 7192, ..base },
            Fig15bConfig {
                n: 7192,
                d: 40,
                ..base
            },
        ]
    }

    /// A scaled-down configuration for tests and quick benches.
    pub fn small(d: usize, seed: u64) -> Fig15bConfig {
        Fig15bConfig {
            b: 16,
            d,
            n: 192,
            m: 64,
            delay: DelayKind::TestTopology,
            seed,
            payload: PayloadMode::Full,
        }
    }
}

/// Result of one Figure 15(b) run.
#[derive(Debug, Clone)]
pub struct Fig15bResult {
    /// The configuration that produced this result.
    pub config: Fig15bConfig,
    /// Distribution of `JoinNotiMsg` sent per joining node (the figure's
    /// x-axis variable).
    pub join_noti: Distribution,
    /// Theorem-5 upper bound on the mean for this `(b, d, n, m)`.
    pub bound: f64,
    /// Maximum `CpRstMsg + JoinWaitMsg` sent by any joiner.
    pub max_cprst_joinwait: u64,
    /// The Theorem-3 bound `d + 1`.
    pub theorem3: u64,
    /// Total `SpeNotiMsg` sent across the whole run (footnote 8 says this
    /// is rare).
    pub spe_noti_total: u64,
    /// Total messages delivered in the run.
    pub messages_delivered: u64,
    /// Total modeled bytes sent by joiners.
    pub joiner_bytes: u64,
    /// Whether the final network passed the Definition-3.8 checker.
    pub consistent: bool,
    /// Virtual time at quiescence (µs).
    pub finished_at: u64,
}

impl Fig15bResult {
    /// Mean `JoinNotiMsg` per joiner — the number the paper reports as
    /// 6.117 / 6.051 / 5.026 / 5.399 for its four configurations.
    pub fn average(&self) -> f64 {
        self.join_noti.mean()
    }

    /// The empirical CDF points plotted in Figure 15(b).
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        self.join_noti.cdf_points()
    }
}

/// Runs one Figure 15(b) experiment.
///
/// Equivalent to `run_fig15b_trials(cfg, 1)[0]`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (e.g. zero members) or if the
/// run violates a theorem (Theorem 2 termination is asserted internally).
pub fn run_fig15b(cfg: &Fig15bConfig) -> Fig15bResult {
    run_fig15b_trials(cfg, 1)
        .pop()
        .expect("one trial requested")
}

/// Runs `trials` independent Figure 15(b) experiments, fanned across
/// cores; the results do not depend on the core count.
///
/// All trials share **one** router topology — generated once from
/// `cfg.seed`, behind an `Arc`, with its host-to-host delay rows memoized
/// across trials — matching the paper's setup (a single GT-ITM topology,
/// repeated runs) and skipping the dominant per-trial cost. Trial `k`
/// draws its workload and message schedule from
/// [`trial_seed`](crate::workload::trial_seed)`(cfg.seed, k)`, so trial 0 reproduces the single-run
/// experiment exactly.
///
/// # Panics
///
/// As [`run_fig15b`], for any trial.
pub fn run_fig15b_trials(cfg: &Fig15bConfig, trials: usize) -> Vec<Fig15bResult> {
    let space = IdSpace::new(cfg.b, cfg.d).expect("valid space");
    let total_hosts = cfg.n + cfg.m;
    let topo = match cfg.delay {
        DelayKind::PaperTopology => {
            Some(TopologyDelay::paper_scale(total_hosts, cfg.seed ^ 0xd1ce))
        }
        DelayKind::TestTopology => Some(TopologyDelay::test_scale(total_hosts, cfg.seed ^ 0xd1ce)),
        DelayKind::Uniform => None,
    };

    let trial = |_k: usize, seed: u64| -> Fig15bResult {
        let workload = JoinWorkload::generate(space, cfg.n, cfg.m, seed);
        let mut b = SimNetworkBuilder::new(space);
        b.options(ProtocolOptions::with_payload(cfg.payload));
        for id in &workload.members {
            b.add_member(*id);
        }
        for (id, gw) in &workload.joiners {
            b.add_joiner(*id, *gw, 0); // all joins start at the same time
        }
        let (report, c) = match &topo {
            Some(t) => run_with(&mut b, t.clone(), seed),
            None => run_with(&mut b, UniformDelay::new(1_000, 100_000), seed),
        };
        Fig15bResult {
            config: Fig15bConfig { seed, ..*cfg },
            bound: upper_bound_join_noti(cfg.b as u32, cfg.d as u32, cfg.n as u64, cfg.m as u64),
            theorem3: theorem3_bound(cfg.d),
            join_noti: c.join_noti,
            max_cprst_joinwait: c.max_cprst_joinwait,
            spe_noti_total: c.spe_noti_total,
            messages_delivered: report.delivered,
            joiner_bytes: c.joiner_bytes,
            consistent: c.consistent,
            finished_at: report.finished_at,
        }
    };

    run_trials(trials, cfg.seed, trial)
}

fn run_with<D: hyperring_sim::DelayModel>(
    b: &mut SimNetworkBuilder,
    delay: D,
    seed: u64,
) -> (hyperring_sim::RunReport, Collected) {
    let mut net = b.build(delay, seed);
    let report = net.run();
    assert!(!report.truncated, "simulation did not quiesce");
    (report, collect(net))
}

struct Collected {
    join_noti: Distribution,
    max_cprst_joinwait: u64,
    spe_noti_total: u64,
    joiner_bytes: u64,
    consistent: bool,
}

fn collect<D: hyperring_sim::DelayModel>(net: hyperring_core::SimNetwork<D>) -> Collected {
    assert!(net.all_in_system(), "Theorem 2 violated: joiner stuck");
    let join_noti = Distribution::from_samples(net.joiners().map(|e| e.stats().join_noti()));
    let max_cprst_joinwait = net
        .joiners()
        .map(|e| e.stats().cprst_plus_joinwait())
        .max()
        .unwrap_or(0);
    let spe_noti_total = net
        .engines()
        .map(|e| e.stats().sent(MessageKind::SpeNoti))
        .sum();
    let joiner_bytes = net.joiners().map(|e| e.stats().total_bytes()).sum();
    let consistent = net.check_consistency().is_consistent();
    Collected {
        join_noti,
        max_cprst_joinwait,
        spe_noti_total,
        joiner_bytes,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_obeys_all_theorems() {
        for d in [8usize, 16] {
            let cfg = Fig15bConfig::small(d, 42);
            let r = run_fig15b(&cfg);
            assert!(r.consistent, "d={d}: inconsistent network");
            assert!(
                r.max_cprst_joinwait <= r.theorem3,
                "d={d}: Theorem 3 violated ({} > {})",
                r.max_cprst_joinwait,
                r.theorem3
            );
            assert!(r.join_noti.len() == cfg.m);
            assert!(r.average() > 0.0);
            // SpeNotiMsg is rare (footnote 8): well under one per joiner.
            assert!(
                (r.spe_noti_total as f64) < 0.5 * cfg.m as f64,
                "d={d}: {} SpeNotiMsg for {} joins",
                r.spe_noti_total,
                cfg.m
            );
        }
    }

    #[test]
    fn uniform_delay_variant_also_consistent() {
        let cfg = Fig15bConfig {
            delay: DelayKind::Uniform,
            ..Fig15bConfig::small(8, 7)
        };
        let r = run_fig15b(&cfg);
        assert!(r.consistent);
        let cdf = r.cdf();
        assert!(!cdf.is_empty());
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = Fig15bConfig::small(8, 99);
        let a = run_fig15b(&cfg);
        let b = run_fig15b(&cfg);
        assert_eq!(a.average(), b.average());
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    fn trials_are_reproducible_and_trial_zero_matches_single_run() {
        let cfg = Fig15bConfig::small(8, 1234);
        let first = run_fig15b_trials(&cfg, 3);
        let again = run_fig15b_trials(&cfg, 3);
        assert_eq!(first.len(), 3);
        for (p, s) in first.iter().zip(&again) {
            assert_eq!(p.config.seed, s.config.seed);
            assert_eq!(p.average(), s.average());
            assert_eq!(p.messages_delivered, s.messages_delivered);
            assert_eq!(p.finished_at, s.finished_at);
            assert_eq!(p.cdf(), s.cdf());
            assert!(p.consistent);
        }
        // Distinct seeds → the trials really are independent samples.
        assert_ne!(first[0].config.seed, first[1].config.seed);
        // Trial 0 keeps the base seed and reproduces the single-run API.
        let single = run_fig15b(&cfg);
        assert_eq!(first[0].config.seed, cfg.seed);
        assert_eq!(first[0].average(), single.average());
        assert_eq!(first[0].messages_delivered, single.messages_delivered);
        assert_eq!(first[0].finished_at, single.finished_at);
    }
}
