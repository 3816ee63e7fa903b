//! The unified scenario runner: one builder for every way this repo runs
//! a network.
//!
//! A [`Scenario`] describes the population, the workload and the
//! protocol options once, and every backend returns the same
//! [`RunReport`]:
//!
//! ```
//! use hyperring_harness::{RunReport, Scenario};
//! use hyperring_id::IdSpace;
//!
//! let space = IdSpace::new(8, 4)?;
//! let r: RunReport = Scenario::new(space).nodes(12).joiners(6).seed(7).run_sim();
//! assert!(r.consistent());
//! assert_eq!(r.joiners, 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same scenario runs on the deterministic simulator
//! ([`run_sim`](Scenario::run_sim)), over real loopback sockets
//! ([`run_net`](Scenario::run_net)), or under the optimistic
//! Pastry-style baseline ([`optimistic`](Scenario::optimistic)), and —
//! with a [`FailureDetector`](hyperring_core::FailureDetector) configured
//! via [`options`](Scenario::options) — under crash churn
//! ([`crashes`](Scenario::crashes)).

use std::time::Duration;

use hyperring_core::{
    build_consistent_tables, check_consistency, check_reachability_refs, ConsistencyReport,
    NeighborTable, ProtocolOptions, SimNetworkBuilder, TraceSink, Violation,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::{NetError, UdpNetwork};
use hyperring_sim::{Time, UniformDelay};

use crate::baseline::run_optimistic_tables;
use crate::lookup::{run_schedule, storm_keys, LookupStats, StormSchedule};
use crate::workload::JoinWorkload;
use hyperring_object::ObjectStore;

/// Outcome metrics of one scenario run, whatever the backend.
///
/// One report type covers the baseline comparison, the paper protocol,
/// and crash-churn runs (hence the population counts).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of joiners in the run.
    pub joiners: usize,
    /// Nodes crashed mid-run (0 outside crash scenarios).
    pub crashed: usize,
    /// Live nodes whose tables the consistency check covers.
    pub survivors: usize,
    /// Full Definition-3.8 consistency report over the final (survivor)
    /// tables.
    pub report: ConsistencyReport,
    /// False-negative violations (the reachability-breaking kind).
    pub false_negatives: usize,
    /// `(source, target)` pairs that cannot route to each other.
    pub unreachable_pairs: usize,
    /// Total ordered pairs checked.
    pub total_pairs: usize,
    /// Virtual (sim) or wall-clock (net) microseconds at the end of the
    /// run.
    pub finished_at: u64,
    /// Keyed lookup-storm statistics over the final tables, when the
    /// scenario asked for one via [`Scenario::lookup_storm`] (`None`
    /// otherwise; stretch is always `None` here — scenarios have no
    /// latency oracle).
    pub lookup: Option<LookupStats>,
}

impl RunReport {
    /// Whether the run ended with fully consistent (survivor) tables.
    pub fn consistent(&self) -> bool {
        self.report.is_consistent()
    }
}

/// Summarizes a set of final tables into a [`RunReport`] — the shared
/// tail of every backend. Takes borrowed tables so simulator runs feed it
/// straight from [`SimNetwork::tables_iter`](hyperring_core::SimNetwork::tables_iter)
/// without cloning the table set.
pub(crate) fn summarize(
    space: IdSpace,
    tables: &[&NeighborTable],
    joiners: usize,
    crashed: usize,
    finished_at: u64,
) -> RunReport {
    let report = check_consistency(space, tables.iter().copied());
    let false_negatives = report
        .violations()
        .iter()
        .filter(|v| matches!(v, Violation::FalseNegative { .. }))
        .count();
    let unreachable = check_reachability_refs(tables);
    let n = tables.len();
    RunReport {
        joiners,
        crashed,
        survivors: n,
        report,
        false_negatives,
        unreachable_pairs: unreachable.len(),
        total_pairs: n.saturating_sub(1) * n,
        finished_at,
        lookup: None,
    }
}

/// Runs one keyed storm over borrowed final tables — the shared tail of
/// every backend's [`Scenario::lookup_storm`] handling.
fn storm_over(
    space: IdSpace,
    tables: &[&NeighborTable],
    (lookups, keys, exponent): (usize, usize, f64),
    seed: u64,
) -> LookupStats {
    let sources: Vec<NodeId> = tables.iter().map(|t| t.owner()).collect();
    let schedule = StormSchedule::compile(
        sources,
        storm_keys(space, "scenario-key", keys),
        lookups,
        exponent,
        seed ^ 0x5ca1_ab1e_0b57_ac1e,
    );
    let store = ObjectStore::over(space, tables.iter().copied());
    run_schedule(&store, &schedule, None, None)
}

/// Draws `k` crash victims from `members` without replacement,
/// deterministically from `seed` (a partial Fisher–Yates over a
/// seed-separated stream, so the draw is independent of the workload's
/// own randomness).
pub(crate) fn pick_victims(members: &[NodeId], k: usize, seed: u64) -> Vec<NodeId> {
    use rand::{Rng, SeedableRng};
    let mut order: Vec<NodeId> = members.to_vec();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc3a5_c85c_97cb_3127);
    for i in 0..k {
        let j = rng.gen_range(i..order.len());
        order.swap(i, j);
    }
    order.truncate(k);
    order
}

/// Which join protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Protocol {
    /// The paper's consistency-preserving protocol (the default).
    #[default]
    Paper,
    /// The optimistic Pastry-style baseline (simulator only).
    Optimistic,
}

/// Builder for one network run: population, seed, options, backend.
///
/// Defaults: 16 members, 8 joiners, seed 0, default [`ProtocolOptions`],
/// the paper's protocol, uniform message delay in `[1 ms, 100 ms]` (the
/// bounds the baseline comparison has always used), all joins at t = 0,
/// no crashes.
pub struct Scenario {
    space: IdSpace,
    members: usize,
    joiners: usize,
    seed: u64,
    opts: ProtocolOptions,
    protocol: Protocol,
    gap_us: Time,
    delay_bounds: (Time, Time),
    crashes: usize,
    crash_at: Time,
    horizon: Time,
    workload: Option<JoinWorkload>,
    trace: Option<Box<dyn TraceSink + Send>>,
    storm: Option<(usize, usize, f64)>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("space", &self.space)
            .field("members", &self.members)
            .field("joiners", &self.joiners)
            .field("seed", &self.seed)
            .field("protocol", &self.protocol)
            .field("crashes", &self.crashes)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts a scenario over `space` with the defaults above.
    pub fn new(space: IdSpace) -> Self {
        Scenario {
            space,
            members: 16,
            joiners: 8,
            seed: 0,
            opts: ProtocolOptions::new(),
            protocol: Protocol::default(),
            gap_us: 0,
            delay_bounds: (1_000, 100_000),
            crashes: 0,
            crash_at: 0,
            horizon: 0,
            workload: None,
            trace: None,
            storm: None,
        }
    }

    /// Sets the number of initial members (the consistent network `V`).
    pub fn nodes(mut self, n: usize) -> Self {
        self.members = n;
        self
    }

    /// Sets the number of joiners.
    pub fn joiners(mut self, m: usize) -> Self {
        self.joiners = m;
        self
    }

    /// Sets the workload seed (identifier draw, gateways, delays).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the protocol options handed to every engine.
    pub fn options(mut self, opts: ProtocolOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Runs the optimistic Pastry-style baseline instead of the paper's
    /// protocol (simulator backend only).
    pub fn optimistic(mut self) -> Self {
        self.protocol = Protocol::Optimistic;
        self
    }

    /// Spaces join starts `gap_us` apart instead of all at t = 0 (a large
    /// gap approximates sequential joins).
    pub fn join_gap_us(mut self, gap_us: Time) -> Self {
        self.gap_us = gap_us;
        self
    }

    /// Sets the uniform message-delay bounds (µs) of the simulator
    /// backend.
    pub fn delay_bounds(mut self, min: Time, max: Time) -> Self {
        self.delay_bounds = (min, max);
        self
    }

    /// Crashes `k` nodes (drawn deterministically from the members, who
    /// are `in_system` throughout) at virtual time `at`, then runs the
    /// survivors to the `horizon`. Meaningful only with a
    /// [`FailureDetector`](hyperring_core::FailureDetector) configured —
    /// without one the dead stay in every survivor's table.
    ///
    /// # Panics
    ///
    /// [`run_sim`](Self::run_sim) panics if `k` is not smaller than the
    /// member count.
    pub fn crashes(mut self, k: usize, at: Time, horizon: Time) -> Self {
        self.crashes = k;
        self.crash_at = at;
        self.horizon = horizon;
        self
    }

    /// Uses a pre-built workload instead of generating one from
    /// (`nodes`, `joiners`, `seed`).
    pub fn workload(mut self, w: JoinWorkload) -> Self {
        self.space = w.space;
        self.members = w.members.len();
        self.joiners = w.joiners.len();
        self.workload = Some(w);
        self
    }

    /// Runs a keyed lookup storm over the final tables: `lookups` draws
    /// with sources uniform over the survivors and keys
    /// Zipf(`exponent`)-popular over `keys` object identifiers. The storm
    /// is a pure observation after the run ends; its [`LookupStats`] land
    /// in [`RunReport::lookup`].
    pub fn lookup_storm(mut self, lookups: usize, keys: usize, exponent: f64) -> Self {
        self.storm = Some((lookups, keys, exponent));
        self
    }

    /// Attaches a [`TraceSink`] receiving every node's protocol events
    /// (simulator: virtual-time stamped and deterministic per seed;
    /// sockets: wall-clock stamped). Implies trace emission.
    pub fn trace(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.trace = Some(sink);
        self
    }

    fn take_workload(&mut self) -> JoinWorkload {
        self.workload.take().unwrap_or_else(|| {
            JoinWorkload::generate(self.space, self.members, self.joiners, self.seed)
        })
    }

    /// The nodes a crash schedule kills: the first `crashes` members in a
    /// deterministic seed-derived shuffle (members are `in_system` from
    /// t = 0, so the schedule never races a join).
    fn victims(&self, w: &JoinWorkload) -> Vec<NodeId> {
        assert!(
            self.crashes < w.members.len(),
            "cannot crash {} of {} members",
            self.crashes,
            w.members.len()
        );
        pick_victims(&w.members, self.crashes, self.seed)
    }

    /// Runs the scenario on the deterministic discrete-event simulator
    /// and summarizes the final (survivor) tables.
    ///
    /// # Panics
    ///
    /// Panics if the run fails to quiesce (ruled out by Theorem 2 absent
    /// bugs), or on an optimistic run with crashes (the baseline has no
    /// failure handling to measure).
    pub fn run_sim(mut self) -> RunReport {
        let w = self.take_workload();
        if self.protocol == Protocol::Optimistic {
            assert!(
                self.crashes == 0,
                "the optimistic baseline has no crash handling"
            );
            let tables = run_optimistic_tables(&w, self.seed, self.gap_us, self.delay_bounds);
            let refs: Vec<&NeighborTable> = tables.iter().collect();
            let mut r = summarize(w.space, &refs, w.joiners.len(), 0, 0);
            r.lookup = self
                .storm
                .map(|cfg| storm_over(w.space, &refs, cfg, self.seed));
            return r;
        }
        let mut b = SimNetworkBuilder::new(w.space);
        b.options(self.opts);
        if let Some(sink) = self.trace.take() {
            b.trace(sink);
        }
        for id in &w.members {
            b.add_member(*id);
        }
        for (i, (id, gw)) in w.joiners.iter().enumerate() {
            b.add_joiner(*id, *gw, i as Time * self.gap_us);
        }
        let (lo, hi) = self.delay_bounds;
        let mut net = b.build(UniformDelay::new(lo, hi), self.seed);
        let (crashed, report) = if self.crashes > 0 {
            for id in self.victims(&w) {
                net.crash_at(&id, self.crash_at);
            }
            (self.crashes, net.run_until(self.horizon))
        } else if self.opts.failure_detector().is_some() {
            // The probe tick re-arms forever; a horizon bounds the run.
            let horizon = if self.horizon > 0 {
                self.horizon
            } else {
                Time::MAX
            };
            (0, net.run_until(horizon))
        } else {
            let report = net.run();
            assert!(!report.truncated, "scenario did not quiesce");
            assert!(net.all_in_system(), "a joiner failed to finish");
            (0, report)
        };
        let refs: Vec<&NeighborTable> = net.tables_iter().collect();
        let mut r = summarize(w.space, &refs, w.joiners.len(), crashed, report.finished_at);
        r.lookup = self
            .storm
            .map(|cfg| storm_over(w.space, &refs, cfg, self.seed));
        r
    }

    /// Runs the scenario over real loopback sockets ([`UdpNetwork`]) and
    /// summarizes the final (survivor) tables. With a crash schedule, the
    /// victims are killed after the joins quiesce and survivors get a
    /// grace period scaled from the configured probe interval;
    /// `crash_at`/`horizon` are virtual-time knobs and are ignored here.
    ///
    /// # Errors
    ///
    /// Whatever [`UdpNetwork::run_joins`] /
    /// [`UdpNetwork::run_crash_scenario`] report.
    ///
    /// # Panics
    ///
    /// Panics on an optimistic scenario (the baseline exists only on the
    /// simulator) and on a crash schedule without a failure detector.
    pub fn run_net(mut self) -> Result<RunReport, NetError> {
        assert!(
            self.protocol == Protocol::Paper,
            "the optimistic baseline runs on the simulator only"
        );
        let w = self.take_workload();
        let members = build_consistent_tables(w.space, &w.members);
        let mut net = UdpNetwork::new(w.space, self.opts, members);
        if let Some(sink) = self.trace.take() {
            net = net.with_trace(sink);
        }
        let (tables, stats) = if self.crashes > 0 {
            let fd = self
                .opts
                .failure_detector()
                .expect("a crash scenario needs a failure detector");
            let victims = self.victims(&w);
            // Detection needs `suspicion_threshold` silent ticks, repair a
            // few more; wall-clock scheduling is best-effort, so be
            // generous.
            let grace = Duration::from_micros(
                fd.probe_interval_us * (u64::from(fd.suspicion_threshold) + 12),
            );
            net.run_crash_scenario(&w.joiners, &victims, grace)?
        } else {
            net.run_joins(&w.joiners)?
        };
        let refs: Vec<&NeighborTable> = tables.iter().collect();
        let wall_us = stats.wall.as_micros() as u64;
        let mut r = summarize(w.space, &refs, w.joiners.len(), self.crashes, wall_us);
        r.lookup = self
            .storm
            .map(|cfg| storm_over(w.space, &refs, cfg, self.seed));
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::{FailureDetector, RetryPolicy};

    fn space() -> IdSpace {
        IdSpace::new(4, 5).unwrap()
    }

    #[test]
    fn sim_and_net_backends_agree_on_the_paper_protocol() {
        let sim = Scenario::new(space())
            .nodes(10)
            .joiners(5)
            .seed(3)
            .run_sim();
        assert!(sim.consistent(), "{}", sim.report);
        assert_eq!(sim.joiners, 5);
        assert_eq!(sim.survivors, 15);
        assert_eq!(sim.unreachable_pairs, 0);
        assert_eq!(sim.total_pairs, 15 * 14);

        let net = Scenario::new(space())
            .nodes(10)
            .joiners(5)
            .seed(3)
            .run_net()
            .expect("socket run quiesces");
        assert!(net.consistent(), "{}", net.report);
        assert_eq!(net.survivors, 15);
    }

    #[test]
    fn optimistic_backend_reports_violations_under_concurrency() {
        let sp = IdSpace::new(4, 6).unwrap();
        let mut broke = 0;
        for seed in 0..6 {
            let r = Scenario::new(sp)
                .nodes(16)
                .joiners(48)
                .seed(seed)
                .optimistic()
                .run_sim();
            if !r.consistent() {
                broke += 1;
            }
        }
        assert!(broke > 0, "optimistic joins survived heavy concurrency");
    }

    fn repairing_detector(probe_interval_us: u64) -> ProtocolOptions {
        ProtocolOptions::new().with_failure_detector(FailureDetector {
            probe_interval_us,
            suspicion_threshold: 3,
            repair: true,
            ..FailureDetector::default()
        })
    }

    #[test]
    fn crash_scenario_repairs_survivors_on_the_simulator() {
        let r = Scenario::new(space())
            .nodes(14)
            .joiners(0)
            .seed(5)
            .options(repairing_detector(100_000))
            .delay_bounds(500, 2_000)
            .crashes(3, 50_000, 3_000_000)
            .run_sim();
        assert_eq!(r.crashed, 3);
        assert_eq!(r.survivors, 11);
        assert!(r.consistent(), "{}", r.report);
    }

    #[test]
    fn crash_scenario_repairs_survivors_over_sockets() {
        // `crash_at`/`horizon` are virtual-time knobs; the socket backend
        // scales its grace period from the probe interval instead.
        let r = Scenario::new(space())
            .nodes(14)
            .joiners(0)
            .seed(5)
            .options(repairing_detector(50_000))
            .crashes(3, 0, 0)
            .run_net()
            .expect("socket run quiesces");
        assert_eq!(r.crashed, 3);
        assert_eq!(r.survivors, 11);
        assert!(r.consistent(), "{}", r.report);
        assert!(r.finished_at > 0, "the run's wall time is reported");
    }

    #[test]
    fn preset_workload_overrides_generation() {
        let w = JoinWorkload::generate(space(), 6, 2, 9);
        let members = w.members.clone();
        let r = Scenario::new(space()).workload(w).seed(9).run_sim();
        assert_eq!(r.joiners, 2);
        assert_eq!(r.survivors, members.len() + 2);
        assert!(r.consistent());
    }

    #[test]
    fn scenario_storm_reports_full_lookup_stats() {
        let r = Scenario::new(space())
            .nodes(12)
            .joiners(4)
            .seed(13)
            .lookup_storm(300, 10, 0.9)
            .run_sim();
        assert!(r.consistent());
        let s = r.lookup.expect("storm requested");
        assert_eq!(s.lookups, 300);
        assert_eq!(s.keys, 10);
        assert_eq!(s.hop_histogram.iter().sum::<u64>(), 300);
        assert!(s.stretch.is_none());
        // Without a storm the field stays empty.
        let plain = Scenario::new(space())
            .nodes(8)
            .joiners(2)
            .seed(13)
            .run_sim();
        assert!(plain.lookup.is_none());
    }

    #[test]
    fn retry_options_pass_through() {
        let r = Scenario::new(space())
            .nodes(8)
            .joiners(4)
            .seed(11)
            .options(ProtocolOptions::new().with_retry(RetryPolicy::default()))
            .run_sim();
        assert!(r.consistent());
    }
}
