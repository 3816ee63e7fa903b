//! The one scenario runner: a seeded, deterministic schedule of joins,
//! crashes, leaves, keyed lookup storms, and consistency checkpoints,
//! compiled ahead of the run, driven through a runtime, and summarised in
//! one [`TimelineReport`].
//!
//! A [`Timeline`] is a builder over virtual time:
//!
//! ```
//! use hyperring_harness::{Scenario, Timeline};
//! use hyperring_core::{FailureDetector, ProtocolOptions};
//! use hyperring_id::IdSpace;
//!
//! let tl = Timeline::new()
//!     .at(0).join(2)
//!     .at(400_000).crash_count(3)
//!     .at(2_000_000).checkpoint("post-crash")
//!     .at(4_000_000).keyed_storm(64, 16, 0.9)
//!     .horizon(6_000_000);
//! let fd = FailureDetector { probe_interval_us: 100_000, ..FailureDetector::default() };
//! let r = Scenario::new(IdSpace::new(4, 5)?)
//!     .members(12)
//!     .seed(7)
//!     .options(ProtocolOptions::new().with_failure_detector(fd))
//!     .delay_bounds(500, 5_000)
//!     .run(tl);
//! assert!(r.consistent, "{} violations", r.violations);
//! assert_eq!(r.keyed_storms[0].stats.lost, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A one-shot run is a one-segment timeline: [`Timeline::join_wave`]
//! starts every join at t = 0 and sets the horizon to `Time::MAX`, which
//! runs a network without a failure detector to quiescence:
//!
//! ```
//! use hyperring_harness::{Scenario, Timeline};
//! use hyperring_id::IdSpace;
//!
//! let r = Scenario::new(IdSpace::new(8, 4)?)
//!     .members(12)
//!     .seed(7)
//!     .reachability()
//!     .run(Timeline::join_wave(6));
//! assert!(r.consistent);
//! assert_eq!((r.joins, r.survivors, r.unreachable_pairs), (6, 18, Some(0)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! **Determinism.** Compilation resolves every identifier ahead of the
//! run: joiners and gateways come from [`JoinWorkload::generate`], crash
//! and leave victims from one seed-derived shuffle of the members followed
//! by the joiners in schedule order (so the first `k` victims of any
//! timeline are the prefix of a partial Fisher–Yates draw, which is what
//! keeps the `crashchurn` trace digests of the pre-DSL experiment). All
//! schedule injections happen before the simulator starts, so the event
//! stream — and any attached trace digest — depends only on
//! `(timeline, members, seed)`. Checkpoints and keyed storms pause the
//! simulator with `SimNetwork::run_until`, which composes exactly
//! (`run_until(a); run_until(b)` ≡ `run_until(b)`), so *observing* a run
//! more often never changes it.
//!
//! **Measurement.** A [`ChurnLog`] trace sink pairs every `EntryEvicted`
//! with the `RepairInstalled` that refills the slot, yielding per-slot
//! time-to-repair samples (both from eviction and from the underlying
//! crash instant); checkpoints, each a [`check_consistency`] of the
//! S-node tables, yield consistency-recovery spans. Reachability is
//! measured by checkpoints (a false negative is a pair that cannot route,
//! by Lemma 3.1) and, over all pairs at the end, by
//! [`Scenario::reachability`]. A keyed storm routes object lookups
//! through an [`ObjectStore`] over the *current* S-node tables without
//! injecting any simulator event, so it never perturbs the protocol run;
//! it may run at any instant, and a lookup whose walk reaches a node with
//! no S-node table there (crashed and not yet evicted, or still joining)
//! counts as lost ([`LookupStats::lost`]).
//!
//! **Runtimes.** Every runtime runs through one pause loop: it runs to
//! each checkpoint and keyed-storm instant, is observed there, and then
//! runs to its own end. [`Runtime::Sim`], the default, drives the simulator to
//! the horizon, and everything above applies. [`Runtime::Udp`] compiles
//! the joins, crashes and leaves of the same timeline into one schedule
//! of timed inputs and runs it over real loopback sockets
//! ([`UdpNetwork::start`]): each lands at its timeline time on the run
//! clock, a pause stops the clock ([`UdpRun::run_until`]), and the run
//! ends at the horizon, as on the simulator, or earlier at quiescence; a
//! run with a failure detector never quiesces, so it runs to the horizon.
//! Its checkpoints, keyed storms,
//! crash-to-repair times and recovery spans are read on the run clock;
//! its trace digest is not reproducible. The optimistic baseline
//! ([`Scenario::optimistic`]) runs joins only, on the simulator, to
//! quiescence, and records no trace.

use std::collections::{BTreeMap, BTreeSet};

use hyperring_core::{
    build_consistent_tables, check_consistency, check_reachability, ConsistencyReport, DigestTrace,
    JoinEngine, MessageKind, NeighborTable, NodeInput, ProtocolEvent, ProtocolOptions, SharedSink,
    SimNetwork, SimNetworkBuilder, Status, TraceRecord, TraceSink, Violation,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_net::{UdpNetwork, UdpRun};
use hyperring_sim::{DelayModel, RunReport, Time, UniformDelay};

use crate::baseline::start_optimistic;
use crate::lookup::{run_schedule, storm_keys, LookupStats, StormSchedule};
use crate::workload::JoinWorkload;
use hyperring_object::ObjectStore;

/// One scheduled action of a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Start `count` concurrent joins (ids and gateways drawn from the
    /// run's [`JoinWorkload`]).
    Join {
        /// Number of joiners started.
        count: usize,
    },
    /// Crash exactly `count` nodes silently (no goodbye; the failure
    /// detector must notice).
    CrashCount {
        /// Number of victims.
        count: usize,
    },
    /// Make `count` nodes leave gracefully (the goodbye protocol).
    LeaveCount {
        /// Number of leavers.
        count: usize,
    },
    /// Route `lookups` keyed (object-identifier) lookups through a
    /// borrowed [`ObjectStore`] over the current S-node tables: sources
    /// uniform over the live nodes, keys Zipf(`exponent`)-popular.
    KeyedStorm {
        /// Number of lookups routed.
        lookups: usize,
        /// Distinct object keys.
        keys: usize,
        /// Zipf exponent of key popularity (0 = uniform).
        exponent: f64,
    },
    /// Pause and run the Definition-3.8 checker over the current S-node
    /// tables.
    Checkpoint {
        /// Label reported back in the matching [`CheckpointReport`].
        label: String,
    },
}

/// An `(at, action)` pair of a [`Timeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Virtual time (µs) the action fires at.
    pub at: Time,
    /// What happens.
    pub action: Action,
}

/// A seeded schedule of churn events over virtual time. Build with
/// [`at`](Timeline::at) / [`At`]'s chained methods, finish with
/// [`horizon`](Timeline::horizon), run with [`Scenario::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    horizon: Time,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one-segment timeline: `count` concurrent joins at t = 0 and a
    /// horizon of `Time::MAX`, so a network without a failure detector
    /// runs to quiescence. (With a detector the probe tick re-arms
    /// forever; give such a run a finite horizon.)
    pub fn join_wave(count: usize) -> Self {
        Timeline::new().at(0).join(count).horizon(Time::MAX)
    }

    /// Positions the cursor at virtual time `t`; the returned [`At`]
    /// schedules actions there.
    pub fn at(self, t: Time) -> At {
        At { tl: self, t }
    }

    /// Sets the virtual time the run ends at. Defaults to the last
    /// event's time when unset.
    pub fn horizon(mut self, t: Time) -> Self {
        self.horizon = t;
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Resolves the schedule against a concrete population: generates the
    /// member/joiner workload, assigns victims to crash/leave events from
    /// one seed-derived shuffle of the members followed by the joiners in
    /// schedule order, and remaps any join gateway that the schedule has
    /// already removed by then. Pure — same inputs, same
    /// [`CompiledTimeline`].
    ///
    /// # Panics
    ///
    /// Panics on a degenerate schedule: no members, a removal that would
    /// leave no node, or a horizon before the last event.
    pub fn compile(&self, space: IdSpace, members: usize, seed: u64) -> CompiledTimeline {
        use rand::{Rng, SeedableRng};
        assert!(members > 0, "a timeline needs at least one member");
        let mut events: Vec<&TimelineEvent> = self.events.iter().collect();
        events.sort_by_key(|e| e.at); // stable: same-time events keep order
        let horizon = if self.horizon > 0 {
            self.horizon
        } else {
            events.last().map_or(0, |e| e.at)
        };
        if let Some(last) = events.last() {
            assert!(
                horizon >= last.at,
                "horizon {horizon} precedes the last event at {}",
                last.at
            );
        }
        let total_joins: usize = events
            .iter()
            .map(|e| match e.action {
                Action::Join { count } => count,
                _ => 0,
            })
            .sum();
        let w = JoinWorkload::generate(space, members, total_joins, seed);
        // One full seed-derived shuffle of the members; slicing its prefix
        // reproduces `pick_victims(members, k, seed)` exactly. Joiners
        // queue behind the members as they are scheduled.
        let mut pool = pick_victims(&w.members, w.members.len(), seed);
        let mut cursor = 0usize;
        let mut joiner_cursor = 0usize;
        let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
        let mut left: BTreeSet<NodeId> = BTreeSet::new();
        // Drawn from only when a join needs a gateway that no crash-only
        // schedule reaches, so those compile as they always have.
        let mut gateway_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
        let mut out = CompiledTimeline {
            members: w.members.clone(),
            joins: Vec::new(),
            crashes: Vec::new(),
            leaves: Vec::new(),
            keyed_storms: Vec::new(),
            checkpoints: Vec::new(),
            horizon,
        };
        let mut take_victims = |k: usize, pool: &[NodeId], gone: &mut BTreeSet<NodeId>| {
            assert!(
                cursor + k < pool.len(),
                "timeline removes {} of {} nodes; at least one must survive",
                cursor + k,
                pool.len()
            );
            let picked: Vec<NodeId> = pool[cursor..cursor + k].to_vec();
            cursor += k;
            gone.extend(picked.iter().copied());
            picked
        };
        for ev in events {
            match &ev.action {
                Action::Join { count } => {
                    for _ in 0..*count {
                        let (id, gw) = w.joiners[joiner_cursor];
                        joiner_cursor += 1;
                        let gone = |n: &NodeId| crashed.contains(n) || left.contains(n);
                        // A gateway the schedule already removed can never
                        // answer. A crashed one is replaced by the first
                        // live member, the rule the crash experiments'
                        // recorded schedules were compiled with. A departed
                        // one, or a crashed one once every member is gone,
                        // by a seeded uniform draw over the nodes alive and
                        // joined before this instant, so churn that
                        // outlasts its members does not funnel every join
                        // through one node. Joins scheduled before any
                        // removal keep their generated gateway.
                        let live_member = || w.members.iter().copied().find(|m| !gone(m));
                        let gw = if !gone(&gw) {
                            gw
                        } else if let Some(m) = live_member().filter(|_| crashed.contains(&gw)) {
                            m
                        } else {
                            let settled: Vec<NodeId> = w
                                .members
                                .iter()
                                .chain(out.joins.iter().filter(|j| j.2 < ev.at).map(|j| &j.0))
                                .copied()
                                .filter(|n| !gone(n))
                                .collect();
                            assert!(
                                !settled.is_empty(),
                                "no node has settled to take a join at t={}",
                                ev.at
                            );
                            settled[gateway_rng.gen_range(0..settled.len())]
                        };
                        out.joins.push((id, gw, ev.at));
                        pool.push(id);
                    }
                }
                Action::CrashCount { count } => {
                    for v in take_victims(*count, &pool, &mut crashed) {
                        out.crashes.push((v, ev.at));
                    }
                }
                Action::LeaveCount { count } => {
                    for v in take_victims(*count, &pool, &mut left) {
                        out.leaves.push((v, ev.at));
                    }
                }
                Action::KeyedStorm {
                    lookups,
                    keys,
                    exponent,
                } => out.keyed_storms.push((ev.at, *lookups, *keys, *exponent)),
                Action::Checkpoint { label } => out.checkpoints.push((ev.at, label.clone())),
            }
        }
        out
    }
}

/// Draws `k` victims from `members` without replacement, deterministically
/// from `seed` (a partial Fisher–Yates over a seed-separated stream, so
/// the draw is independent of the workload's own randomness).
fn pick_victims(members: &[NodeId], k: usize, seed: u64) -> Vec<NodeId> {
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

/// Cursor of a [`Timeline`] positioned at one virtual time; every method
/// schedules an action there and returns the cursor for chaining.
#[derive(Debug)]
pub struct At {
    tl: Timeline,
    t: Time,
}

impl At {
    fn push(mut self, action: Action) -> Self {
        self.tl.events.push(TimelineEvent { at: self.t, action });
        self
    }

    /// Starts `count` concurrent joins here.
    pub fn join(self, count: usize) -> Self {
        self.push(Action::Join { count })
    }

    /// Crashes exactly `count` nodes here (silently).
    pub fn crash_count(self, count: usize) -> Self {
        self.push(Action::CrashCount { count })
    }

    /// Makes `count` nodes leave gracefully here.
    pub fn leave(self, count: usize) -> Self {
        self.push(Action::LeaveCount { count })
    }

    /// Routes `lookups` keyed lookups (Zipf(`exponent`) over `keys`
    /// object identifiers) through a borrowed object store here.
    pub fn keyed_storm(self, lookups: usize, keys: usize, exponent: f64) -> Self {
        self.push(Action::KeyedStorm {
            lookups,
            keys,
            exponent,
        })
    }

    /// Runs the Definition-3.8 checker here, over the S-node tables.
    pub fn checkpoint(self, label: &str) -> Self {
        self.push(Action::Checkpoint {
            label: label.to_string(),
        })
    }

    /// Moves the cursor to virtual time `t`.
    pub fn at(self, t: Time) -> At {
        self.tl.at(t)
    }

    /// Sets the horizon and finishes the timeline.
    pub fn horizon(self, t: Time) -> Timeline {
        self.tl.horizon(t)
    }

    /// Finishes the timeline (horizon defaults to the last event).
    pub fn done(self) -> Timeline {
        self.tl
    }
}

impl From<At> for Timeline {
    fn from(at: At) -> Timeline {
        at.tl
    }
}

/// A [`Timeline`] resolved against a concrete population: every
/// identifier is known before the simulator starts.
#[derive(Debug, Clone)]
pub struct CompiledTimeline {
    /// The initial consistent network `V`.
    pub members: Vec<NodeId>,
    /// `(joiner, gateway, at)` joins.
    pub joins: Vec<(NodeId, NodeId, Time)>,
    /// `(victim, at)` silent crashes, in schedule order.
    pub crashes: Vec<(NodeId, Time)>,
    /// `(leaver, at)` graceful departures, in schedule order.
    pub leaves: Vec<(NodeId, Time)>,
    /// `(at, lookups, keys, exponent)` keyed storms, in schedule order.
    pub keyed_storms: Vec<(Time, usize, usize, f64)>,
    /// `(at, label)` checkpoints, in schedule order.
    pub checkpoints: Vec<(Time, String)>,
    /// Virtual end of the run.
    pub horizon: Time,
}

impl CompiledTimeline {
    /// The joins, then the crashes, then the leaves, as the
    /// `(at, node, input)` schedule every runtime takes:
    /// [`SimNetwork::inject`] on the simulator, [`UdpNetwork::start`] over
    /// sockets.
    pub fn inputs(&self) -> Vec<(Time, NodeId, NodeInput)> {
        let joins = (self.joins.iter())
            .map(|&(id, gateway, at)| (at, id, NodeInput::StartJoin { gateway }));
        let crashes = (self.crashes.iter()).map(|&(id, at)| (at, id, NodeInput::Crash));
        let leaves = (self.leaves.iter()).map(|&(id, at)| (at, id, NodeInput::BeginLeave));
        joins.chain(crashes).chain(leaves).collect()
    }
}

/// Time-to-repair bookkeeping built from the protocol trace: pairs every
/// `EntryEvicted` with the `RepairInstalled` that refills the slot. A
/// slot refilled from the evicting node's own reverse set is repaired in
/// the tick that evicts it, so its eviction-to-repair sample is 0.
#[derive(Debug, Default)]
pub struct ChurnLog {
    /// When each crash victim died (virtual µs), for crash-to-repair
    /// attribution.
    crash_times: BTreeMap<NodeId, Time>,
    /// `(owner, level, digit)` slots evicted and not yet repaired →
    /// `(evicted_at, victim)`.
    open: BTreeMap<(NodeId, usize, u8), (Time, NodeId)>,
    /// Eviction-to-repair latency per repaired slot (µs).
    pub ttr_from_eviction_us: Vec<u64>,
    /// Crash-to-repair latency per repaired slot (µs; only slots whose
    /// victim has a known crash time).
    pub ttr_from_crash_us: Vec<u64>,
    /// Total evictions observed.
    pub evicted: u64,
    /// Total repairs observed.
    pub repaired: u64,
}

impl ChurnLog {
    /// A log attributing repairs to the given crash schedule.
    pub fn new(crash_times: BTreeMap<NodeId, Time>) -> Self {
        ChurnLog {
            crash_times,
            ..Self::default()
        }
    }
}

impl TraceSink for ChurnLog {
    fn record(&mut self, rec: &TraceRecord) {
        match rec.event {
            ProtocolEvent::EntryEvicted { level, digit, node } => {
                self.evicted += 1;
                self.open.insert((rec.node, level, digit), (rec.at, node));
            }
            ProtocolEvent::RepairInstalled { level, digit, .. } => {
                if let Some((evicted_at, victim)) = self.open.remove(&(rec.node, level, digit)) {
                    self.repaired += 1;
                    self.ttr_from_eviction_us
                        .push(rec.at.saturating_sub(evicted_at));
                    if let Some(&crashed_at) = self.crash_times.get(&victim) {
                        self.ttr_from_crash_us
                            .push(rec.at.saturating_sub(crashed_at));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Fans one trace stream out to two sinks (e.g. a [`ChurnLog`] and a
/// [`DigestTrace`]) without perturbing either.
#[derive(Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.record(rec);
        self.1.record(rec);
    }

    fn flush(&mut self) {
        self.0.flush();
        self.1.flush();
    }
}

/// One checkpoint's consistency verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The checkpoint's label.
    pub label: String,
    /// Virtual time it ran at.
    pub at: Time,
    /// S-node tables it covered.
    pub live: usize,
    /// Definition-3.8 violations among them.
    pub violations: usize,
    /// The reachability-breaking subset.
    pub false_negatives: usize,
    /// Whether the covered tables were fully consistent.
    pub consistent: bool,
    /// Joins started by then that had not finished: neither `in_system`
    /// nor crashed nor departed. Their nodes are not among the `live`
    /// tables checked.
    pub joining: usize,
    /// Messages delivered from the start of the run until then (datagrams
    /// received over UDP).
    pub delivered: u64,
}

/// One keyed storm's routing outcome: full [`LookupStats`] from a
/// borrowed object store stood on the network's live tables at that
/// instant.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedStormReport {
    /// Virtual time the storm ran at.
    pub at: Time,
    /// Routing statistics (no latency oracle under the abstract delay
    /// model, so `stats.stretch` is `None`).
    pub stats: LookupStats,
}

/// Outcome of one scenario run, whatever the runtime: the one report of
/// this crate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineReport {
    /// Joins started by the schedule.
    pub joins: usize,
    /// Nodes crashed by the schedule.
    pub crashed: usize,
    /// Nodes that left gracefully.
    pub left: usize,
    /// Live (neither departed nor crashed) nodes at the end.
    pub survivors: usize,
    /// Final survivor-restricted Definition-3.8 report.
    pub final_report: ConsistencyReport,
    /// Definition-3.8 violations at the end.
    pub violations: usize,
    /// The reachability-breaking subset at the end.
    pub false_negatives: usize,
    /// Whether the run ended consistent.
    pub consistent: bool,
    /// Survivor table entries still naming a crashed node.
    pub dead_refs: usize,
    /// Ordered survivor pairs that cannot route to each other, when the
    /// scenario asked for the check ([`Scenario::reachability`]).
    pub unreachable_pairs: Option<usize>,
    /// Checkpoint verdicts, in schedule order.
    pub checkpoints: Vec<CheckpointReport>,
    /// Keyed-storm outcomes, in schedule order.
    pub keyed_storms: Vec<KeyedStormReport>,
    /// Eviction-to-repair latency samples (µs).
    pub ttr_from_eviction_us: Vec<u64>,
    /// Crash-to-repair latency samples (µs).
    pub ttr_from_crash_us: Vec<u64>,
    /// Consistency-recovery spans (µs): disruption to the first
    /// subsequent consistent checkpoint.
    pub recovery_us: Vec<u64>,
    /// Slots evicted over the run.
    pub evicted: u64,
    /// Slots repaired over the run.
    pub repaired: u64,
    /// Leave-protocol messages (`LeaveNoti` + `RvNghForget`) each leaver
    /// sent, in schedule order.
    pub leave_msgs: Vec<u64>,
    /// Messages delivered over the run (datagrams received over UDP).
    pub delivered: u64,
    /// Timers fired over the run.
    pub timers_fired: u64,
    /// Time the run ended at: virtual µs on the simulator, wall-clock µs
    /// over UDP (pauses left out).
    pub finished_at: u64,
    /// Protocol events recorded.
    pub traced: u64,
    /// FNV-1a digest of the full protocol trace (byte-identical across
    /// simulator reruns of the same `(timeline, members, seed)`).
    pub trace_digest: u64,
}

/// Where a [`Scenario`] runs its compiled timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// The deterministic discrete-event simulator, in virtual time.
    #[default]
    Sim,
    /// Real loopback UDP sockets ([`UdpNetwork`]), on a wall clock that
    /// stops at pauses.
    Udp,
}

impl std::str::FromStr for Runtime {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sim" => Ok(Runtime::Sim),
            "udp" => Ok(Runtime::Udp),
            other => Err(format!("unknown runtime {other:?} (sim | udp)")),
        }
    }
}

/// Runner configuration for a [`Timeline`]: population, seed, options,
/// simulator delay bounds, runtime.
#[derive(Debug, Clone)]
pub struct Scenario {
    space: IdSpace,
    members: usize,
    seed: u64,
    opts: ProtocolOptions,
    delay_bounds: (Time, Time),
    runtime: Runtime,
    optimistic: bool,
    reachability: bool,
}

impl Scenario {
    /// A scenario over `space` with 16 members, seed 0, default options,
    /// the crash-churn experiment's `[1 ms, 50 ms]` delay bounds, and the
    /// simulator runtime.
    pub fn new(space: IdSpace) -> Self {
        Scenario {
            space,
            members: 16,
            seed: 0,
            opts: ProtocolOptions::new(),
            delay_bounds: (1_000, 50_000),
            runtime: Runtime::Sim,
            optimistic: false,
            reachability: false,
        }
    }

    /// Sets the initial member count.
    pub fn members(mut self, n: usize) -> Self {
        self.members = n;
        self
    }

    /// Sets the seed (workload, victims, delays, storms).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the protocol options handed to every engine.
    pub fn options(mut self, opts: ProtocolOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the uniform message-delay bounds (µs) of the simulator.
    pub fn delay_bounds(mut self, min: Time, max: Time) -> Self {
        self.delay_bounds = (min, max);
        self
    }

    /// Sets the runtime the timeline runs on (see the module docs for
    /// what each supports).
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Runs the optimistic Pastry-style baseline (§1) instead of the
    /// paper's protocol: joins only, on the simulator.
    pub fn optimistic(mut self) -> Self {
        self.optimistic = true;
        self
    }

    /// Also routes every ordered pair of survivors over the final tables
    /// and reports the pairs that cannot reach each other
    /// ([`TimelineReport::unreachable_pairs`]); `n²` routes, so off by
    /// default.
    pub fn reachability(mut self) -> Self {
        self.reachability = true;
        self
    }

    /// Compiles and runs `timeline`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate schedule (see [`Timeline::compile`]) and as
    /// [`run_compiled`](Self::run_compiled) does.
    pub fn run(&self, timeline: Timeline) -> TimelineReport {
        let c = timeline.compile(self.space, self.members, self.seed);
        self.run_compiled(&c)
    }

    /// Runs an already-compiled timeline (exposed so callers can inspect
    /// or pin the resolved schedule).
    ///
    /// # Panics
    ///
    /// Panics on a schedule the runtime cannot run (see the module docs),
    /// and when a socket run fails ([`NetError`](hyperring_net::NetError)).
    pub fn run_compiled(&self, c: &CompiledTimeline) -> TimelineReport {
        if self.optimistic {
            assert!(
                c.crashes.is_empty() && c.leaves.is_empty(),
                "the optimistic baseline has no failure or leave handling"
            );
            assert_eq!(
                self.runtime,
                Runtime::Sim,
                "the optimistic baseline runs on the simulator only"
            );
            let run = start_optimistic(self.space, c, self.seed, self.delay_bounds);
            return self.pause_loop(c, run);
        }
        let trace = Trace::new(c);
        let tables = build_consistent_tables(self.space, &c.members);
        let mut r = match self.runtime {
            Runtime::Sim => {
                let mut b = SimNetworkBuilder::new(self.space);
                b.with_member_tables(tables);
                b.options(self.opts);
                b.trace(trace.sink());
                let (lo, hi) = self.delay_bounds;
                let mut net = b.build(UniformDelay::new(lo, hi), self.seed);
                for (at, id, input) in c.inputs() {
                    net.inject(at, id, input);
                }
                self.pause_loop(c, net)
            }
            Runtime::Udp => {
                let net = UdpNetwork::new(self.space, self.opts, tables).with_trace(trace.sink());
                self.pause_loop(c, socket_run(net.start(&c.inputs())))
            }
        };
        trace.read_into(&mut r);
        r
    }

    /// The one pause loop: runs `run` to each checkpoint and keyed-storm
    /// instant in turn and observes its S-node tables there, then runs it
    /// to its end and reports.
    fn pause_loop(&self, c: &CompiledTimeline, mut run: impl Run) -> TimelineReport {
        let mut obs = Observer::new(self, c);
        for (at, pause) in pauses(c) {
            let delivered = run.pause_at(at);
            // A join not started yet is still `Copying`.
            let unstarted = c.joins.iter().filter(|(.., t)| *t > at).count();
            let joining = run.tables(Status::is_joining).len() - unstarted;
            let tables = run.tables(|s| s == Status::InSystem);
            obs.observe(at, pause, &tables, delivered, joining);
        }
        let end = run.run_to_end(c.horizon);
        // The survivor-restricted verdict over the live nodes' tables.
        let tables = run.tables(|s| !matches!(s, Status::Crashed | Status::Departed));
        let crashed: BTreeSet<NodeId> = c.crashes.iter().map(|(id, _)| *id).collect();
        let dead_refs = tables
            .iter()
            .flat_map(|t| t.iter())
            .filter(|(_, _, e)| crashed.contains(&e.node))
            .count();
        let final_report = check_consistency(self.space, tables.iter().copied());
        TimelineReport {
            joins: c.joins.len(),
            crashed: c.crashes.len(),
            left: c.leaves.len(),
            survivors: tables.len(),
            violations: final_report.violations().len(),
            false_negatives: false_negatives(&final_report),
            consistent: final_report.is_consistent(),
            final_report,
            dead_refs,
            unreachable_pairs: self
                .reachability
                .then(|| check_reachability(tables.iter().copied()).len()),
            checkpoints: obs.checkpoints,
            keyed_storms: obs.keyed_storms,
            recovery_us: obs.recovery_us,
            leave_msgs: c.leaves.iter().map(|(id, _)| run.leave_msgs(id)).collect(),
            delivered: end.delivered,
            timers_fired: end.timers_fired,
            finished_at: end.finished_at,
            ..TimelineReport::default()
        }
    }
}

/// The trace sinks every runtime attaches: time-to-repair bookkeeping
/// against the crash schedule, and the trace digest.
struct Trace {
    churn: SharedSink<ChurnLog>,
    digest: SharedSink<DigestTrace>,
}

impl Trace {
    fn new(c: &CompiledTimeline) -> Self {
        let crash_times: BTreeMap<NodeId, Time> = c.crashes.iter().copied().collect();
        Trace {
            churn: SharedSink::new(ChurnLog::new(crash_times)),
            digest: SharedSink::new(DigestTrace::new()),
        }
    }

    /// One sink feeding both, for a runtime to own.
    fn sink(&self) -> Box<dyn TraceSink + Send> {
        Box::new(TeeSink(self.churn.clone(), self.digest.clone()))
    }

    /// Copies what the sinks gathered into `r`.
    fn read_into(&self, r: &mut TimelineReport) {
        let log = self.churn.lock();
        r.ttr_from_eviction_us = log.ttr_from_eviction_us.clone();
        r.ttr_from_crash_us = log.ttr_from_crash_us.clone();
        r.evicted = log.evicted;
        r.repaired = log.repaired;
        let digest = self.digest.lock();
        r.traced = digest.count();
        r.trace_digest = digest.digest();
    }
}

fn false_negatives(report: &ConsistencyReport) -> usize {
    report
        .violations()
        .iter()
        .filter(|v| matches!(v, Violation::FalseNegative { .. }))
        .count()
}

/// A compiled timeline started on one runtime, as the one pause loop of
/// [`Scenario::run_compiled`] drives it.
pub(crate) trait Run {
    /// Runs every event due at or before `at`, none after, and pauses;
    /// returns the messages delivered so far.
    fn pause_at(&mut self, at: Time) -> u64;
    /// Runs to the horizon, or to quiescence if that comes first (the
    /// optimistic baseline, with no timers, always runs to quiescence),
    /// and reports the whole run.
    fn run_to_end(&mut self, horizon: Time) -> RunReport;
    /// The tables of the nodes whose status `keep` accepts, in node order.
    fn tables(&self, keep: fn(Status) -> bool) -> Vec<&NeighborTable>;
    /// Leave-protocol messages (`LeaveNoti` + `RvNghForget`) `id` sent;
    /// none where nobody leaves.
    fn leave_msgs(&self, _id: &NodeId) -> u64 {
        0
    }
}

fn kept<'a>(
    engines: impl Iterator<Item = &'a JoinEngine>,
    keep: fn(Status) -> bool,
) -> Vec<&'a NeighborTable> {
    engines
        .filter(|e| keep(e.status()))
        .map(JoinEngine::table)
        .collect()
}

fn leave_msgs(e: &JoinEngine) -> u64 {
    let s = e.stats();
    s.sent(MessageKind::LeaveNoti) + s.sent(MessageKind::RvNghForget)
}

impl<D: DelayModel> Run for SimNetwork<D> {
    fn pause_at(&mut self, at: Time) -> u64 {
        self.run_until(at).delivered
    }

    fn run_to_end(&mut self, horizon: Time) -> RunReport {
        self.run_until(horizon)
    }

    fn tables(&self, keep: fn(Status) -> bool) -> Vec<&NeighborTable> {
        kept(self.engines(), keep)
    }

    fn leave_msgs(&self, id: &NodeId) -> u64 {
        leave_msgs(self.engine(id))
    }
}

/// The socket run's result, or the panic [`Scenario::run_compiled`]
/// documents.
fn socket_run<T>(r: Result<T, hyperring_net::NetError>) -> T {
    r.unwrap_or_else(|e| panic!("socket run failed: {e}"))
}

impl Run for UdpRun {
    fn pause_at(&mut self, at: Time) -> u64 {
        socket_run(self.run_until(at)).datagrams_received
    }

    /// The run clock stops a little past the horizon; the report ends at it.
    fn run_to_end(&mut self, horizon: Time) -> RunReport {
        let stats = socket_run(self.run_until(horizon));
        RunReport {
            delivered: stats.datagrams_received,
            timers_fired: stats.timers_fired,
            finished_at: (stats.wall.as_micros() as u64).min(horizon),
            ..RunReport::default()
        }
    }

    fn tables(&self, keep: fn(Status) -> bool) -> Vec<&NeighborTable> {
        kept(self.engines(), keep)
    }

    fn leave_msgs(&self, id: &NodeId) -> u64 {
        self.engines().find(|e| e.id() == *id).map_or(0, leave_msgs)
    }
}

/// A pure observation the run pauses for.
enum Pause<'a> {
    Check(&'a str),
    Keyed {
        lookups: usize,
        keys: usize,
        exponent: f64,
    },
}

/// Checkpoints and keyed storms merged into one pause schedule, by time,
/// then by schedule order within each kind.
fn pauses(c: &CompiledTimeline) -> Vec<(Time, Pause<'_>)> {
    let mut pauses: Vec<(Time, usize, Pause)> = Vec::new();
    for (i, (at, label)) in c.checkpoints.iter().enumerate() {
        pauses.push((*at, i, Pause::Check(label)));
    }
    for (i, &(at, lookups, keys, exponent)) in c.keyed_storms.iter().enumerate() {
        pauses.push((
            at,
            i,
            Pause::Keyed {
                lookups,
                keys,
                exponent,
            },
        ));
    }
    pauses.sort_by_key(|(at, i, _)| (*at, *i));
    pauses.into_iter().map(|(at, _, p)| (at, p)).collect()
}

/// What the pauses of one run saw, plus the consistency-recovery
/// bookkeeping: the first disruption after the tables were last known
/// consistent opens a spell; the first consistent checkpoint after it
/// closes the spell.
struct Observer {
    space: IdSpace,
    seed: u64,
    disruptions: Vec<Time>,
    disruption_idx: usize,
    open_spell: Option<Time>,
    last_consistent_at: Time,
    recovery_us: Vec<u64>,
    checkpoints: Vec<CheckpointReport>,
    keyed_storms: Vec<KeyedStormReport>,
}

impl Observer {
    fn new(s: &Scenario, c: &CompiledTimeline) -> Self {
        let mut disruptions: Vec<Time> = c
            .crashes
            .iter()
            .chain(&c.leaves)
            .map(|(_, at)| *at)
            .collect();
        disruptions.sort_unstable();
        Observer {
            space: s.space,
            seed: s.seed,
            disruptions,
            disruption_idx: 0,
            open_spell: None,
            last_consistent_at: 0,
            recovery_us: Vec::new(),
            checkpoints: Vec::new(),
            keyed_storms: Vec::new(),
        }
    }

    /// Runs one pause over the S-node `tables` of instant `at`, when
    /// `delivered` messages have been delivered and `joining` joins have
    /// started and not finished.
    fn observe(
        &mut self,
        at: Time,
        pause: Pause<'_>,
        tables: &[&NeighborTable],
        delivered: u64,
        joining: usize,
    ) {
        match pause {
            Pause::Check(label) => {
                let report = check_consistency(self.space, tables.iter().copied());
                let consistent = report.is_consistent();
                // Advance the disruption cursor to this checkpoint.
                while let Some(&t) = self.disruptions.get(self.disruption_idx) {
                    if t > at {
                        break;
                    }
                    if self.open_spell.is_none() && t >= self.last_consistent_at {
                        self.open_spell = Some(t);
                    }
                    self.disruption_idx += 1;
                }
                if consistent {
                    if let Some(t0) = self.open_spell.take() {
                        self.recovery_us.push(at.saturating_sub(t0));
                    }
                    self.last_consistent_at = at;
                }
                self.checkpoints.push(CheckpointReport {
                    label: label.to_string(),
                    at,
                    live: tables.len(),
                    violations: report.violations().len(),
                    false_negatives: false_negatives(&report),
                    consistent,
                    joining,
                    delivered,
                });
            }
            Pause::Keyed {
                lookups,
                keys,
                exponent,
            } => {
                let schedule = StormSchedule::compile(
                    tables.iter().map(|t| t.owner()).collect(),
                    storm_keys(self.space, "timeline-key", keys),
                    lookups,
                    exponent,
                    self.seed
                        ^ 0x517c_c1b7_2722_0a95_u64
                            .wrapping_mul(self.keyed_storms.len() as u64 + 1),
                );
                let store = ObjectStore::over(self.space, tables.iter().copied());
                let stats = run_schedule(&store, &schedule, None, None);
                self.keyed_storms.push(KeyedStormReport { at, stats });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::FailureDetector;

    fn space() -> IdSpace {
        IdSpace::new(4, 5).unwrap()
    }

    fn fd() -> FailureDetector {
        FailureDetector {
            probe_interval_us: 100_000,
            ..FailureDetector::default()
        }
    }

    #[test]
    fn builder_orders_and_compiles() {
        let tl = Timeline::new()
            .at(1_000)
            .join(2)
            .crash_count(2)
            .at(500)
            .checkpoint("early")
            .horizon(10_000);
        let c = tl.compile(space(), 8, 3);
        assert_eq!(c.joins.len(), 2);
        assert_eq!(c.crashes.len(), 2);
        assert_eq!(c.checkpoints, vec![(500, "early".to_string())]);
        assert_eq!(c.horizon, 10_000);
        // Stable sort: the checkpoint at t=500 precedes the t=1000 events,
        // and compile is pure.
        let c2 = tl.compile(space(), 8, 3);
        assert_eq!(c.crashes, c2.crashes);
        assert_eq!(c.joins, c2.joins);
    }

    #[test]
    fn first_crash_event_matches_one_shot_victims() {
        let tl = Timeline::new().at(100).crash_count(3).horizon(200);
        let c = tl.compile(space(), 10, 7);
        let w = JoinWorkload::generate(space(), 10, 0, 7);
        let expect = pick_victims(&w.members, 3, 7);
        let got: Vec<NodeId> = c.crashes.iter().map(|(id, _)| *id).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn dead_gateways_are_remapped() {
        let tl = Timeline::new()
            .at(100)
            .crash_count(5)
            .at(5_000_000)
            .join(8)
            .horizon(6_000_000);
        let c = tl.compile(space(), 8, 11);
        let dead: BTreeSet<NodeId> = c.crashes.iter().map(|(id, _)| *id).collect();
        assert_eq!(dead.len(), 5);
        let first_live = c.members.iter().find(|m| !dead.contains(m)).unwrap();
        let w = JoinWorkload::generate(space(), 8, 8, 11);
        let mut remapped = 0;
        for ((id, gw, _), (_, generated)) in c.joins.iter().zip(&w.joiners) {
            assert!(!dead.contains(gw), "join {id} routed via dead gateway {gw}");
            assert_ne!(id, gw);
            if dead.contains(generated) {
                // A crashed gateway goes to the first live member.
                assert_eq!(gw, first_live);
                remapped += 1;
            }
        }
        assert!(remapped > 0, "the draw never hit a dead gateway");
    }

    #[test]
    fn victims_outlast_the_members_through_the_joiners() {
        // 4 members, 3 joiners at t = 0, then 5 leaves: the four members in
        // shuffle order, then the first joiner. A later join whose gateway
        // has left goes through a surviving earlier joiner.
        let tl = Timeline::new()
            .at(0)
            .join(3)
            .at(1_000_000)
            .leave(5)
            .at(2_000_000)
            .join(1)
            .horizon(3_000_000);
        let c = tl.compile(space(), 4, 5);
        let left: Vec<NodeId> = c.leaves.iter().map(|(id, _)| *id).collect();
        let w = JoinWorkload::generate(space(), 4, 4, 5);
        assert_eq!(&left[..4], &pick_victims(&w.members, 4, 5)[..]);
        assert_eq!(left[4], c.joins[0].0);
        assert_eq!(c.joins[3].2, 2_000_000);
        assert!([c.joins[1].0, c.joins[2].0].contains(&c.joins[3].1));
    }

    #[test]
    fn joins_after_the_members_left_spread_over_the_survivors() {
        // Every member leaves; the next wave's generated gateways are all
        // gone and are drawn over the eight earlier joiners, never over a
        // joiner of the same wave.
        let tl = Timeline::new()
            .at(0)
            .join(8)
            .at(1_000_000)
            .leave(4)
            .at(2_000_000)
            .join(16)
            .horizon(3_000_000);
        let c = tl.compile(space(), 4, 9);
        let earlier: BTreeSet<NodeId> = c.joins[..8].iter().map(|j| j.0).collect();
        let gateways: BTreeSet<NodeId> = c.joins[8..].iter().map(|j| j.1).collect();
        assert!(gateways.is_subset(&earlier));
        assert!(gateways.len() > 4, "{} distinct gateways", gateways.len());
    }

    #[test]
    #[should_panic(expected = "at least one must survive")]
    fn a_schedule_must_leave_a_survivor() {
        let tl = Timeline::new().at(0).join(1).at(10).crash_count(3).done();
        tl.compile(space(), 2, 1);
    }

    #[test]
    fn crash_wave_timeline_repairs_and_checkpoints_see_recovery() {
        let tl = Timeline::new()
            .at(100_000)
            .crash_count(4)
            .at(150_000)
            .checkpoint("during")
            .at(4_500_000)
            .checkpoint("after")
            .at(4_600_000)
            .keyed_storm(32, 16, 0.9)
            .horizon(5_000_000);
        let r = Scenario::new(space())
            .members(16)
            .seed(5)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        assert_eq!(r.crashed, 4);
        assert_eq!(r.survivors, 12);
        assert_eq!(r.dead_refs, 0);
        assert!(r.consistent, "{} violations", r.violations);
        let after = &r.checkpoints[1];
        assert!(after.consistent, "late checkpoint inconsistent");
        assert!(r.repaired > 0 && !r.ttr_from_crash_us.is_empty());
        // Every repair strictly follows its crash. A slot refilled from
        // the evicting node's own reverse set is repaired in the tick that
        // evicts it, at an eviction-to-repair time of 0; this wave has one.
        assert!(r.ttr_from_crash_us.iter().all(|&t| t > 0));
        assert!(r.ttr_from_eviction_us.contains(&0));
        let storm = &r.keyed_storms[0].stats;
        assert_eq!(storm.lost, 0, "post-repair lookups lost");
        assert!(storm.max_hops <= 5);
    }

    #[test]
    fn checkpoints_do_not_perturb_the_run() {
        let base = Scenario::new(space())
            .members(16)
            .seed(9)
            .options(ProtocolOptions::new().with_failure_detector(fd()));
        let plain = base.run(
            Timeline::new()
                .at(100_000)
                .crash_count(4)
                .horizon(5_000_000),
        );
        let observed = base.run(
            Timeline::new()
                .at(100_000)
                .crash_count(4)
                .at(1_000_000)
                .checkpoint("a")
                .at(2_500_000)
                .keyed_storm(64, 8, 0.9)
                .at(3_000_000)
                .checkpoint("b")
                .horizon(5_000_000),
        );
        assert_eq!(plain.trace_digest, observed.trace_digest);
        assert_eq!(plain.delivered, observed.delivered);
        assert_eq!(plain.finished_at, observed.finished_at);
        // The keyed storm really ran — it just couldn't perturb anything.
        assert_eq!(observed.keyed_storms.len(), 1);
        assert_eq!(observed.keyed_storms[0].stats.lookups, 64);
    }

    #[test]
    fn keyed_storms_report_full_lookup_stats() {
        let tl = Timeline::new()
            .at(100_000)
            .crash_count(4)
            .at(4_500_000)
            .keyed_storm(200, 12, 0.8)
            .horizon(5_000_000);
        let r = Scenario::new(space())
            .members(16)
            .seed(5)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        assert!(r.consistent, "{} violations", r.violations);
        let s = &r.keyed_storms[0].stats;
        assert_eq!(s.lookups, 200);
        assert_eq!(s.keys, 12);
        assert_eq!((s.hop_histogram.iter().sum::<u64>(), s.lost), (200, 0));
        assert!(s.stretch.is_none(), "abstract delay model has no oracle");
        assert!(s.load.imbalance >= 1.0);
        // Post-repair tables are consistent, so every lookup terminates
        // within d hops.
        assert!(s.max_hops <= 5);
    }

    #[test]
    fn a_keyed_storm_between_a_crash_and_its_detection_loses_lookups() {
        // A quarter of the members crash at 100 ms; at 150 ms no probe has
        // fired yet, so survivors still name the victims, and walks that
        // step on one end there, lost, instead of aborting the run.
        let tl = Timeline::new()
            .at(100_000)
            .crash_count(8)
            .at(150_000)
            .keyed_storm(500, 16, 0.9)
            .horizon(1_000_000);
        let r = Scenario::new(space())
            .members(32)
            .seed(5)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        let s = &r.keyed_storms[0].stats;
        assert_eq!(s.lookups, 500);
        assert!(0 < s.lost && s.lost < 500, "{} lost", s.lost);
        assert_eq!(s.hop_histogram.iter().sum::<u64>(), 500 - s.lost as u64);
        assert!(s.load.loaded_nodes > 0);
    }

    #[test]
    fn graceful_leaves_ride_the_timeline() {
        let tl = Timeline::new()
            .at(200_000)
            .leave(2)
            .at(4_000_000)
            .checkpoint("settled")
            .horizon(5_000_000);
        let r = Scenario::new(space())
            .members(12)
            .seed(4)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        assert_eq!(r.left, 2);
        assert_eq!(r.survivors, 10);
        assert!(r.consistent, "{} violations", r.violations);
    }

    #[test]
    fn a_join_wave_runs_to_quiescence_with_reachability() {
        let r = Scenario::new(space())
            .members(10)
            .seed(3)
            .delay_bounds(1_000, 100_000)
            .reachability()
            .run(Timeline::join_wave(5));
        assert!(r.consistent, "{}", r.final_report);
        assert_eq!((r.joins, r.survivors), (5, 15));
        assert_eq!(r.unreachable_pairs, Some(0));
        assert!(r.finished_at > 0 && r.finished_at < Time::MAX);
        // Without the flag the n² routes are skipped.
        let plain = Scenario::new(space())
            .members(10)
            .seed(3)
            .run(Timeline::join_wave(5));
        assert_eq!(plain.unreachable_pairs, None);
    }

    #[test]
    fn a_keyed_storm_after_quiescence_sees_the_settled_network() {
        let tl = Timeline::new()
            .at(0)
            .join(4)
            .at(Time::MAX)
            .keyed_storm(300, 10, 0.9)
            .done();
        let r = Scenario::new(space()).members(12).seed(13).run(tl);
        assert!(r.consistent);
        let s = &r.keyed_storms[0].stats;
        assert_eq!((s.lookups, s.keys), (300, 10));
        assert_eq!(s.hop_histogram.iter().sum::<u64>(), 300);
        assert!(s.stretch.is_none());
    }

    #[test]
    fn sim_and_udp_runtimes_agree_on_a_join_wave() {
        let scenario = Scenario::new(space()).members(10).seed(3);
        let sim = scenario.run(Timeline::join_wave(5));
        assert!(sim.consistent, "{}", sim.final_report);
        let udp = scenario.runtime(Runtime::Udp).run(Timeline::join_wave(5));
        assert!(udp.consistent, "{}", udp.final_report);
        assert_eq!((udp.joins, udp.survivors), (5, 15));
        assert!(udp.delivered > 0 && udp.traced > 0);
    }

    /// 14 members over UDP, probing every 50 ms.
    fn udp_probing_every_50_ms() -> Scenario {
        let fd = FailureDetector {
            probe_interval_us: 50_000,
            ..fd()
        };
        (Scenario::new(space()).members(14).seed(5))
            .options(ProtocolOptions::new().with_failure_detector(fd))
            .runtime(Runtime::Udp)
    }

    #[test]
    fn a_crash_wave_repairs_survivors_over_sockets() {
        // The wave lands at t = 0 on the run clock, and the socket runtime
        // runs to the horizon, the checkpoint at 500 ms, as the simulator
        // does: the failure detector keeps it from quiescing.
        let r = udp_probing_every_50_ms().run(
            Timeline::new()
                .at(0)
                .crash_count(3)
                .at(500_000)
                .checkpoint("midway")
                .done(),
        );
        assert_eq!(r.crashed, 3);
        assert_eq!(r.survivors, 11);
        assert_eq!(r.dead_refs, 0);
        assert!(r.consistent, "{}", r.final_report);
        assert_eq!(r.finished_at, 500_000, "the run ends at its horizon");
        // The checkpoint sees the 11 survivors at 500 ms, where the run
        // ends with nothing delivered after it; the crash at 0 opened a
        // disruption, which a consistent checkpoint closes after 500 ms.
        let ck = &r.checkpoints[0];
        assert_eq!((ck.at, ck.live, ck.joining), (500_000, 11, 0));
        assert!(0 < ck.delivered && ck.delivered == r.delivered);
        let spans = if ck.consistent { vec![500_000] } else { vec![] };
        assert_eq!(r.recovery_us, spans);
        // The crashes land at their timeline instant, so crash-to-repair
        // is measured from it.
        assert!(!r.ttr_from_crash_us.is_empty());
        assert!(r.ttr_from_crash_us.iter().all(|&t| t > 0));
    }

    #[test]
    fn a_udp_checkpoint_reads_the_run_at_its_own_instant() {
        // A crash under a detector probing every 50 ms: the probes go on
        // until the horizon, so a checkpoint long after the repair has
        // settled still sees the run move since the one before.
        let r = udp_probing_every_50_ms().run(
            Timeline::new()
                .at(0)
                .crash_count(3)
                .at(1_000_000)
                .checkpoint("settled")
                .at(1_500_000)
                .checkpoint("later")
                .done(),
        );
        let [first, second] = &r.checkpoints[..] else {
            panic!("two checkpoints: {:?}", r.checkpoints);
        };
        assert!(
            second.delivered > first.delivered,
            "{} then {}",
            first.delivered,
            second.delivered
        );
        assert_eq!(r.finished_at, 1_500_000);
        assert!(r.consistent, "{}", r.final_report);
    }

    #[test]
    fn sim_and_udp_runtimes_agree_on_staggered_joins_and_a_leave() {
        let tl = Timeline::new()
            .at(0)
            .join(2)
            .at(200_000)
            .join(2)
            .at(300_000)
            .checkpoint("between")
            .at(400_000)
            .leave(1)
            .horizon(Time::MAX);
        let scenario = Scenario::new(space()).members(10).seed(9);
        let sim = scenario.run(tl.clone());
        let udp = scenario.runtime(Runtime::Udp).run(tl);
        for r in [&sim, &udp] {
            assert!(r.consistent, "{}", r.final_report);
            assert_eq!((r.joins, r.left, r.survivors), (4, 1, 13));
            // At 300 ms every node has started and none has left.
            let ck = &r.checkpoints[0];
            assert_eq!(ck.live + ck.joining, 14, "{ck:?}");
            assert!(ck.delivered <= r.delivered);
            assert_eq!(r.leave_msgs.len(), 1);
        }
        assert!(udp.delivered > 0 && udp.traced > 0);
        assert!(udp.finished_at >= 400_000, "the leave lands at 400 ms");
    }
}
