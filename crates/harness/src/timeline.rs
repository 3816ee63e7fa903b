//! The event-timeline scenario DSL: one seeded, deterministic schedule of
//! joins, crashes, leaves, lookup storms, and consistency checkpoints,
//! compiled ahead of the run and driven through the simulator.
//!
//! A [`Timeline`] is a builder over virtual time:
//!
//! ```
//! use hyperring_harness::{Timeline, TimelineScenario};
//! use hyperring_core::{FailureDetector, ProtocolOptions};
//! use hyperring_id::IdSpace;
//!
//! let tl = Timeline::new()
//!     .at(0).join(2)
//!     .at(400_000).crash(0.25)
//!     .at(2_000_000).checkpoint("post-crash")
//!     .at(4_000_000).lookup_storm(64)
//!     .horizon(6_000_000);
//! let fd = FailureDetector { probe_interval_us: 100_000, ..FailureDetector::default() };
//! let r = TimelineScenario::new(IdSpace::new(4, 5)?)
//!     .members(12)
//!     .seed(7)
//!     .options(ProtocolOptions::new().with_failure_detector(fd))
//!     .delay_bounds(500, 5_000)
//!     .run(tl);
//! assert!(r.consistent, "{} violations", r.violations);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! **Determinism.** Compilation resolves every identifier ahead of the
//! run: joiners and gateways come from [`JoinWorkload::generate`], crash
//! and leave victims from one seed-derived shuffle of the members
//! (`pick_victims` semantics — the first `k` victims of any timeline
//! equal the `k` victims a one-shot crash scenario draws, which is what
//! keeps the refolded `crashchurn` experiment bit-identical). All
//! schedule injections happen before the simulator starts, so the event
//! stream — and any attached trace digest — depends only on
//! `(timeline, members, seed)`. Checkpoints and storms pause the
//! simulator with `SimNetwork::run_until`, which composes exactly
//! (`run_until(a); run_until(b)` ≡ `run_until(b)`), so *observing* a run
//! more often never changes it.
//!
//! **Measurement.** A [`ChurnLog`] trace sink pairs every `EntryEvicted`
//! with the `RepairInstalled` that refills the slot, yielding per-slot
//! time-to-repair samples (both from eviction and from the underlying
//! crash instant); [`IncrementalChecker`] checkpoints yield
//! consistency-recovery spans. Lookup storms greedily suffix-route seeded
//! `(source, target)` pairs over the *current* S-node tables without
//! injecting any simulator event, so they measure reachability without
//! perturbing the protocol run.

use std::collections::{BTreeMap, BTreeSet};

use hyperring_core::{
    ConsistencyReport, DigestTrace, IncrementalChecker, NeighborTable, ProtocolEvent,
    ProtocolOptions, SharedSink, SimNetworkBuilder, Status, TraceRecord, TraceSink, Violation,
};
use hyperring_id::{IdSpace, NodeId};
use hyperring_sim::{Time, UniformDelay};

use crate::lookup::{run_schedule, storm_keys, LookupStats, StormSchedule};
use crate::scenario::pick_victims;
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
    /// Crash `⌈initial_members · fraction⌉` members silently (no goodbye;
    /// the failure detector must notice).
    CrashFrac {
        /// Fraction of the *initial* member count.
        fraction: f64,
    },
    /// Crash exactly `count` members silently.
    CrashCount {
        /// Number of victims.
        count: usize,
    },
    /// Make `count` members leave gracefully (the goodbye protocol).
    LeaveCount {
        /// Number of leavers.
        count: usize,
    },
    /// Route `lookups` seeded `(source, target)` pairs over the current
    /// S-node tables and record delivery/hop statistics.
    LookupStorm {
        /// Number of lookups routed.
        lookups: usize,
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
    /// Pause and run the incremental Definition-3.8 checker over the
    /// current S-node tables.
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
/// [`horizon`](Timeline::horizon), run with [`TimelineScenario::run`].
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
    /// one seed-derived shuffle, and remaps any join gateway that the
    /// schedule has already killed by then. Pure — same inputs, same
    /// [`CompiledTimeline`].
    ///
    /// # Panics
    ///
    /// Panics on a degenerate schedule: no members, more victims than
    /// members − 1, or a horizon before the last event.
    pub fn compile(&self, space: IdSpace, members: usize, seed: u64) -> CompiledTimeline {
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
        // reproduces `pick_victims(members, k, seed)` exactly, so the
        // first crash event of a timeline kills the same nodes a one-shot
        // crash scenario would.
        let pool = pick_victims(&w.members, w.members.len(), seed);
        let mut cursor = 0usize;
        let mut joiner_cursor = 0usize;
        let mut dead: BTreeSet<NodeId> = BTreeSet::new();
        let mut out = CompiledTimeline {
            members: w.members.clone(),
            joins: Vec::new(),
            crashes: Vec::new(),
            leaves: Vec::new(),
            storms: Vec::new(),
            keyed_storms: Vec::new(),
            checkpoints: Vec::new(),
            horizon,
        };
        let take_victims = |k: usize, cursor: &mut usize, dead: &mut BTreeSet<NodeId>| {
            assert!(
                *cursor + k < members,
                "timeline kills {} of {members} members; at least one must survive",
                *cursor + k
            );
            let picked: Vec<NodeId> = pool[*cursor..*cursor + k].to_vec();
            *cursor += k;
            dead.extend(picked.iter().copied());
            picked
        };
        for ev in events {
            match &ev.action {
                Action::Join { count } => {
                    for _ in 0..*count {
                        let (id, gw) = w.joiners[joiner_cursor];
                        joiner_cursor += 1;
                        // A gateway the schedule already killed can never
                        // answer; remap deterministically to the first
                        // still-alive member. Joins scheduled before any
                        // crash keep their generated gateway untouched.
                        let gw = if dead.contains(&gw) {
                            w.members
                                .iter()
                                .copied()
                                .find(|m| !dead.contains(m))
                                .expect("at least one member survives")
                        } else {
                            gw
                        };
                        out.joins.push((id, gw, ev.at));
                    }
                }
                Action::CrashFrac { fraction } => {
                    let k = ((members as f64) * fraction).ceil() as usize;
                    for v in take_victims(k, &mut cursor, &mut dead) {
                        out.crashes.push((v, ev.at));
                    }
                }
                Action::CrashCount { count } => {
                    for v in take_victims(*count, &mut cursor, &mut dead) {
                        out.crashes.push((v, ev.at));
                    }
                }
                Action::LeaveCount { count } => {
                    for v in take_victims(*count, &mut cursor, &mut dead) {
                        out.leaves.push((v, ev.at));
                    }
                }
                Action::LookupStorm { lookups } => out.storms.push((ev.at, *lookups)),
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

    /// Crashes `⌈initial_members · fraction⌉` members here (silently).
    pub fn crash(self, fraction: f64) -> Self {
        self.push(Action::CrashFrac { fraction })
    }

    /// Crashes exactly `count` members here (silently).
    pub fn crash_count(self, count: usize) -> Self {
        self.push(Action::CrashCount { count })
    }

    /// Makes `count` members leave gracefully here.
    pub fn leave(self, count: usize) -> Self {
        self.push(Action::LeaveCount { count })
    }

    /// Routes `lookups` seeded lookups over the current tables here.
    pub fn lookup_storm(self, lookups: usize) -> Self {
        self.push(Action::LookupStorm { lookups })
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

    /// Runs the incremental consistency checker here.
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
    /// `(joiner, gateway, at)` — fed to the builder's `add_joiner`.
    pub joins: Vec<(NodeId, NodeId, Time)>,
    /// `(victim, at)` silent crashes, in schedule order.
    pub crashes: Vec<(NodeId, Time)>,
    /// `(leaver, at)` graceful departures, in schedule order.
    pub leaves: Vec<(NodeId, Time)>,
    /// `(at, lookups)` storms, in schedule order.
    pub storms: Vec<(Time, usize)>,
    /// `(at, lookups, keys, exponent)` keyed storms, in schedule order.
    pub keyed_storms: Vec<(Time, usize, usize, f64)>,
    /// `(at, label)` checkpoints, in schedule order.
    pub checkpoints: Vec<(Time, String)>,
    /// Virtual end of the run.
    pub horizon: Time,
}

/// Time-to-repair bookkeeping built from the protocol trace: pairs every
/// `EntryEvicted` with the `RepairInstalled` that refills the slot.
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
}

/// One lookup storm's routing outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormReport {
    /// Virtual time the storm ran at.
    pub at: Time,
    /// Lookups attempted.
    pub lookups: usize,
    /// Lookups that reached their target.
    pub delivered: usize,
    /// Total hops over delivered lookups.
    pub hops_total: usize,
    /// Longest delivered path.
    pub hops_max: usize,
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

/// Outcome of one timeline run.
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Joins started by the schedule.
    pub joins: usize,
    /// Members crashed by the schedule.
    pub crashed: usize,
    /// Members that left gracefully.
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
    /// Checkpoint verdicts, in schedule order.
    pub checkpoints: Vec<CheckpointReport>,
    /// Storm outcomes, in schedule order.
    pub storms: Vec<StormReport>,
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
    /// Messages delivered over the run.
    pub delivered: u64,
    /// Timers fired over the run.
    pub timers_fired: u64,
    /// Virtual time the run ended at.
    pub finished_at: u64,
    /// Protocol events recorded.
    pub traced: u64,
    /// FNV-1a digest of the full protocol trace (byte-identical across
    /// reruns of the same `(timeline, members, seed)`).
    pub trace_digest: u64,
}

/// Runner configuration for a [`Timeline`]: population, seed, options,
/// simulator delay bounds.
#[derive(Debug)]
pub struct TimelineScenario {
    space: IdSpace,
    members: usize,
    seed: u64,
    opts: ProtocolOptions,
    delay_bounds: (Time, Time),
}

impl TimelineScenario {
    /// A scenario over `space` with 16 members, seed 0, default options,
    /// and the crash-churn experiment's `[1 ms, 50 ms]` delay bounds.
    pub fn new(space: IdSpace) -> Self {
        TimelineScenario {
            space,
            members: 16,
            seed: 0,
            opts: ProtocolOptions::new(),
            delay_bounds: (1_000, 50_000),
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

    /// Sets the uniform message-delay bounds (µs).
    pub fn delay_bounds(mut self, min: Time, max: Time) -> Self {
        self.delay_bounds = (min, max);
        self
    }

    /// Compiles and runs `timeline` on the deterministic simulator.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate schedule (see [`Timeline::compile`]).
    pub fn run(self, timeline: Timeline) -> TimelineReport {
        let c = timeline.compile(self.space, self.members, self.seed);
        self.run_compiled(&c)
    }

    /// Runs an already-compiled timeline (exposed so callers can inspect
    /// or pin the resolved schedule).
    pub fn run_compiled(&self, c: &CompiledTimeline) -> TimelineReport {
        let space = self.space;
        let mut b = SimNetworkBuilder::new(space);
        for id in &c.members {
            b.add_member(*id);
        }
        for (id, gw, at) in &c.joins {
            b.add_joiner(*id, *gw, *at);
        }
        b.options(self.opts);
        let crash_times: BTreeMap<NodeId, Time> = c.crashes.iter().copied().collect();
        let churn = SharedSink::new(ChurnLog::new(crash_times));
        let digest = SharedSink::new(DigestTrace::new());
        b.trace(Box::new(TeeSink(churn.clone(), digest.clone())));
        let (lo, hi) = self.delay_bounds;
        let mut net = b.build(UniformDelay::new(lo, hi), self.seed);
        for (id, at) in &c.crashes {
            net.crash_at(id, *at);
        }
        for (id, at) in &c.leaves {
            net.leave_at(id, *at);
        }

        // Merge checkpoints and storms into one pause schedule. Both are
        // pure observations, so pausing never perturbs the run.
        enum Pause<'a> {
            Check(&'a str),
            Storm(usize),
            Keyed {
                lookups: usize,
                keys: usize,
                exponent: f64,
            },
        }
        let mut pauses: Vec<(Time, usize, Pause)> = Vec::new();
        for (i, (at, label)) in c.checkpoints.iter().enumerate() {
            pauses.push((*at, i, Pause::Check(label)));
        }
        for (i, (at, lookups)) in c.storms.iter().enumerate() {
            pauses.push((*at, i, Pause::Storm(*lookups)));
        }
        for (i, (at, lookups, keys, exponent)) in c.keyed_storms.iter().enumerate() {
            pauses.push((
                *at,
                i,
                Pause::Keyed {
                    lookups: *lookups,
                    keys: *keys,
                    exponent: *exponent,
                },
            ));
        }
        pauses.sort_by_key(|(at, i, _)| (*at, *i));

        // Consistency-recovery bookkeeping: the first disruption after
        // the tables were last known consistent opens a spell; the first
        // consistent checkpoint after it closes the spell.
        let mut disruptions: Vec<Time> = c
            .crashes
            .iter()
            .map(|(_, at)| *at)
            .chain(c.leaves.iter().map(|(_, at)| *at))
            .collect();
        disruptions.sort_unstable();
        let mut disruption_idx = 0usize;
        let mut open_spell: Option<Time> = None;
        let mut last_consistent_at: Time = 0;
        let mut recovery_us: Vec<u64> = Vec::new();

        let mut checker = IncrementalChecker::new(space);
        let mut checkpoints = Vec::new();
        let mut storms = Vec::new();
        let mut keyed_storms = Vec::new();
        for (at, _, pause) in &pauses {
            net.run_until(*at);
            match pause {
                Pause::Check(label) => {
                    let tables: Vec<&NeighborTable> = net
                        .engines()
                        .filter(|e| e.status() == Status::InSystem)
                        .map(|e| e.table())
                        .collect();
                    let report = checker.check(tables.iter().copied());
                    let false_negatives = report
                        .violations()
                        .iter()
                        .filter(|v| matches!(v, Violation::FalseNegative { .. }))
                        .count();
                    let consistent = report.is_consistent();
                    // Advance the disruption cursor to this checkpoint.
                    while disruption_idx < disruptions.len() && disruptions[disruption_idx] <= *at {
                        if open_spell.is_none() && disruptions[disruption_idx] >= last_consistent_at
                        {
                            open_spell = Some(disruptions[disruption_idx]);
                        }
                        disruption_idx += 1;
                    }
                    if consistent {
                        if let Some(t0) = open_spell.take() {
                            recovery_us.push(at.saturating_sub(t0));
                        }
                        last_consistent_at = *at;
                    }
                    checkpoints.push(CheckpointReport {
                        label: (*label).to_string(),
                        at: *at,
                        live: tables.len(),
                        violations: report.violations().len(),
                        false_negatives,
                        consistent,
                    });
                }
                Pause::Storm(lookups) => {
                    storms.push(run_storm(&net, *at, *lookups, self.seed, storms.len()));
                }
                Pause::Keyed {
                    lookups,
                    keys,
                    exponent,
                } => {
                    keyed_storms.push(run_keyed_storm(
                        &net,
                        *at,
                        *lookups,
                        *keys,
                        *exponent,
                        self.seed,
                        keyed_storms.len(),
                    ));
                }
            }
        }
        let report = net.run_until(c.horizon);

        let crashed_set: BTreeSet<NodeId> = c.crashes.iter().map(|(id, _)| *id).collect();
        let dead_refs = net
            .tables_iter()
            .flat_map(|t| t.iter())
            .filter(|(_, _, e)| crashed_set.contains(&e.node))
            .count();
        let survivors = net.tables_iter().count();
        let final_report = net.check_consistency();
        let false_negatives = final_report
            .violations()
            .iter()
            .filter(|v| matches!(v, Violation::FalseNegative { .. }))
            .count();
        let trace_digest = digest.lock().digest();
        let log = churn.lock();
        TimelineReport {
            joins: c.joins.len(),
            crashed: c.crashes.len(),
            left: c.leaves.len(),
            survivors,
            violations: final_report.violations().len(),
            false_negatives,
            consistent: final_report.is_consistent(),
            final_report,
            dead_refs,
            checkpoints,
            storms,
            keyed_storms,
            ttr_from_eviction_us: log.ttr_from_eviction_us.clone(),
            ttr_from_crash_us: log.ttr_from_crash_us.clone(),
            recovery_us,
            evicted: log.evicted,
            repaired: log.repaired,
            delivered: report.delivered,
            timers_fired: report.timers_fired,
            finished_at: report.finished_at,
            traced: report.traced,
            trace_digest,
        }
    }
}

/// Routes `lookups` seeded `(source, target)` pairs over the current
/// S-node tables by greedy suffix routing. A hop into a node with no
/// S-node table (crashed, departed, or still joining) or a hole drops the
/// lookup; paths are capped at `d + 1` hops.
fn run_storm<D: hyperring_sim::DelayModel>(
    net: &hyperring_core::SimNetwork<D>,
    at: Time,
    lookups: usize,
    seed: u64,
    storm_idx: usize,
) -> StormReport {
    use rand::{Rng, SeedableRng};
    let tables: BTreeMap<NodeId, &NeighborTable> = net
        .engines()
        .filter(|e| e.status() == Status::InSystem)
        .map(|e| (e.id(), e.table()))
        .collect();
    let ids: Vec<NodeId> = tables.keys().copied().collect();
    let d = net.space().digit_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ 0xa076_1d64_78bd_642f_u64.wrapping_mul(storm_idx as u64 + 1),
    );
    let mut delivered = 0usize;
    let mut hops_total = 0usize;
    let mut hops_max = 0usize;
    if ids.len() >= 2 {
        for _ in 0..lookups {
            let s = ids[rng.gen_range(0..ids.len())];
            let mut t = ids[rng.gen_range(0..ids.len())];
            while t == s {
                t = ids[rng.gen_range(0..ids.len())];
            }
            let mut here = s;
            let mut hops = 0usize;
            loop {
                if here == t {
                    delivered += 1;
                    hops_total += hops;
                    hops_max = hops_max.max(hops);
                    break;
                }
                if hops > d {
                    break; // inconsistent tables produced a detour; drop
                }
                let Some(table) = tables.get(&here) else {
                    break; // routed into a dead or still-joining node
                };
                let k = here.csuf_len(&t);
                match table.get(k, t.digit(k)) {
                    Some(e) => {
                        here = e.node;
                        hops += 1;
                    }
                    None => break, // hole: lost lookup
                }
            }
        }
    }
    StormReport {
        at,
        lookups,
        delivered,
        hops_total,
        hops_max,
    }
}

/// Routes a compiled keyed storm through a borrowed [`ObjectStore`] over
/// the current S-node tables. Like [`run_storm`], this is a pure
/// observation: the store borrows the engines' tables in place and the
/// simulator never sees an event.
fn run_keyed_storm<D: hyperring_sim::DelayModel>(
    net: &hyperring_core::SimNetwork<D>,
    at: Time,
    lookups: usize,
    keys: usize,
    exponent: f64,
    seed: u64,
    storm_idx: usize,
) -> KeyedStormReport {
    let space = net.space();
    let tables: Vec<&NeighborTable> = net
        .engines()
        .filter(|e| e.status() == Status::InSystem)
        .map(|e| e.table())
        .collect();
    let sources: Vec<NodeId> = tables.iter().map(|t| t.owner()).collect();
    let schedule = StormSchedule::compile(
        sources,
        storm_keys(space, "timeline-key", keys),
        lookups,
        exponent,
        seed ^ 0x517c_c1b7_2722_0a95_u64.wrapping_mul(storm_idx as u64 + 1),
    );
    let store = ObjectStore::over(space, tables.iter().copied());
    let stats = run_schedule(&store, &schedule, None, None);
    KeyedStormReport { at, stats }
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
            suspicion_threshold: 3,
            repair: true,
            ..FailureDetector::default()
        }
    }

    #[test]
    fn builder_orders_and_compiles() {
        let tl = Timeline::new()
            .at(1_000)
            .join(2)
            .crash(0.25)
            .at(500)
            .checkpoint("early")
            .horizon(10_000);
        let c = tl.compile(space(), 8, 3);
        assert_eq!(c.joins.len(), 2);
        assert_eq!(c.crashes.len(), 2); // ceil(8 * 0.25)
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
        for (id, gw, _) in &c.joins {
            assert!(!dead.contains(gw), "join {id} routed via dead gateway {gw}");
            assert_ne!(id, gw);
        }
    }

    #[test]
    fn crash_wave_timeline_repairs_and_checkpoints_see_recovery() {
        let tl = Timeline::new()
            .at(100_000)
            .crash(0.2)
            .at(150_000)
            .checkpoint("during")
            .at(4_500_000)
            .checkpoint("after")
            .at(4_600_000)
            .lookup_storm(32)
            .horizon(5_000_000);
        let r = TimelineScenario::new(space())
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
        // Every repair strictly follows its crash and its eviction.
        assert!(r.ttr_from_eviction_us.iter().all(|&t| t > 0));
        let storm = &r.storms[0];
        assert_eq!(storm.delivered, storm.lookups, "post-repair lookups lost");
        assert!(storm.hops_max <= 5);
    }

    #[test]
    fn checkpoints_do_not_perturb_the_run() {
        let base = TimelineScenario::new(space())
            .members(16)
            .seed(9)
            .options(ProtocolOptions::new().with_failure_detector(fd()));
        let plain = base.run(Timeline::new().at(100_000).crash(0.2).horizon(5_000_000));
        let observed = TimelineScenario::new(space())
            .members(16)
            .seed(9)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(
                Timeline::new()
                    .at(100_000)
                    .crash(0.2)
                    .at(1_000_000)
                    .checkpoint("a")
                    .at(2_000_000)
                    .lookup_storm(16)
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
            .crash(0.2)
            .at(4_500_000)
            .keyed_storm(200, 12, 0.8)
            .horizon(5_000_000);
        let r = TimelineScenario::new(space())
            .members(16)
            .seed(5)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        assert!(r.consistent, "{} violations", r.violations);
        let s = &r.keyed_storms[0].stats;
        assert_eq!(s.lookups, 200);
        assert_eq!(s.keys, 12);
        assert_eq!(s.hop_histogram.iter().sum::<u64>(), 200);
        assert!(s.stretch.is_none(), "abstract delay model has no oracle");
        assert!(s.load.imbalance >= 1.0);
        // Post-repair tables are consistent, so every lookup terminates
        // within d hops.
        assert!(s.max_hops <= 5);
    }

    #[test]
    fn graceful_leaves_ride_the_timeline() {
        let tl = Timeline::new()
            .at(200_000)
            .leave(2)
            .at(4_000_000)
            .checkpoint("settled")
            .horizon(5_000_000);
        let r = TimelineScenario::new(space())
            .members(12)
            .seed(4)
            .options(ProtocolOptions::new().with_failure_detector(fd()))
            .run(tl);
        assert_eq!(r.left, 2);
        assert_eq!(r.survivors, 10);
        assert!(r.consistent, "{} violations", r.violations);
    }
}
