use std::collections::{BTreeMap, BTreeSet};

use hyperring_id::{IdSpace, NodeId};

use crate::effect::{Effect, Effects, Event, TimerId};
use crate::failure::FailureState;
use crate::messages::{BitVec, Message};
use crate::options::{PayloadMode, ProtocolOptions};
use crate::repair::{synth_target, RepairState};
use crate::stats::MessageStats;
use crate::table::{Entry, NeighborTable, NodeState, TableSnapshot};
use crate::trace::ProtocolEvent;

/// A node's status during (and after) the join protocol (the paper's §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Constructing the table level by level by copying from nodes in `V`.
    Copying,
    /// Waiting to be stored by some node (`JoinWaitMsg` outstanding).
    Waiting,
    /// Stored by a node; notifying every node that shares at least
    /// `noti_level` digits.
    Notifying,
    /// An S-node: fully integrated into the network.
    InSystem,
    /// **Extension**: gracefully leaving; waiting for reverse neighbors to
    /// acknowledge replacement of their entries.
    Leaving,
    /// **Extension**: fully departed; ignores all traffic.
    Departed,
    /// **Extension**: crash-failed. Unlike [`Status::Departed`] (reached
    /// through the graceful-leave ceremony) a crashed node falls silent
    /// without telling anyone; survivors must detect it themselves (see
    /// [`ProtocolOptions::with_failure_detector`](crate::ProtocolOptions::with_failure_detector)).
    Crashed,
}

/// The join-protocol state machine of a single node — a faithful
/// implementation of the paper's Figures 5–14.
///
/// `Clone` is provided so tools (the model checker, snapshotting tests)
/// can fork a network state; the protocol itself never clones engines.
///
/// A node is either constructed as a *member* (an S-node of the initial
/// consistent network `V`) or as a *joiner*, which runs through
/// `copying → waiting → notifying → in_system`. All interaction is via
/// [`JoinEngine::handle`] (or the event-level entry point
/// [`JoinEngine::on_event`]) and the [`Effects`] buffer: the engine is
/// sans-io and only ever *requests* sends, timer operations, and trace
/// records.
///
/// # Examples
///
/// A network of one member plus one joiner, pumped synchronously:
///
/// ```
/// use hyperring_core::{Effects, JoinEngine, Message, ProtocolOptions, Status};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 3)?;
/// let a = space.parse_id("000")?;
/// let b = space.parse_id("321")?;
/// let mut member = JoinEngine::new_seed(space, ProtocolOptions::new(), a);
/// let mut joiner = JoinEngine::new_joiner(space, ProtocolOptions::new(), b);
///
/// let mut out = Effects::new();
/// joiner.start_join(a, &mut out);
/// // Pump messages to quiescence (two nodes only).
/// let mut queue: Vec<(hyperring_id::NodeId, hyperring_id::NodeId, Message)> =
///     out.drain_sends().map(|(to, m)| (b, to, m)).collect();
/// while let Some((from, to, msg)) = queue.pop() {
///     let node = if to == a { &mut member } else { &mut joiner };
///     let mut out = Effects::new();
///     node.handle(from, msg, &mut out);
///     queue.extend(out.drain_sends().map(|(t, m)| (to, t, m)));
/// }
/// assert_eq!(joiner.status(), Status::InSystem);
/// assert_eq!(member.table().get(0, 1).unwrap().node, b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct JoinEngine {
    space: IdSpace,
    id: NodeId,
    opts: ProtocolOptions,
    status: Status,
    table: NeighborTable,
    /// `x.noti_level`: length of the common suffix with the node that
    /// stored us first.
    noti_level: usize,
    /// `Q_r`: nodes we await replies from.
    qr: BTreeSet<NodeId>,
    /// `Q_n`: nodes we have sent notifications to.
    qn: BTreeSet<NodeId>,
    /// `Q_j`: joiners that sent us a `JoinWaitMsg` while we were a T-node.
    qj: BTreeSet<NodeId>,
    /// `Q_sr`: subjects of outstanding `SpeNotiMsg`s.
    qsr: BTreeSet<NodeId>,
    /// `Q_sn`: subjects we have sent `SpeNotiMsg`s about.
    qsn: BTreeSet<NodeId>,
    /// Copying cursor: level currently being constructed.
    copy_level: usize,
    /// Copying cursor: the node we await a `CpRlyMsg` from.
    copy_target: Option<NodeId>,
    /// Leave extension: reverse neighbors whose `LeaveNotiRlyMsg` is
    /// outstanding.
    ql: BTreeSet<NodeId>,
    /// Live retry timers → retransmissions already performed. Empty unless
    /// a [`RetryPolicy`](crate::RetryPolicy) is installed.
    retries: BTreeMap<TimerId, u32>,
    /// Crash-churn extension: probe bookkeeping of the failure detector.
    /// Inert unless a [`FailureDetector`](crate::FailureDetector) is
    /// installed.
    fd: FailureState,
    /// Crash-churn extension: vacated slots awaiting repair and the set of
    /// condemned nodes.
    repair: RepairState,
    /// The gateway `start_join` was called with — the fallback contact of
    /// last resort when [`RetryPolicy::join_fallback`](crate::RetryPolicy)
    /// restarts a join whose peer died. `None` for members.
    g0: Option<NodeId>,
    stats: MessageStats,
}

impl JoinEngine {
    /// Creates a member of the initial network `V` with a pre-built
    /// consistent table (all states must be `S`).
    ///
    /// # Panics
    ///
    /// Panics if the table's owner or space disagree with the arguments.
    pub fn new_member(space: IdSpace, opts: ProtocolOptions, table: NeighborTable) -> Self {
        assert_eq!(table.space(), space, "table built for another space");
        let id = table.owner();
        JoinEngine {
            space,
            id,
            opts,
            status: Status::InSystem,
            table,
            noti_level: 0,
            qr: BTreeSet::new(),
            qn: BTreeSet::new(),
            qj: BTreeSet::new(),
            qsr: BTreeSet::new(),
            qsn: BTreeSet::new(),
            copy_level: 0,
            copy_target: None,
            ql: BTreeSet::new(),
            retries: BTreeMap::new(),
            fd: FailureState::default(),
            repair: RepairState::default(),
            g0: None,
            stats: MessageStats::new(),
        }
    }

    /// Creates the very first node of a network (§6.1): its self entries
    /// point at itself with state `S`, everything else is empty.
    pub fn new_seed(space: IdSpace, opts: ProtocolOptions, id: NodeId) -> Self {
        let mut table = NeighborTable::new(space, id);
        table.set_self_entries(NodeState::S);
        Self::new_member(space, opts, table)
    }

    /// Creates a joiner in status *copying*. Call
    /// [`start_join`](Self::start_join) to begin.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `space`.
    pub fn new_joiner(space: IdSpace, opts: ProtocolOptions, id: NodeId) -> Self {
        JoinEngine {
            space,
            id,
            opts,
            status: Status::Copying,
            table: NeighborTable::new(space, id),
            noti_level: 0,
            qr: BTreeSet::new(),
            qn: BTreeSet::new(),
            qj: BTreeSet::new(),
            qsr: BTreeSet::new(),
            qsn: BTreeSet::new(),
            copy_level: 0,
            copy_target: None,
            ql: BTreeSet::new(),
            retries: BTreeMap::new(),
            fd: FailureState::default(),
            repair: RepairState::default(),
            g0: None,
            stats: MessageStats::new(),
        }
    }

    /// The node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's current status.
    #[inline]
    pub fn status(&self) -> Status {
        self.status
    }

    /// Whether the node is an S-node.
    #[inline]
    pub fn is_in_system(&self) -> bool {
        self.status == Status::InSystem
    }

    /// The node's neighbor table.
    #[inline]
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// The node's notification level (meaningful once status ≥ notifying).
    #[inline]
    pub fn noti_level(&self) -> usize {
        self.noti_level
    }

    /// Message statistics for this node.
    #[inline]
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// The retry timers currently guarding an unanswered request. Empty
    /// without a [`RetryPolicy`](crate::RetryPolicy), and empty again once
    /// every request was answered or gave up.
    pub fn live_timers(&self) -> impl Iterator<Item = TimerId> + '_ {
        self.retries.keys().copied()
    }

    /// Hashes the node's complete *protocol-relevant* state — status,
    /// notification level, table entries and recorded states, reverse
    /// neighbors, all six queues, the copy cursor, and the live retry
    /// timers — into `h`.
    ///
    /// Two engines with equal digests behave identically on any future
    /// message sequence; message statistics are deliberately excluded
    /// (they record history, not behavior). Used by the bounded
    /// model-checking tests to deduplicate explored interleavings.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        self.id.hash(h);
        (self.status as u8).hash(h);
        self.noti_level.hash(h);
        self.copy_level.hash(h);
        self.copy_target.hash(h);
        for (level, digit, e) in self.table.iter() {
            level.hash(h);
            digit.hash(h);
            e.node.hash(h);
            (e.state == NodeState::S).hash(h);
        }
        self.table.reverse_sorted().hash(h);
        for q in [&self.qr, &self.qn, &self.qj, &self.qsr, &self.qsn, &self.ql] {
            q.hash(h);
            0xfeu8.hash(h);
        }
        for (id, n) in &self.retries {
            id.hash(h);
            n.hash(h);
        }
        self.fd.hash_state(h);
        self.repair.hash_state(h);
        self.g0.hash(h);
    }

    /// Begins the join, given a node `g0` of the existing network
    /// (assumption (ii) of §3.1: every joiner knows some node in `V`).
    ///
    /// # Panics
    ///
    /// Panics if the node is not a fresh joiner or `g0` is the node itself.
    pub fn start_join(&mut self, g0: NodeId, out: &mut Effects) {
        assert_eq!(self.status, Status::Copying, "join already started");
        assert!(self.copy_target.is_none(), "join already started");
        assert_ne!(g0, self.id, "cannot join via self");
        self.trace(out, ProtocolEvent::JoinStarted { gateway: g0 });
        self.copy_target = Some(g0);
        self.g0 = Some(g0);
        self.post(out, g0, Message::CpRst { level: 0 });
        self.arm(out, TimerId::CpRst { peer: g0 });
    }

    /// Feeds one [`Event`] — a delivered message or an expired timer — to
    /// the state machine. This is the entry point runtimes use; it is
    /// exactly [`handle`](Self::handle) plus timer dispatch.
    pub fn on_event(&mut self, ev: Event, out: &mut Effects) {
        match ev {
            Event::Deliver { from, msg } => self.handle(from, msg, out),
            Event::TimerFired { id } => self.on_timer_fired(id, out),
        }
    }

    /// Handles a delivered protocol message, queueing any responses into
    /// `out`.
    pub fn handle(&mut self, from: NodeId, msg: Message, out: &mut Effects) {
        if matches!(self.status, Status::Departed | Status::Crashed) {
            return; // gone; late traffic is dropped
        }
        if self.status == Status::Leaving
            && !matches!(
                msg,
                Message::LeaveNoti { .. } | Message::LeaveNotiRly | Message::RvNghForget
            )
        {
            // The graceful-leave extension assumes (like the paper's
            // assumption (iv), inverted) that joins do not overlap the
            // leaving node; residual join traffic is dropped.
            return;
        }
        match msg {
            Message::CpRst { level } => self.on_cprst(from, level, out),
            Message::CpRly { level, table } => self.on_cprly(from, level, table, out),
            Message::JoinWait => self.on_joinwait(from, out),
            Message::JoinWaitRly {
                positive,
                next,
                table,
            } => self.on_joinwaitrly(from, positive, next, table, out),
            Message::JoinNoti { table, filled_bits } => {
                self.on_joinnoti(from, table, filled_bits, out)
            }
            Message::JoinNotiRly {
                positive,
                table,
                flag,
            } => self.on_joinnotirly(from, positive, table, flag, out),
            Message::InSysNoti => self.on_insysnoti(from, out),
            Message::SpeNoti { initiator, subject } => self.on_spenoti(initiator, subject, out),
            Message::SpeNotiRly { subject } => self.on_spenotirly(subject, out),
            Message::RvNghNoti { recorded } => self.on_rvnghnoti(from, recorded, out),
            Message::RvNghNotiRly { actual } => self.on_rvnghnotirly(from, actual, out),
            Message::LeaveNoti { replacement } => self.on_leavenoti(from, replacement, out),
            Message::LeaveNotiRly => self.on_leavenotirly(from, out),
            Message::RvNghForget => {
                self.table.remove_reverse(&from);
            }
            Message::Ping => {
                if self.opts.retry.is_some() {
                    // `Pong` also acknowledges `InSysNoti`, so it must never
                    // be sent while `from` is still recorded `T` here. Only
                    // S-nodes probe: a `Ping` is as good as the
                    // notification, and answering it as one keeps every
                    // `Pong` a sound acknowledgement.
                    self.on_insysnoti(from, out);
                } else {
                    self.post(out, from, Message::Pong);
                }
            }
            Message::Pong => {
                self.fd.pong(&self.table, &from);
                self.disarm(out, TimerId::InSys { peer: from });
            }
            Message::RepairQry {
                origin,
                target,
                level,
                digit,
            } => self.on_repairqry(origin, target, level, digit, out),
            Message::RepairRly {
                level,
                digit,
                found,
            } => self.on_repairrly(level as usize, digit, found, out),
        }
    }

    // ------------------------------------------------------------------
    // Crash failure, detection, and table repair (extension; the paper
    // defers failure recovery to future work)
    // ------------------------------------------------------------------

    /// Crash-fails the node: it transitions to [`Status::Crashed`] and
    /// from then on silently drops every event. Unlike
    /// [`begin_leave`](Self::begin_leave) there is no ceremony — nothing
    /// is sent and no replacement is offered; survivors must notice the
    /// silence through their failure detectors.
    pub fn crash(&mut self) {
        self.status = Status::Crashed;
    }

    /// Arms the periodic probe tick of the failure detector. A no-op
    /// unless a [`FailureDetector`](crate::FailureDetector) is configured
    /// and the node is *in_system* (joiners arm it themselves on
    /// switching to S-node; runtimes call this once for initial members).
    pub fn start_failure_detector(&mut self, out: &mut Effects) {
        let Some(fd) = self.opts.failure_detector else {
            return;
        };
        if self.fd.running || self.status != Status::InSystem {
            return;
        }
        self.fd.running = true;
        out.push(Effect::SetTimer {
            id: TimerId::FdProbe { owner: self.id },
            delay_hint: fd.probe_interval_us,
        });
    }

    /// One tick of the failure detector: charge unanswered probes,
    /// declare silent peers dead (evicting their entries and queueing
    /// repairs), ping the rest, re-drive pending repairs, re-arm.
    fn on_fd_tick(&mut self, out: &mut Effects) {
        let Some(fd) = self.opts.failure_detector else {
            return;
        };
        if self.status != Status::InSystem {
            self.fd.running = false;
            return; // leaving, departed, or crashed: stop probing
        }
        let outcome = self.fd.tick(&self.table, fd.suspicion_threshold);
        for (peer, missed) in outcome.dead {
            self.declare_dead(peer, missed, fd.repair, out);
        }
        for peer in outcome.probe {
            self.post(out, peer, Message::Ping);
        }
        if fd.repair {
            self.drive_repairs(out);
        }
        out.push(Effect::SetTimer {
            id: TimerId::FdProbe { owner: self.id },
            delay_hint: fd.probe_interval_us,
        });
    }

    /// Declares `peer` dead: condemns it, evicts every table entry
    /// storing it, drops it from the reverse sets, and (with repair on)
    /// queues each vacated slot for refilling.
    fn declare_dead(&mut self, peer: NodeId, missed: u32, repair: bool, out: &mut Effects) {
        self.trace(out, ProtocolEvent::NeighborDead { peer, missed });
        self.repair.condemn(peer);
        self.table.remove_reverse(&peer);
        let vacated: Vec<(usize, u8)> = self
            .table
            .iter()
            .filter(|&(_, _, e)| e.node == peer)
            .map(|(level, digit, _)| (level, digit))
            .collect();
        for (level, digit) in vacated {
            self.table.clear(level, digit);
            self.trace(
                out,
                ProtocolEvent::EntryEvicted {
                    level,
                    digit,
                    node: peer,
                },
            );
            if repair {
                self.repair.enqueue(level, digit);
            }
        }
        // The peer can no longer answer; drop any reply-awaiting state so
        // join-era bookkeeping does not dangle on a dead node.
        self.qr.remove(&peer);
        self.qsr.remove(&peer);
        self.ql.remove(&peer);
    }

    /// (Re-)sends `RepairQryMsg`s for the still-vacant slots under
    /// repair the detector's pacing makes due this tick, and gives up on
    /// slots that exhausted their budget.
    fn drive_repairs(&mut self, out: &mut Effects) {
        let (cap, backoff) = self
            .opts
            .failure_detector
            .map(|fd| (fd.max_repairs_in_flight, fd.repair_backoff))
            .unwrap_or((0, false));
        let due = self.repair.due(&self.table, cap, backoff);
        for (level, digit) in due.exhausted {
            self.trace(out, ProtocolEvent::RepairFailed { level, digit });
        }
        for (level, digit) in due.query {
            let recipients = self.repair.recipients(&self.table, level);
            if recipients.is_empty() {
                continue; // isolated for now; the next tick retries
            }
            self.trace(out, ProtocolEvent::RepairStarted { level, digit });
            let target = synth_target(&self.id, level, digit);
            for r in recipients {
                self.post(
                    out,
                    r,
                    Message::RepairQry {
                        origin: self.id,
                        target,
                        level: level as u8,
                        digit,
                    },
                );
            }
        }
    }

    /// Handles a `RepairQryMsg`: answer with a carrier of the desired
    /// suffix if we are one or know one, forward one suffix-routing hop
    /// closer otherwise, and report a dead end when we can do neither.
    ///
    /// Candidates are drawn from the table *and* the reverse-neighbor
    /// sets. The latter matters after correlated eviction: when a crash
    /// vacates slot `(i, j)` in every survivor at once, no survivor's
    /// table stores a carrier any more (the vacated slot was the only one
    /// that could), but the survivors a carrier itself stores still know
    /// it as a reverse neighbor. Each forward strictly lengthens the
    /// common suffix with `target`, so every query terminates within `d`
    /// hops.
    fn on_repairqry(
        &mut self,
        origin: NodeId,
        target: NodeId,
        level: u8,
        digit: u8,
        out: &mut Effects,
    ) {
        if origin == self.id {
            return; // a query of our own echoed back; nothing to add
        }
        let k = self.id.csuf_len(&target);
        if k > level as usize {
            // We carry the desired suffix ourselves.
            let state = if self.status == Status::InSystem {
                NodeState::S
            } else {
                NodeState::T
            };
            let found = Some(Entry {
                node: self.id,
                state,
            });
            self.post(
                out,
                origin,
                Message::RepairRly {
                    level,
                    digit,
                    found,
                },
            );
            return;
        }
        // Best known candidate: longest common suffix with the target.
        // Only strict progress (csuf > ours) qualifies. Ties go to table
        // entries (whose recorded state we know), the first in slot order,
        // before reverse neighbors, the smallest id among those.
        let mut best: Option<(usize, Entry)> = None;
        for (_, _, e) in self.table.iter() {
            if e.node == self.id || e.node == origin {
                continue;
            }
            let c = e.node.csuf_len(&target);
            if c > k && best.is_none_or(|(b, _)| c > b) {
                best = Some((c, e));
            }
        }
        let above = best.map_or(k, |(b, _)| b);
        if let Some((c, node)) = self.table.closest_reverse(&target, &origin, above) {
            let state = NodeState::S;
            best = Some((c, Entry { node, state }));
        }
        match best {
            Some((c, e)) if c > level as usize => {
                // We know a carrier: answer directly.
                let found = Some(e);
                self.post(
                    out,
                    origin,
                    Message::RepairRly {
                        level,
                        digit,
                        found,
                    },
                );
            }
            Some((_, e)) => self.post(
                out,
                e.node,
                Message::RepairQry {
                    origin,
                    target,
                    level,
                    digit,
                },
            ),
            None => {
                // Dead end: nobody we know is closer to the target.
                let found = None;
                self.post(
                    out,
                    origin,
                    Message::RepairRly {
                        level,
                        digit,
                        found,
                    },
                );
            }
        }
    }

    /// Handles a `RepairRlyMsg`: install the first usable replacement
    /// through the join machinery's `T`→`S` discipline. Negative or
    /// stale replies are dropped; the detector tick re-drives dry slots.
    fn on_repairrly(&mut self, level: usize, digit: u8, found: Option<Entry>, out: &mut Effects) {
        if !self.repair.is_pending(level, digit) {
            return;
        }
        let Some(e) = found else {
            return;
        };
        if e.node == self.id
            || self.repair.is_condemned(&e.node)
            || self.table.is_filled(level, digit)
            || !self.table.fits(level, digit, &e.node)
        {
            return;
        }
        // Install as T and let the RvNghNoti/RvNghNotiRly exchange (sent
        // by `install`) upgrade the recorded state to S, exactly as a
        // join-installed entry would converge.
        self.install(
            level,
            digit,
            Entry {
                node: e.node,
                state: NodeState::T,
            },
            true,
            out,
        );
        self.repair.complete(level, digit);
        self.trace(
            out,
            ProtocolEvent::RepairInstalled {
                level,
                digit,
                node: e.node,
            },
        );
    }

    // ------------------------------------------------------------------
    // Graceful leave (extension; the paper defers this to future work)
    // ------------------------------------------------------------------

    /// Begins a graceful leave: every reverse neighbor is offered a
    /// replacement for its entry, every stored neighbor is told to forget
    /// us as a reverse neighbor, and the node departs once all reverse
    /// neighbors acknowledge.
    ///
    /// The single-leave argument mirrors the paper's C-set reasoning: a
    /// reverse neighbor `v` stores us at entry `(k, x[k])`, `k = |csuf(v,
    /// x)|`, whose desired suffix is `x`'s own `(k+1)`-digit suffix; any
    /// node sharing `k + 1` digits with us is a valid substitute, and our
    /// own (consistent) table holds one at some level `≥ k + 1` iff one
    /// exists in the network.
    ///
    /// Concurrent leaves of *adjacent* nodes (each other's replacement
    /// candidates) are not arbitrated, matching the sequential-churn scope
    /// of the extension.
    ///
    /// # Panics
    ///
    /// Panics unless the node's status is *in_system*.
    pub fn begin_leave(&mut self, out: &mut Effects) {
        assert_eq!(
            self.status,
            Status::InSystem,
            "only an S-node can leave gracefully"
        );
        self.set_status(Status::Leaving, out);
        let me = self.id;
        // Tell stored neighbors to drop us from their reverse sets.
        for (_, _, e) in self.table.iter().collect::<Vec<_>>() {
            if e.node != me {
                self.post(out, e.node, Message::RvNghForget);
            }
        }
        // Offer replacements to reverse neighbors.
        for v in self.table.reverse_sorted() {
            if v == me {
                continue;
            }
            let k = me.csuf_len(&v);
            let replacement = self.table.find_sharer(k + 1);
            debug_assert!(replacement.is_none_or(|e| e.node.csuf_len(&me) > k));
            self.ql.insert(v);
            self.post(out, v, Message::LeaveNoti { replacement });
        }
        if self.ql.is_empty() {
            self.set_status(Status::Departed, out);
        }
    }

    fn on_leavenoti(&mut self, from: NodeId, replacement: Option<Entry>, out: &mut Effects) {
        let k = self.id.csuf_len(&from);
        let slot_digit = from.digit(k);
        if self
            .table
            .get(k, slot_digit)
            .is_some_and(|e| e.node == from)
        {
            self.table.clear(k, slot_digit);
            match replacement {
                Some(e) if e.node != self.id && self.table.fits(k, slot_digit, &e.node) => {
                    self.install(k, slot_digit, e, true, out);
                }
                _ => {}
            }
        }
        self.table.remove_reverse(&from);
        self.post(out, from, Message::LeaveNotiRly);
    }

    fn on_leavenotirly(&mut self, from: NodeId, out: &mut Effects) {
        self.ql.remove(&from);
        if self.status == Status::Leaving && self.ql.is_empty() {
            self.set_status(Status::Departed, out);
        }
    }

    // ------------------------------------------------------------------
    // Effect helpers
    // ------------------------------------------------------------------

    fn post(&mut self, out: &mut Effects, to: NodeId, msg: Message) {
        debug_assert_ne!(to, self.id, "node {} sending {:?} to itself", self.id, msg);
        self.stats.record(msg.kind(), msg.wire_size(&self.space));
        out.push(Effect::Send { to, msg });
    }

    fn trace(&self, out: &mut Effects, ev: ProtocolEvent) {
        if self.opts.trace {
            out.push(Effect::Trace(ev));
        }
    }

    /// Changes status, emitting a `StatusChanged` trace event.
    fn set_status(&mut self, to: Status, out: &mut Effects) {
        let from = self.status;
        self.status = to;
        if from != to {
            self.trace(out, ProtocolEvent::StatusChanged { from, to });
        }
    }

    /// Updates the recorded state of `(level, digit)` if it stores `node`,
    /// emitting a `StateFlipped` trace event on an actual change.
    fn flip_state(
        &mut self,
        level: usize,
        digit: u8,
        node: NodeId,
        to: NodeState,
        out: &mut Effects,
    ) {
        if self.table.set_state_if(level, digit, &node, to) {
            self.trace(
                out,
                ProtocolEvent::StateFlipped {
                    level,
                    digit,
                    node,
                    to,
                },
            );
        }
    }

    /// Arms (or re-arms) a retry timer, resetting its attempt counter.
    /// No-op without a [`RetryPolicy`](crate::RetryPolicy).
    fn arm(&mut self, out: &mut Effects, id: TimerId) {
        if let Some(rp) = self.opts.retry {
            self.retries.insert(id, 0);
            out.push(Effect::SetTimer {
                id,
                delay_hint: rp.timeout_us,
            });
        }
    }

    /// Cancels a retry timer if it is live.
    fn disarm(&mut self, out: &mut Effects, id: TimerId) {
        if self.opts.retry.is_some() && self.retries.remove(&id).is_some() {
            out.push(Effect::CancelTimer { id });
        }
    }

    /// Installs `entry` at `(level, digit)` and notifies the stored node
    /// that we are now its reverse neighbor (the blanket rule of §4: "when
    /// any node x sets Nx(i,j) = y, y ≠ x, x needs to send a
    /// RvNghNotiMsg"). `notify` is false on the paths where an immediate
    /// protocol reply to the stored node carries the same information.
    fn install(&mut self, level: usize, digit: u8, entry: Entry, notify: bool, out: &mut Effects) {
        debug_assert!(!self.table.is_filled(level, digit));
        self.table.set(level, digit, entry);
        self.trace(
            out,
            ProtocolEvent::EntryFilled {
                level,
                digit,
                node: entry.node,
                state: entry.state,
            },
        );
        if notify && entry.node != self.id {
            self.post(
                out,
                entry.node,
                Message::RvNghNoti {
                    recorded: entry.state,
                },
            );
            self.arm(out, TimerId::RvNgh { peer: entry.node });
        }
    }

    // ------------------------------------------------------------------
    // Timer expiry: bounded retransmission (lossy-transport extension)
    // ------------------------------------------------------------------

    /// Handles an expired retry timer: retransmits the guarded request if
    /// it is still outstanding and the budget allows, otherwise lets the
    /// timer die. Reachable only via [`Event::TimerFired`]; a no-op when no
    /// [`RetryPolicy`](crate::RetryPolicy) is installed.
    fn on_timer_fired(&mut self, id: TimerId, out: &mut Effects) {
        // The failure-detector tick rides the same timer channel but is
        // not a retry: dispatch it before the retry-policy gate so the
        // detector works with retries disabled.
        if let TimerId::FdProbe { .. } = id {
            if !matches!(self.status, Status::Departed | Status::Crashed) {
                self.on_fd_tick(out);
            }
            return;
        }
        let Some(rp) = self.opts.retry else {
            return;
        };
        if matches!(
            self.status,
            Status::Leaving | Status::Departed | Status::Crashed
        ) {
            self.retries.remove(&id);
            return;
        }
        let Some(&attempt) = self.retries.get(&id) else {
            return; // canceled concurrently; stale fire
        };
        let still_wanted = match id {
            TimerId::CpRst { peer } => {
                self.status == Status::Copying && self.copy_target == Some(peer)
            }
            TimerId::JoinWait { peer } | TimerId::JoinNoti { peer } => self.qr.contains(&peer),
            TimerId::SpeNoti { subject } => self.qsr.contains(&subject),
            TimerId::RvNgh { peer } => self.table.stores(&peer),
            TimerId::InSys { .. } => self.status == Status::InSystem,
            TimerId::FdProbe { .. } => unreachable!("dispatched before the retry gate"),
        };
        if !still_wanted {
            self.retries.remove(&id);
            return;
        }
        if attempt >= rp.max_retries {
            self.retries.remove(&id);
            self.trace(out, ProtocolEvent::RetriesExhausted { timer: id });
            if rp.join_fallback {
                self.join_exhausted_fallback(id, attempt, out);
            }
            return;
        }
        match id {
            TimerId::CpRst { peer } => {
                let level = self.copy_level as u8;
                self.post(out, peer, Message::CpRst { level });
            }
            TimerId::JoinWait { peer } => self.post(out, peer, Message::JoinWait),
            TimerId::JoinNoti { peer } => self.send_join_noti(peer, out),
            TimerId::SpeNoti { subject } => {
                // The chain restarts from whoever currently holds the
                // subject's slot in our table.
                let k = self.id.csuf_len(&subject);
                let holder = self.table.get(k, subject.digit(k)).map(|e| e.node);
                match holder {
                    Some(h) if h != subject && h != self.id => {
                        let initiator = self.id;
                        self.post(out, h, Message::SpeNoti { initiator, subject });
                    }
                    _ => {
                        // The subject landed in our own table (or the slot
                        // emptied): nothing remote remains outstanding.
                        self.qsr.remove(&subject);
                        self.retries.remove(&id);
                        if self.qr.is_empty()
                            && self.qsr.is_empty()
                            && self.status == Status::Notifying
                        {
                            self.switch_to_s_node(out);
                        }
                        return;
                    }
                }
            }
            TimerId::RvNgh { peer } => {
                let recorded = self
                    .table
                    .iter()
                    .find(|&(_, _, e)| e.node == peer)
                    .map(|(_, _, e)| e.state)
                    .expect("still_wanted checked an entry records the peer");
                self.post(out, peer, Message::RvNghNoti { recorded });
            }
            TimerId::InSys { peer } => self.post(out, peer, Message::InSysNoti),
            TimerId::FdProbe { .. } => unreachable!("dispatched before the retry gate"),
        }
        self.retries.insert(id, attempt + 1);
        // A silent peer will not answer a faster drumbeat: back off.
        let delay_hint = rp.retry_delay(self.timer_salt(id), attempt + 1);
        out.push(Effect::SetTimer { id, delay_hint });
        self.trace(
            out,
            ProtocolEvent::RetrySent {
                timer: id,
                attempt: attempt + 1,
            },
        );
    }

    /// Deterministic per-`(node, timer)` jitter salt: FNV-1a over our
    /// digits, the timer kind, and the peer's digits. Stable across runs,
    /// platforms, and compiler versions (unlike [`std::hash`]'s default
    /// hasher), so jittered schedules can be pinned by goldens.
    fn timer_salt(&self, id: TimerId) -> u64 {
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.id.digits_lsd().iter() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        for b in id.kind_name().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        for &b in id.peer().digits_lsd().iter() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }

    /// Retries on a join-critical request ran out with
    /// [`RetryPolicy::join_fallback`](crate::RetryPolicy) on: the silent
    /// peer is as good as dead for this join. Without a fallback the
    /// joiner strands forever — it never reaches *in_system*, so the
    /// failure detector never arms and nothing ever re-drives it. Condemn
    /// the peer and either restart the copy through an alternate contact
    /// (the peer was load-bearing: our copy target or awaited storer) or
    /// drop it from the notification wait sets so the switch to S-node
    /// can still happen (it was only owed an acknowledgement).
    ///
    /// `still_wanted` was already checked by the caller, so the timer's
    /// subject really is outstanding.
    fn join_exhausted_fallback(&mut self, id: TimerId, attempt: u32, out: &mut Effects) {
        // Condemnation here mirrors the failure detector's `declare_dead`
        // — including evicting the peer's table entries, so a rerouted
        // join does not carry a stale reference to the dead node into
        // *in_system* (repair refills the slots once the detector arms).
        let repair_on = self
            .opts
            .failure_detector()
            .map(|fd| fd.repair)
            .unwrap_or(false);
        match id {
            TimerId::CpRst { peer } => {
                self.declare_dead(peer, attempt, repair_on, out);
                self.restart_join(peer, out);
            }
            TimerId::JoinWait { peer } => {
                self.declare_dead(peer, attempt, repair_on, out);
                if self.status == Status::Waiting {
                    self.restart_join(peer, out);
                } else {
                    self.try_switch(out);
                }
            }
            TimerId::JoinNoti { peer } => {
                self.declare_dead(peer, attempt, repair_on, out);
                self.try_switch(out);
            }
            TimerId::SpeNoti { subject } => {
                // The chain's current holder is unreachable; stop waiting
                // on the subject (the holder, not the subject, is the
                // silent party, so nobody is condemned here).
                self.qsr.remove(&subject);
                self.try_switch(out);
            }
            TimerId::RvNgh { .. } | TimerId::InSys { .. } | TimerId::FdProbe { .. } => {}
        }
    }

    /// Restarts the join from level 0 through a fallback contact after
    /// `dead` (condemned by the caller) stopped answering: the first
    /// live node our table already stores, else the original gateway.
    /// With no live contact left the joiner is stranded and says so in
    /// the trace; outstanding state is kept so a late reply can still
    /// resume it.
    fn restart_join(&mut self, dead: NodeId, out: &mut Effects) {
        let via = self
            .table
            .iter()
            .map(|(_, _, e)| e.node)
            .find(|n| *n != self.id && !self.repair.is_condemned(n))
            .or_else(|| {
                self.g0
                    .filter(|g| *g != dead && !self.repair.is_condemned(g))
            });
        let Some(via) = via else {
            self.trace(out, ProtocolEvent::JoinStranded { dead });
            return;
        };
        // Forget every reply we were waiting on and cancel the timers
        // guarding them; `qn` is kept so already-notified nodes are not
        // re-notified, and RvNgh/InSys retransmissions for entries already
        // installed stay valid.
        let stale: Vec<TimerId> = self
            .retries
            .keys()
            .copied()
            .filter(|t| {
                matches!(
                    t,
                    TimerId::CpRst { .. }
                        | TimerId::JoinWait { .. }
                        | TimerId::JoinNoti { .. }
                        | TimerId::SpeNoti { .. }
                )
            })
            .collect();
        for t in stale {
            self.disarm(out, t);
        }
        self.qr.clear();
        self.qsr.clear();
        self.trace(out, ProtocolEvent::JoinRerouted { dead, via });
        self.set_status(Status::Copying, out);
        self.noti_level = 0;
        self.copy_level = 0;
        self.copy_target = Some(via);
        self.post(out, via, Message::CpRst { level: 0 });
        self.arm(out, TimerId::CpRst { peer: via });
    }

    /// Switches to S-node if nothing is outstanding any more (the same
    /// check the reply handlers run).
    fn try_switch(&mut self, out: &mut Effects) {
        if self.qr.is_empty() && self.qsr.is_empty() && self.status == Status::Notifying {
            self.switch_to_s_node(out);
        }
    }

    // ------------------------------------------------------------------
    // Status copying (Figure 5)
    // ------------------------------------------------------------------

    fn on_cprst(&mut self, from: NodeId, level: u8, out: &mut Effects) {
        // Any node replies to a copy request with no waiting, whatever its
        // status (Theorem 2's proof relies on this).
        let table = self.table.snapshot();
        self.post(out, from, Message::CpRly { level, table });
    }

    fn on_cprly(&mut self, from: NodeId, level: u8, table: TableSnapshot, out: &mut Effects) {
        if self.status != Status::Copying
            || self.copy_target != Some(from)
            || level as usize != self.copy_level
        {
            // Stale reply (cannot happen with reliable one-outstanding
            // requests, but a lossy or duplicating network layer can
            // produce one).
            return;
        }
        self.disarm(out, TimerId::CpRst { peer: from });
        let i = self.copy_level;
        // Copy level i of g's table into level i of our own. Entries
        // naming the joiner itself are possible after a join_fallback
        // restart (the aborted first attempt already planted us in other
        // tables); they are skipped, not copied.
        for row in table.packed_rows().filter(|r| r.level() == i) {
            if self.table.is_filled(i, row.digit()) {
                continue;
            }
            let entry = row.entry();
            if entry.node != self.id && !self.repair.is_condemned(&entry.node) {
                self.install(i, row.digit(), entry, true, out);
            }
        }
        // g = N_p(i, x[i]); s = its recorded state. A condemned g (only
        // possible after a join_fallback restart) is treated as absent, so
        // a fallback join cannot be routed back onto a node it already
        // found dead — and so is an entry naming the joiner itself, which
        // would otherwise make the restarted join wait on *us*.
        let next = table
            .get(i, self.id.digit(i))
            .filter(|e| e.node != self.id && !self.repair.is_condemned(&e.node));
        self.copy_level += 1;
        match next {
            Some(e) if e.state == NodeState::S => {
                // Continue the loop: copy the next level from g.
                debug_assert!(
                    self.copy_level < self.space.digit_count(),
                    "next copy target would share all digits, i.e. be us"
                );
                debug_assert_ne!(e.node, self.id);
                self.copy_target = Some(e.node);
                self.post(
                    out,
                    e.node,
                    Message::CpRst {
                        level: self.copy_level as u8,
                    },
                );
                self.arm(out, TimerId::CpRst { peer: e.node });
            }
            Some(e) => self.enter_waiting(e.node, out), // g exists but is a T-node
            None => self.enter_waiting(from, out),      // g == null: wait on p
        }
    }

    /// End of Figure 5: install self entries, switch to *waiting*, send the
    /// first `JoinWaitMsg`.
    fn enter_waiting(&mut self, target: NodeId, out: &mut Effects) {
        let me = self.id;
        for i in 0..self.space.digit_count() {
            // The primary (i, x[i])-neighbor of x is x itself; overwrite
            // whatever was copied there.
            self.table.set(
                i,
                me.digit(i),
                Entry {
                    node: me,
                    state: NodeState::T,
                },
            );
        }
        self.set_status(Status::Waiting, out);
        self.copy_target = None;
        debug_assert_ne!(target, self.id);
        self.qn.insert(target);
        self.qr.insert(target);
        self.post(out, target, Message::JoinWait);
        self.arm(out, TimerId::JoinWait { peer: target });
    }

    // ------------------------------------------------------------------
    // JoinWaitMsg (Figure 6) and JoinWaitRlyMsg (Figure 7)
    // ------------------------------------------------------------------

    fn on_joinwait(&mut self, from: NodeId, out: &mut Effects) {
        if self.status != Status::InSystem {
            // A T-node must delay its reply until it becomes an S-node.
            self.qj.insert(from);
            return;
        }
        let k = self.id.csuf_len(&from);
        match self.table.get(k, from.digit(k)) {
            Some(e) if e.node != from => {
                let table = self.table.snapshot();
                self.post(
                    out,
                    from,
                    Message::JoinWaitRly {
                        positive: false,
                        next: e.node,
                        table,
                    },
                );
            }
            existing => {
                // Entry is empty (the expected case) or already stores the
                // joiner (possible when we learned it from a snapshot).
                if existing.is_none() {
                    // The positive reply informs `from`; no RvNghNoti needed.
                    self.install(
                        k,
                        from.digit(k),
                        Entry {
                            node: from,
                            state: NodeState::T,
                        },
                        false,
                        out,
                    );
                }
                let table = self.table.snapshot();
                self.post(
                    out,
                    from,
                    Message::JoinWaitRly {
                        positive: true,
                        next: from,
                        table,
                    },
                );
            }
        }
    }

    fn on_joinwaitrly(
        &mut self,
        from: NodeId,
        positive: bool,
        next: NodeId,
        table: TableSnapshot,
        out: &mut Effects,
    ) {
        let awaited = self.qr.remove(&from);
        if !awaited && self.opts.retry.is_some() {
            return; // duplicate reply under retransmission; already processed
        }
        self.disarm(out, TimerId::JoinWait { peer: from });
        let k = self.id.csuf_len(&from);
        // The sender replied, so it is an S-node; upgrade its recorded state.
        self.flip_state(k, from.digit(k), from, NodeState::S, out);
        if positive {
            self.set_status(Status::Notifying, out);
            self.noti_level = k;
            self.table.add_reverse(k, self.id.digit(k), from);
        } else {
            debug_assert_ne!(next, self.id);
            self.qn.insert(next);
            self.qr.insert(next);
            self.post(out, next, Message::JoinWait);
            self.arm(out, TimerId::JoinWait { peer: next });
        }
        self.check_ngh_table(&table, out);
        if self.status == Status::Notifying && self.qr.is_empty() && self.qsr.is_empty() {
            self.switch_to_s_node(out);
        }
    }

    // ------------------------------------------------------------------
    // Subroutine Check_Ngh_Table (Figure 8)
    // ------------------------------------------------------------------

    /// The rows are read where they lie: `csuf` and the slot digit come
    /// off the packed bytes, and a row becomes a `NodeId` only when it
    /// fills a slot or may join `Q_n`.
    fn check_ngh_table(&mut self, table: &TableSnapshot, out: &mut Effects) {
        let d = self.space.digit_count();
        for row in table.packed_rows() {
            let k = row.csuf_len(&self.id);
            if k == d {
                continue; // the row names us
            }
            let digit = row.node_digit(k);
            let fill = !self.table.is_filled(k, digit);
            let notify = self.status == Status::Notifying && k >= self.noti_level;
            if !fill && !notify {
                continue;
            }
            let entry = row.entry();
            let u = entry.node;
            if self.repair.is_condemned(&u) {
                continue;
            }
            if fill {
                self.install(k, digit, entry, true, out);
            }
            if notify && !self.qn.contains(&u) {
                self.qn.insert(u);
                self.qr.insert(u);
                self.send_join_noti(u, out);
                self.arm(out, TimerId::JoinNoti { peer: u });
            }
        }
    }

    /// Builds and posts one `JoinNotiMsg` to `u` (also the retransmission
    /// path, which is why payload construction recomputes from the current
    /// table).
    fn send_join_noti(&mut self, u: NodeId, out: &mut Effects) {
        let k = self.id.csuf_len(&u);
        let payload = self.noti_payload(k);
        let filled_bits = match self.opts.payload {
            PayloadMode::BitVector => Some(BitVec {
                noti_level: self.noti_level as u8,
                words: self.table.filled_bitvec(),
            }),
            _ => None,
        };
        self.post(
            out,
            u,
            Message::JoinNoti {
                table: payload,
                filled_bits,
            },
        );
    }

    /// Table payload of a `JoinNotiMsg` to a node sharing `k` digits.
    fn noti_payload(&self, k: usize) -> TableSnapshot {
        match self.opts.payload {
            PayloadMode::Full => self.table.snapshot(),
            // §6.2: levels noti_level ..= k suffice.
            PayloadMode::Levels | PayloadMode::BitVector => self
                .table
                .snapshot_levels(self.noti_level, (k + 1).min(self.space.digit_count())),
        }
    }

    // ------------------------------------------------------------------
    // JoinNotiMsg (Figure 9) and JoinNotiRlyMsg (Figure 10)
    // ------------------------------------------------------------------

    fn on_joinnoti(
        &mut self,
        from: NodeId,
        table: TableSnapshot,
        filled_bits: Option<BitVec>,
        out: &mut Effects,
    ) {
        let k = self.id.csuf_len(&from);
        if !self.table.is_filled(k, from.digit(k)) {
            // The (positive) reply informs `from`; no RvNghNoti needed.
            self.install(
                k,
                from.digit(k),
                Entry {
                    node: from,
                    state: NodeState::T,
                },
                false,
                out,
            );
        }
        let flag = self.status == Status::InSystem
            && table.get(k, self.id.digit(k)).map(|e| e.node) != Some(self.id);
        let positive = self
            .table
            .get(k, from.digit(k))
            .is_some_and(|e| e.node == from);
        let reply_table = match (&self.opts.payload, &filled_bits) {
            (PayloadMode::BitVector, Some(bits)) => self
                .table
                .snapshot_bitvec(bits.noti_level as usize, &bits.words),
            _ => self.table.snapshot(),
        };
        self.post(
            out,
            from,
            Message::JoinNotiRly {
                positive,
                table: reply_table,
                flag,
            },
        );
        self.check_ngh_table(&table, out);
    }

    fn on_joinnotirly(
        &mut self,
        from: NodeId,
        positive: bool,
        table: TableSnapshot,
        flag: bool,
        out: &mut Effects,
    ) {
        let awaited = self.qr.remove(&from);
        if !awaited && self.opts.retry.is_some() {
            return; // duplicate reply under retransmission; already processed
        }
        self.disarm(out, TimerId::JoinNoti { peer: from });
        let k = self.id.csuf_len(&from);
        if positive {
            self.table.add_reverse(k, self.id.digit(k), from);
        }
        if flag && k > self.noti_level && !self.qsn.contains(&from) {
            let holder = self
                .table
                .get(k, from.digit(k))
                .expect("flagged entry must be occupied by some other node")
                .node;
            debug_assert_ne!(holder, from);
            self.qsn.insert(from);
            self.qsr.insert(from);
            self.post(
                out,
                holder,
                Message::SpeNoti {
                    initiator: self.id,
                    subject: from,
                },
            );
            self.arm(out, TimerId::SpeNoti { subject: from });
        }
        self.check_ngh_table(&table, out);
        if self.qr.is_empty() && self.qsr.is_empty() && self.status == Status::Notifying {
            self.switch_to_s_node(out);
        }
    }

    // ------------------------------------------------------------------
    // SpeNotiMsg (Figure 11) and SpeNotiRlyMsg (Figure 12)
    // ------------------------------------------------------------------

    fn on_spenoti(&mut self, initiator: NodeId, subject: NodeId, out: &mut Effects) {
        debug_assert_ne!(subject, self.id, "SpeNoti delivered to its subject");
        if subject == self.id {
            // Defensive: we trivially "store" ourselves; acknowledge.
            self.post(out, initiator, Message::SpeNotiRly { subject });
            return;
        }
        let k = self.id.csuf_len(&subject);
        if !self.table.is_filled(k, subject.digit(k)) {
            self.install(
                k,
                subject.digit(k),
                Entry {
                    node: subject,
                    state: NodeState::S,
                },
                true,
                out,
            );
        }
        let stored = self
            .table
            .get(k, subject.digit(k))
            .expect("just installed or occupied")
            .node;
        if stored != subject {
            self.post(out, stored, Message::SpeNoti { initiator, subject });
        } else if initiator == self.id {
            // We initiated and the chain came back to us having stored the
            // subject; nothing is outstanding to acknowledge remotely.
            if self.qsr.remove(&subject) {
                self.disarm(out, TimerId::SpeNoti { subject });
            }
            if self.qr.is_empty() && self.qsr.is_empty() && self.status == Status::Notifying {
                self.switch_to_s_node(out);
            }
        } else {
            self.post(out, initiator, Message::SpeNotiRly { subject });
        }
    }

    fn on_spenotirly(&mut self, subject: NodeId, out: &mut Effects) {
        let awaited = self.qsr.remove(&subject);
        if !awaited && self.opts.retry.is_some() {
            return; // duplicate reply under retransmission; already processed
        }
        self.disarm(out, TimerId::SpeNoti { subject });
        if self.qr.is_empty() && self.qsr.is_empty() && self.status == Status::Notifying {
            self.switch_to_s_node(out);
        }
    }

    // ------------------------------------------------------------------
    // Switch_To_S_Node (Figure 13) and InSysNotiMsg (Figure 14)
    // ------------------------------------------------------------------

    fn switch_to_s_node(&mut self, out: &mut Effects) {
        debug_assert_eq!(self.status, Status::Notifying);
        if self.status == Status::InSystem {
            return;
        }
        self.set_status(Status::InSystem, out);
        // The join queues exist only while waiting/notifying (§4): `Q_r` and
        // `Q_sr` are empty here, and `Q_n`/`Q_sn` are read only under those
        // statuses, which an S-node never re-enters. Assigning (not
        // `clear`ing) frees the tree nodes.
        self.qr = BTreeSet::new();
        self.qn = BTreeSet::new();
        self.qsr = BTreeSet::new();
        self.qsn = BTreeSet::new();
        let me = self.id;
        for i in 0..self.space.digit_count() {
            self.flip_state(i, me.digit(i), me, NodeState::S, out);
        }
        for v in self.table.reverse_sorted() {
            if v != me {
                self.post(out, v, Message::InSysNoti);
                self.arm(out, TimerId::InSys { peer: v });
            }
        }
        for u in std::mem::take(&mut self.qj) {
            let k = me.csuf_len(&u);
            match self.table.get(k, u.digit(k)) {
                None => {
                    self.install(
                        k,
                        u.digit(k),
                        Entry {
                            node: u,
                            state: NodeState::T,
                        },
                        false,
                        out,
                    );
                    let table = self.table.snapshot();
                    self.post(
                        out,
                        u,
                        Message::JoinWaitRly {
                            positive: true,
                            next: u,
                            table,
                        },
                    );
                }
                Some(e) if e.node == u => {
                    let table = self.table.snapshot();
                    self.post(
                        out,
                        u,
                        Message::JoinWaitRly {
                            positive: true,
                            next: u,
                            table,
                        },
                    );
                }
                Some(e) => {
                    let table = self.table.snapshot();
                    self.post(
                        out,
                        u,
                        Message::JoinWaitRly {
                            positive: false,
                            next: e.node,
                            table,
                        },
                    );
                }
            }
        }
        self.start_failure_detector(out);
    }

    fn on_insysnoti(&mut self, from: NodeId, out: &mut Effects) {
        let k = self.id.csuf_len(&from);
        self.flip_state(k, from.digit(k), from, NodeState::S, out);
        if self.opts.retry.is_some() {
            // The acknowledgement that cancels the sender's `InSys` timer.
            self.post(out, from, Message::Pong);
        }
    }

    // ------------------------------------------------------------------
    // RvNghNotiMsg / RvNghNotiRlyMsg
    // ------------------------------------------------------------------

    fn on_rvnghnoti(&mut self, from: NodeId, recorded: NodeState, out: &mut Effects) {
        // `from` stored us in its (k, self[k]) entry; we are now a reverse
        // neighbor of... it; equivalently it is a reverse (k, self[k])-
        // neighbor of us.
        let k = self.id.csuf_len(&from);
        self.table.add_reverse(k, self.id.digit(k), from);
        let in_system = self.status == Status::InSystem;
        let actual = if in_system {
            NodeState::S
        } else {
            NodeState::T
        };
        // Crash-churn extension: a node that stores us and fits a slot we
        // hold empty fills it — `check_ngh_table`'s rule for third-party
        // snapshots, applied to the sender. After an eviction this is how
        // a joiner admitted around the dead node becomes known to the
        // survivors it stores (ROADMAP item 1, defect (ii)). The `T` is
        // corrected by the `RvNghNoti` round `install` starts.
        if in_system
            && self.opts.failure_detector.is_some()
            && !self.table.is_filled(k, from.digit(k))
            && !self.repair.is_condemned(&from)
        {
            let entry = Entry {
                node: from,
                state: NodeState::T,
            };
            self.install(k, from.digit(k), entry, true, out);
        }
        // The paper replies only on a mismatch; under a retry policy the
        // reply doubles as the acknowledgement that cancels the sender's
        // `RvNgh` timer, so it is unconditional.
        if actual != recorded || self.opts.retry.is_some() {
            self.post(out, from, Message::RvNghNotiRly { actual });
        }
    }

    fn on_rvnghnotirly(&mut self, from: NodeId, actual: NodeState, out: &mut Effects) {
        let k = self.id.csuf_len(&from);
        self.disarm(out, TimerId::RvNgh { peer: from });
        if self.opts.retry.is_some() && actual != NodeState::S {
            // Under retransmission a stale duplicate could otherwise
            // permanently downgrade S back to T; the S-ward direction is
            // re-driven by InSysNoti until acknowledged, the T-ward one is
            // not.
            return;
        }
        self.flip_state(k, from.digit(k), from, actual, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, VecDeque};

    /// A tiny synchronous FIFO network for engine-level tests.
    struct Pump {
        space: IdSpace,
        nodes: HashMap<NodeId, JoinEngine>,
        queue: VecDeque<(NodeId, NodeId, Message)>,
    }

    impl Pump {
        fn new(space: IdSpace) -> Self {
            Pump {
                space,
                nodes: HashMap::new(),
                queue: VecDeque::new(),
            }
        }

        fn seed(&mut self, id: &str) -> NodeId {
            let id = self.space.parse_id(id).unwrap();
            self.nodes.insert(
                id,
                JoinEngine::new_seed(self.space, ProtocolOptions::new(), id),
            );
            id
        }

        fn join(&mut self, id: &str, via: NodeId) -> NodeId {
            let id = self.space.parse_id(id).unwrap();
            let mut e = JoinEngine::new_joiner(self.space, ProtocolOptions::new(), id);
            let mut out = Effects::new();
            e.start_join(via, &mut out);
            self.nodes.insert(id, e);
            self.enqueue(id, &mut out);
            id
        }

        fn enqueue(&mut self, from: NodeId, out: &mut Effects) {
            for (to, msg) in out.drain_sends() {
                self.queue.push_back((from, to, msg));
            }
        }

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                steps += 1;
                assert!(steps < 1_000_000, "protocol did not quiesce");
                let mut out = Effects::new();
                self.nodes
                    .get_mut(&to)
                    .unwrap_or_else(|| panic!("message to unknown node {to}"))
                    .handle(from, msg, &mut out);
                self.enqueue(to, &mut out);
            }
        }

        fn node(&self, id: NodeId) -> &JoinEngine {
            &self.nodes[&id]
        }
    }

    #[test]
    fn single_join_reaches_in_system() {
        let space = IdSpace::new(4, 3).unwrap();
        let mut p = Pump::new(space);
        let a = p.seed("000");
        let b = p.join("321", a);
        p.run();
        assert_eq!(p.node(b).status(), Status::InSystem);
        // b's noti-set is all of V (no shared suffix): noti_level = 0.
        assert_eq!(p.node(b).noti_level(), 0);
        // a stored b at (0, 1); b stored a at (0, 0).
        assert_eq!(p.node(a).table().get(0, 1).unwrap().node, b);
        assert_eq!(p.node(a).table().get(0, 1).unwrap().state, NodeState::S);
        assert_eq!(p.node(b).table().get(0, 0).unwrap().node, a);
    }

    #[test]
    fn sequential_joins_build_mutual_reachability() {
        let space = IdSpace::new(4, 4).unwrap();
        let mut p = Pump::new(space);
        let a = p.seed("0000");
        let ids = ["3210", "1230", "2130", "3213", "0103"];
        let mut all = vec![a];
        for s in ids {
            let n = p.join(s, a);
            p.run();
            all.push(n);
            assert_eq!(p.node(n).status(), Status::InSystem, "joiner {s}");
        }
        // Every pair must resolve: for every x, y there is a neighbor chain;
        // spot-check the first hop exists for every (x, y) pair.
        for &x in &all {
            for &y in &all {
                if x == y {
                    continue;
                }
                let k = x.csuf_len(&y);
                let e = p.node(x).table().get(k, y.digit(k));
                assert!(
                    e.is_some(),
                    "{x} has no ({k}, {}) neighbor toward {y}",
                    y.digit(k)
                );
            }
        }
    }

    #[test]
    fn concurrent_dependent_joins_converge() {
        // The paper's hard case: 10261 and 00261 share the suffix 0261 and
        // join concurrently (b=8, d=5, §3.3).
        let space = IdSpace::new(8, 5).unwrap();
        let mut p = Pump::new(space);
        let seeds = ["72430", "10353", "62332", "13141", "31701"];
        let v: Vec<NodeId> = seeds.iter().map(|s| p.seed(s)).collect();
        // Manually wire V into a consistent network via sequential joins
        // from the first seed... simpler: rebuild with joins.
        let mut p = Pump::new(space);
        let v0 = p.seed(seeds[0]);
        for s in &seeds[1..] {
            p.join(s, v0);
            p.run();
        }
        let w = ["10261", "47051", "00261"];
        let joined: Vec<NodeId> = w.iter().map(|s| p.join(s, v0)).collect();
        p.run();
        for (&id, s) in joined.iter().zip(w) {
            assert_eq!(p.node(id).status(), Status::InSystem, "joiner {s}");
        }
        // All 8 nodes mutually first-hop-reachable.
        let all: Vec<NodeId> = v.iter().copied().chain(joined.iter().copied()).collect();
        for &x in &all {
            for &y in &all {
                if x == y {
                    continue;
                }
                let k = x.csuf_len(&y);
                assert!(
                    p.node(x).table().get(k, y.digit(k)).is_some(),
                    "{x} cannot take a first hop toward {y}"
                );
            }
        }
        // 10261 and 00261 must know each other (condition (3) of §3.3).
        let a = space.parse_id("10261").unwrap();
        let b = space.parse_id("00261").unwrap();
        assert_eq!(p.node(a).table().get(4, 0).unwrap().node, b);
        assert_eq!(p.node(b).table().get(4, 1).unwrap().node, a);
    }

    #[test]
    fn theorem_3_bound_on_cprst_plus_joinwait() {
        let space = IdSpace::new(4, 4).unwrap();
        let mut p = Pump::new(space);
        let a = p.seed("0000");
        let ids = ["3210", "1230", "2130", "3213", "0103", "2222", "1111"];
        for s in ids {
            let n = p.join(s, a);
            p.run();
            let sent = p.node(n).stats().cprst_plus_joinwait();
            assert!(
                sent <= (space.digit_count() + 1) as u64,
                "{s} sent {sent} > d+1"
            );
        }
    }

    #[test]
    fn joiner_states_upgrade_to_s_everywhere() {
        let space = IdSpace::new(4, 3).unwrap();
        let mut p = Pump::new(space);
        let a = p.seed("000");
        let ids = ["111", "211", "311"]; // force shared suffixes
        for s in ids {
            p.join(s, a);
        }
        p.run();
        for e in p.nodes.values() {
            assert_eq!(e.status(), Status::InSystem);
            for (_, _, entry) in e.table().iter() {
                assert_eq!(
                    entry.state,
                    NodeState::S,
                    "{} still records {} as T",
                    e.id(),
                    entry.node
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "join already started")]
    fn start_join_twice_panics() {
        let space = IdSpace::new(4, 3).unwrap();
        let a = space.parse_id("000").unwrap();
        let b = space.parse_id("111").unwrap();
        let mut e = JoinEngine::new_joiner(space, ProtocolOptions::new(), b);
        let mut out = Effects::new();
        e.start_join(a, &mut out);
        e.start_join(a, &mut out);
    }

    #[test]
    fn default_options_emit_only_send_effects() {
        let space = IdSpace::new(4, 3).unwrap();
        let a = space.parse_id("000").unwrap();
        let b = space.parse_id("321").unwrap();
        let mut e = JoinEngine::new_joiner(space, ProtocolOptions::new(), b);
        let mut out = Effects::new();
        e.start_join(a, &mut out);
        for fx in out.drain() {
            assert!(matches!(fx, Effect::Send { .. }), "unexpected {fx:?}");
        }
    }

    #[test]
    fn retry_mode_arms_a_timer_on_start_join() {
        let space = IdSpace::new(4, 3).unwrap();
        let a = space.parse_id("000").unwrap();
        let b = space.parse_id("321").unwrap();
        let opts = ProtocolOptions::new().with_retry(crate::options::RetryPolicy {
            timeout_us: 777,
            max_retries: 3,
            ..Default::default()
        });
        let mut e = JoinEngine::new_joiner(space, opts, b);
        let mut out = Effects::new();
        e.start_join(a, &mut out);
        let fx: Vec<Effect> = out.drain().collect();
        assert!(fx.iter().any(|f| matches!(
            f,
            Effect::SetTimer { id: TimerId::CpRst { peer }, delay_hint: 777 } if *peer == a
        )));
    }

    #[test]
    fn timer_retry_is_bounded_and_traced() {
        let space = IdSpace::new(4, 3).unwrap();
        let a = space.parse_id("000").unwrap();
        let b = space.parse_id("321").unwrap();
        let opts = ProtocolOptions::new()
            .with_retry(crate::options::RetryPolicy {
                timeout_us: 100,
                max_retries: 2,
                ..Default::default()
            })
            .with_trace();
        let mut e = JoinEngine::new_joiner(space, opts, b);
        let mut out = Effects::new();
        e.start_join(a, &mut out);
        out.drain().count();
        let id = TimerId::CpRst { peer: a };
        let mut resends = 0;
        let mut exhausted = 0;
        for _ in 0..5 {
            let mut out = Effects::new();
            e.on_event(Event::TimerFired { id }, &mut out);
            for fx in out.drain() {
                match fx {
                    Effect::Send {
                        to,
                        msg: Message::CpRst { level: 0 },
                    } if to == a => {
                        resends += 1;
                    }
                    Effect::Trace(ProtocolEvent::RetriesExhausted { .. }) => exhausted += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(resends, 2, "max_retries bounds retransmissions");
        assert_eq!(exhausted, 1, "exhaustion is traced exactly once");
    }
}
