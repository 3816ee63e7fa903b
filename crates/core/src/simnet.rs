//! Glue between the sans-io [`JoinEngine`] and the deterministic
//! discrete-event simulator: build a network of members and joiners, run
//! the join protocol to quiescence, inspect the result.
//!
//! # Examples
//!
//! Five members (oracle-built consistent tables) plus three concurrent
//! joiners, the paper's Figure 2 scenario:
//!
//! ```
//! use hyperring_core::SimNetworkBuilder;
//! use hyperring_sim::UniformDelay;
//! use hyperring_id::IdSpace;
//!
//! let space = IdSpace::new(8, 5)?;
//! let mut b = SimNetworkBuilder::new(space);
//! for s in ["72430", "10353", "62332", "13141", "31701"] {
//!     b.add_member(space.parse_id(s)?);
//! }
//! for s in ["10261", "47051", "00261"] {
//!     b.add_joiner(space.parse_id(s)?, space.parse_id("72430")?, 0);
//! }
//! let mut net = b.build(UniformDelay::new(1_000, 50_000), 7);
//! net.run();
//! assert!(net.all_in_system());
//! assert!(net.check_consistency().is_consistent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use hyperring_id::{IdBuildHasher, IdSpace, NodeId};
use hyperring_sim::{Actor, Context, DelayModel, RunReport, Simulator, Time};

use crate::consistency::{check_consistency, ConsistencyReport};
use crate::dispatch::EffectHandler;
use crate::driver::{EngineDriver, NodeInput, RuntimeDriver};
use crate::effect::TimerId;
use crate::engine::{JoinEngine, Status};
use crate::messages::Message;
use crate::options::ProtocolOptions;
use crate::oracle::build_consistent_tables;
use crate::table::NeighborTable;
use crate::trace::{TraceSink, TraceStream};

/// A hop on the send path of a [`SimNetwork`]: every protocol message a
/// node sends is handed to the carrier, and the simulator schedules the
/// message the carrier returns. Set it once with
/// [`SimNetworkBuilder::carrier`]; nodes added later by
/// [`SimNetwork::add_joiner_live`] use it too.
///
/// Only protocol messages cross it. Control inputs (`StartJoin`,
/// `BeginLeave`, `Crash`, `StartFailureDetector`) do not, and delay, RNG,
/// timers and crashes stay the simulator's. So a carrier that returns
/// what it was given leaves a run bit-identical to one without a carrier.
/// `hyperring-net`'s `LoopbackCarrier` sends each message as a wire frame
/// through a real loopback socket: same digests then means the codec and
/// the socket are transparent.
pub trait Carrier: Send + Sync + std::fmt::Debug {
    /// Carries `msg` from `from` to `to` and returns what arrived.
    fn carry(&self, from: NodeId, to: NodeId, msg: Message) -> Message;
}

/// Append-only `NodeId → dense index` interner shared by the builder and
/// every actor of one simulation.
///
/// Actors address each other with the dense `usize` indices the simulator
/// uses, so overlay-level `NodeId` destinations are resolved once per
/// send (replies skip even that: the simulator hands over the sender's
/// index). The directory supports *growth* — a joiner can be injected into
/// a live network ([`SimNetwork::add_joiner_live`]) by one map insert,
/// without touching any actor — which is what keeps §6.1 sequential
/// bootstrap at O(n) incremental work and O(n) memory. Indices are stable:
/// entries are only ever appended, never moved or removed.
///
/// There is one map, behind one lock that is never contended: the
/// simulator is sequential, and the lock exists so that a `SimNetwork`
/// stays `Send`. It hashes with [`IdBuildHasher`]: every send that is not
/// a reply resolves its destination here.
#[derive(Debug, Default)]
pub struct Directory {
    map: RwLock<HashMap<NodeId, usize, IdBuildHasher>>,
}

impl Directory {
    /// Wraps an already-built mapping (the builder's bulk path).
    fn new(map: HashMap<NodeId, usize, IdBuildHasher>) -> Self {
        Directory {
            map: RwLock::new(map),
        }
    }

    /// The dense actor index of `id`, if registered.
    pub fn resolve(&self, id: &NodeId) -> Option<usize> {
        self.map.read().unwrap().get(id).copied()
    }

    /// Registers `id → idx`; returns `false` when `id` was already present
    /// (the mapping is left unchanged in that case).
    fn insert(&self, id: NodeId, idx: usize) -> bool {
        let mut map = self.map.write().unwrap();
        if map.contains_key(&id) {
            return false;
        }
        map.insert(id, idx);
        true
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().len()
    }

    /// Whether no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What every node of one network shares, behind the one handle each
/// node holds.
#[derive(Debug)]
struct Shared {
    /// Overlay id → actor index, for every node of the network.
    dir: Directory,
    /// The run-global trace stream of a traced network; locked only while
    /// a node drives an input.
    trace: Option<Arc<Mutex<TraceStream>>>,
    /// The network's [`Carrier`], if one was set.
    carrier: Option<Arc<dyn Carrier>>,
}

/// One simulated overlay node: a driven engine plus a handle on what the
/// network's nodes share (the address directory, trace and carrier).
#[derive(Debug)]
pub struct SimNode {
    node: EngineDriver,
    net: Arc<Shared>,
}

impl SimNode {
    fn new(engine: JoinEngine, net: &Arc<Shared>) -> Self {
        SimNode {
            node: EngineDriver::new(engine),
            net: Arc::clone(net),
        }
    }

    /// The wrapped protocol engine.
    pub fn engine(&self) -> &JoinEngine {
        self.node.engine()
    }

    /// Feeds one input through the shared runtime driver, with this
    /// actor's simulator context as the transport.
    fn dispatch(
        &mut self,
        ctx: &mut Context<'_, NodeInput, TimerId>,
        from_idx: usize,
        reply_to: Option<NodeId>,
        input: NodeInput,
    ) {
        let me = self.node.engine().id();
        let mut rt = SimHandler {
            ctx,
            me,
            reply_to,
            from_idx,
            dir: &self.net.dir,
            carrier: self.net.carrier.as_deref(),
        };
        match &self.net.trace {
            Some(stream) => {
                let mut stream = stream.lock().unwrap();
                self.node.drive(input, &mut rt, Some(&mut stream));
            }
            None => {
                self.node.drive(input, &mut rt, None);
            }
        }
    }
}

/// [`EffectHandler`] adapter mapping engine effects onto one simulator
/// actor's context: overlay `NodeId`s are resolved to dense indices (with
/// the reply fast-path — the sender's index is already known), sends
/// cross the [`Carrier`] if there is one, timer effects become simulator
/// timers.
struct SimHandler<'a, 'c> {
    ctx: &'a mut Context<'c, NodeInput, TimerId>,
    me: NodeId,
    reply_to: Option<NodeId>,
    from_idx: usize,
    dir: &'a Directory,
    carrier: Option<&'a dyn Carrier>,
}

impl RuntimeDriver for SimHandler<'_, '_> {
    fn now_us(&self) -> u64 {
        self.ctx.now()
    }
}

impl EffectHandler for SimHandler<'_, '_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        // Dense reply routing: for a protocol message the simulator already
        // told us the sender's index, so replies (the bulk of join traffic)
        // skip the directory lookup entirely.
        let idx = if self.reply_to == Some(to) {
            self.from_idx
        } else {
            self.dir
                .resolve(&to)
                .unwrap_or_else(|| panic!("message addressed to unknown node {to}"))
        };
        let msg = match self.carrier {
            Some(carrier) => carrier.carry(self.me, to, msg),
            None => msg,
        };
        self.ctx
            .send(idx, NodeInput::Deliver { from: self.me, msg });
    }

    fn set_timer(&mut self, id: TimerId, delay_hint: u64) {
        self.ctx.set_timer(id, delay_hint);
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }
}

impl Actor for SimNode {
    type Msg = NodeInput;
    type Timer = TimerId;

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, NodeInput, TimerId>,
        from_idx: usize,
        input: NodeInput,
    ) {
        let reply_to = match &input {
            NodeInput::Deliver { from, .. } => Some(*from),
            _ => None,
        };
        self.dispatch(ctx, from_idx, reply_to, input);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NodeInput, TimerId>, timer: TimerId) {
        self.dispatch(ctx, usize::MAX, None, NodeInput::TimerFired(timer));
    }
}

/// Builder for a [`SimNetwork`].
#[derive(Debug)]
pub struct SimNetworkBuilder {
    space: IdSpace,
    opts: ProtocolOptions,
    members: Vec<NodeId>,
    member_tables: Option<Vec<NeighborTable>>,
    joiners: Vec<(NodeId, NodeId, Time)>,
    trace: Option<Arc<Mutex<TraceStream>>>,
    carrier: Option<Arc<dyn Carrier>>,
}

impl SimNetworkBuilder {
    /// Starts a builder over `space` with default protocol options.
    pub fn new(space: IdSpace) -> Self {
        SimNetworkBuilder {
            space,
            opts: ProtocolOptions::default(),
            members: Vec::new(),
            member_tables: None,
            joiners: Vec::new(),
            trace: None,
            carrier: None,
        }
    }

    // Accepted and ignored: the frozen `benchmark/` bootstrap calls this.
    // Goes when `benchmark/` is next touched (ROADMAP item 7(d), the thaw).
    #[doc(hidden)]
    pub fn shards(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the protocol options for every node.
    pub fn options(&mut self, opts: ProtocolOptions) -> &mut Self {
        self.opts = opts;
        self
    }

    /// Attaches a [`TraceSink`] that will receive every node's protocol
    /// events, stamped with virtual time and a run-global sequence number.
    /// Implies [`ProtocolOptions::trace`] for every node (regardless of the
    /// order of `options` and `trace` calls).
    pub fn trace(&mut self, sink: Box<dyn TraceSink + Send>) -> &mut Self {
        self.trace = Some(Arc::new(Mutex::new(TraceStream::new(sink))));
        self
    }

    /// Sends every protocol message of the network through `carrier`
    /// (see [`Carrier`]).
    pub fn carrier(&mut self, carrier: Arc<dyn Carrier>) -> &mut Self {
        self.carrier = Some(carrier);
        self
    }

    /// Adds a member of the initial consistent network `V`. Tables for all
    /// members are built by the oracle at [`build`](Self::build) time.
    pub fn add_member(&mut self, id: NodeId) -> &mut Self {
        assert!(
            self.member_tables.is_none(),
            "cannot mix add_member with preset tables"
        );
        self.members.push(id);
        self
    }

    /// Uses pre-built member tables instead of the oracle (e.g. tables that
    /// came out of a previous run).
    pub fn with_member_tables(&mut self, tables: Vec<NeighborTable>) -> &mut Self {
        assert!(
            self.members.is_empty(),
            "cannot mix preset tables with add_member"
        );
        self.member_tables = Some(tables);
        self
    }

    /// Adds a node that joins through `gateway`, starting at virtual time
    /// `at` (the paper starts all joins at time 0).
    pub fn add_joiner(&mut self, id: NodeId, gateway: NodeId, at: Time) -> &mut Self {
        self.joiners.push((id, gateway, at));
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if there are no members, if identifiers collide, or if a
    /// joiner's gateway is not a member or joiner.
    pub fn build<D: DelayModel>(&mut self, delay: D, seed: u64) -> SimNetwork<D> {
        let member_tables = match self.member_tables.take() {
            Some(t) => t,
            None => build_consistent_tables(self.space, &self.members),
        };
        assert!(
            !member_tables.is_empty(),
            "network needs at least one member"
        );
        let mut opts = self.opts;
        if self.trace.is_some() {
            opts = opts.with_trace();
        }

        let mut ids: Vec<NodeId> = member_tables.iter().map(|t| t.owner()).collect();
        ids.extend(self.joiners.iter().map(|(id, _, _)| *id));
        let mut map = HashMap::with_capacity_and_hasher(ids.len(), IdBuildHasher::default());
        for (i, id) in ids.iter().enumerate() {
            assert!(map.insert(*id, i).is_none(), "duplicate node identifier");
        }
        let shared = Arc::new(Shared {
            dir: Directory::new(map),
            trace: self.trace.clone(),
            carrier: self.carrier.clone(),
        });
        let dir = &shared.dir;

        let mut actors: Vec<SimNode> = member_tables
            .into_iter()
            .map(|t| SimNode::new(JoinEngine::new_member(self.space, opts, t), &shared))
            .collect();
        for (id, _, _) in &self.joiners {
            let engine = JoinEngine::new_joiner(self.space, opts, *id);
            actors.push(SimNode::new(engine, &shared));
        }

        let mut sim = Simulator::new(actors, delay, seed);
        if opts.failure_detector().is_some() {
            // Initial members are already in_system, so nothing would ever
            // arm their detectors; kick them off at time 0.
            let members = ids.len() - self.joiners.len();
            for idx in 0..members {
                sim.inject_at(0, idx, idx, NodeInput::StartFailureDetector);
            }
        }
        for (id, gateway, at) in &self.joiners {
            assert!(dir.resolve(gateway).is_some(), "gateway {gateway} unknown");
            assert_ne!(id, gateway, "node cannot join via itself");
            let idx = dir.resolve(id).expect("joiner registered above");
            sim.inject_at(*at, idx, idx, NodeInput::StartJoin { gateway: *gateway });
        }
        SimNetwork {
            space: self.space,
            opts,
            sim,
            shared,
            ids,
            joiner_count: self.joiners.len(),
        }
    }
}

/// A simulated overlay network running the join protocol.
#[derive(Debug)]
pub struct SimNetwork<D: DelayModel> {
    space: IdSpace,
    opts: ProtocolOptions,
    sim: Simulator<SimNode, D>,
    shared: Arc<Shared>,
    ids: Vec<NodeId>,
    joiner_count: usize,
}

impl<D: DelayModel> SimNetwork<D> {
    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Runs to quiescence and returns the simulator's report.
    pub fn run(&mut self) -> RunReport {
        let report = self.sim.run();
        self.stamp_trace(report)
    }

    /// Runs, but aborts after `max_deliveries` — for liveness tests.
    pub fn run_limited(&mut self, max_deliveries: u64) -> RunReport {
        let report = self.sim.run_limited(max_deliveries);
        self.stamp_trace(report)
    }

    /// Runs until the next live event lies past virtual time `until` (or
    /// the queue drains). With a failure detector configured the probe
    /// tick re-arms forever, so [`run`](Self::run) would never return;
    /// crash-churn drivers advance the clock in horizons instead.
    pub fn run_until(&mut self, until: Time) -> RunReport {
        let report = self.sim.run_until(until);
        self.stamp_trace(report)
    }

    /// Copies the trace stream's emission count into the report, and
    /// flushes the sink so file-backed traces are complete at return.
    fn stamp_trace(&self, mut report: RunReport) -> RunReport {
        if let Some(stream) = &self.shared.trace {
            let mut stream = stream.lock().unwrap();
            stream.flush();
            report.traced = stream.emitted();
        }
        report
    }

    /// The engine of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn engine(&self, id: &NodeId) -> &JoinEngine {
        let idx = self.shared.dir.resolve(id).expect("unknown node id");
        self.sim.actor(idx).engine()
    }

    /// Iterates over all engines (members first, then joiners).
    pub fn engines(&self) -> impl Iterator<Item = &JoinEngine> {
        self.sim.actors().map(|a| a.engine())
    }

    /// Iterates over the joiners' engines only.
    pub fn joiners(&self) -> impl Iterator<Item = &JoinEngine> {
        let members = self.ids.len() - self.joiner_count;
        self.sim.actors().skip(members).map(|a| a.engine())
    }

    /// Whether every node (member and joiner) is an S-node.
    pub fn all_in_system(&self) -> bool {
        self.engines().all(|e| e.status() == Status::InSystem)
    }

    /// Checks Definition 3.8 over the tables of *live* (neither departed
    /// nor crashed) nodes — the survivor-restricted checker. Streams over
    /// the engines' arena-backed tables in place
    /// ([`tables_iter`](Self::tables_iter)); no table is cloned.
    pub fn check_consistency(&self) -> ConsistencyReport {
        check_consistency(self.space, self.tables_iter())
    }

    /// Borrows the tables of live (neither departed nor crashed) nodes in
    /// engine order — the zero-copy view every digest/consistency path
    /// feeds from. Each item is the engine's arena-backed table in place.
    pub fn tables_iter(&self) -> impl Iterator<Item = &NeighborTable> {
        self.engines()
            .filter(|e| !matches!(e.status(), Status::Departed | Status::Crashed))
            .map(|e| e.table())
    }

    /// Clones out the tables of live (neither departed nor crashed) nodes.
    ///
    /// **Tests and table hand-off only**: this materializes `O(n · d · b)`
    /// memory (every entry and reverse set of every live node). Checking,
    /// digesting, and counting should borrow via
    /// [`tables_iter`](Self::tables_iter) instead.
    pub fn tables(&self) -> Vec<NeighborTable> {
        self.tables_iter().cloned().collect()
    }

    /// Schedules a graceful leave of `id` at the current virtual time,
    /// then runs the simulation to quiescence (extension; sequential-churn
    /// scope — call between waves, not during one).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the leave fails to complete.
    pub fn depart(&mut self, id: &NodeId) -> RunReport {
        let idx = self.shared.dir.resolve(id).expect("unknown node id");
        let now = self.sim.now();
        self.sim.inject_at(now, idx, idx, NodeInput::BeginLeave);
        let report = self.sim.run();
        assert_eq!(
            self.engine(id).status(),
            Status::Departed,
            "{id} failed to depart"
        );
        self.stamp_trace(report)
    }

    /// Schedules a graceful leave of `id` at absolute virtual time `at`
    /// *without* running the simulation — unlike [`depart`](Self::depart),
    /// which is the sequential-churn entry point. Combining overlapping
    /// `leave_at` calls is exactly the unarbitrated territory
    /// [`JoinEngine::begin_leave`] documents as out of scope; the
    /// regression test below pins what happens there.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn leave_at(&mut self, id: &NodeId, at: Time) {
        let idx = self.shared.dir.resolve(id).expect("unknown node id");
        self.sim.inject_at(at, idx, idx, NodeInput::BeginLeave);
    }

    /// Schedules a crash failure of `id` at absolute virtual time `at`
    /// (crash-churn extension). The node goes silent at that instant —
    /// no goodbye, no replacement — and is excluded from
    /// [`tables`](Self::tables) / [`check_consistency`](Self::check_consistency)
    /// thereafter. Drive the survivors with [`run_until`](Self::run_until).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or `at` is in the past.
    pub fn crash_at(&mut self, id: &NodeId, at: Time) {
        let idx = self.shared.dir.resolve(id).expect("unknown node id");
        self.sim.inject_at(at, idx, idx, NodeInput::Crash);
    }

    /// Virtual time (µs).
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Injects a fresh joiner into the *live* network: registers it in
    /// the shared [`Directory`], appends an actor to the running
    /// simulator, and schedules its `Start` through `gateway` at the
    /// current virtual time. Returns the new actor's dense index.
    ///
    /// Existing actors, queued events, and tables are untouched: a join
    /// costs one insert into the shared directory map and one actor
    /// appended, amortized O(1) in time and memory, which is what lets
    /// [`bootstrap`] grow one network instead of rebuilding it for every
    /// join.
    ///
    /// # Panics
    ///
    /// Panics if `id` duplicates an existing node, equals `gateway`, or
    /// `gateway` is unknown.
    pub fn add_joiner_live(&mut self, id: NodeId, gateway: NodeId) -> usize {
        assert!(
            self.shared.dir.resolve(&gateway).is_some(),
            "gateway {gateway} unknown"
        );
        assert_ne!(id, gateway, "node cannot join via itself");
        let idx = self.sim.len();
        assert!(self.shared.dir.insert(id, idx), "duplicate node identifier");
        self.ids.push(id);
        self.joiner_count += 1;
        let engine = JoinEngine::new_joiner(self.space, self.opts, id);
        let added = self.sim.add_actor(SimNode::new(engine, &self.shared));
        debug_assert_eq!(added, idx);
        let now = self.sim.now();
        self.sim
            .inject_at(now, idx, idx, NodeInput::StartJoin { gateway });
        idx
    }

    /// Injects a whole wave of joiners, all starting through `gateway` at
    /// the current virtual time: [`add_joiner_live`](Self::add_joiner_live)
    /// for each id in order. Returns the first new actor index.
    ///
    /// # Panics
    ///
    /// As [`add_joiner_live`](Self::add_joiner_live), for any id of the
    /// wave (ids before the offending one have been added by then).
    pub fn add_joiners_live(&mut self, ids: &[NodeId], gateway: NodeId) -> usize {
        let base = self.sim.len();
        for &id in ids {
            self.add_joiner_live(id, gateway);
        }
        base
    }
}

/// Initializes a network per §6.1: `ids[0]` becomes the seed node and the
/// rest join through it in concurrent **waves** of up to `batch` nodes.
/// Every joiner of a wave starts at the same virtual instant (through the
/// seed-node gateway, assumption (ii) of §3.1) and the wave runs to
/// quiescence before the next begins; `batch` 1 is the sequential
/// bootstrap, each join completing before the next starts. Returns the
/// live network: digests and Definition-3.8 checks stream straight off
/// its arena-backed tables via [`SimNetwork::tables_iter`], and
/// [`SimNetwork::tables`] clones them out.
///
/// One simulator lives for the whole bootstrap and each wave is injected
/// into it through [`SimNetwork::add_joiners_live`], so a wave costs
/// O(its own traffic), not a rebuild, and peak queue memory is bounded by
/// one wave's traffic rather than by `n`. Joins are timing-insensitive
/// when sequential (Lemma 5.2 holds for any latencies), so a fixed 1 µs
/// delay is used. Within a wave, which sharer a joiner copies from
/// depends on message interleaving, so tables differ between batch sizes
/// while staying just as consistent. The `golden_sequential_bootstrap`
/// and `golden_batched_bootstrap_*` digests pin the output, entries and
/// reverse sets.
///
/// # Panics
///
/// Panics if `ids` is empty or contains duplicates, `batch` is zero, or
/// a wave fails to reach quiescence with all its joiners in system.
pub fn bootstrap(
    space: IdSpace,
    opts: ProtocolOptions,
    ids: &[NodeId],
    batch: usize,
) -> SimNetwork<hyperring_sim::ConstantDelay> {
    assert!(!ids.is_empty());
    assert!(batch > 0, "batch size must be positive");
    let seed_node = ids[0];
    let mut b = SimNetworkBuilder::new(space);
    let seed_table = JoinEngine::new_seed(space, opts, seed_node).table().clone();
    b.options(opts).with_member_tables(vec![seed_table]);
    let mut net = b.build(hyperring_sim::ConstantDelay(1), 0);
    for wave in ids[1..].chunks(batch) {
        net.add_joiners_live(wave, seed_node);
        net.run();
        // Earlier waves were asserted on their own turn and `in_system`
        // is absorbing here, so only this wave's joiners need looking at.
        assert!(
            wave.iter().all(|id| net.engine(id).is_in_system()),
            "join wave failed to terminate"
        );
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::digest::tables_digest;
    use hyperring_sim::{ConstantDelay, UniformDelay};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> IdSpace {
        IdSpace::new(8, 5).unwrap()
    }

    fn paper_members(b: &mut SimNetworkBuilder) -> Vec<NodeId> {
        ["72430", "10353", "62332", "13141", "31701"]
            .iter()
            .map(|s| {
                let id = space().parse_id(s).unwrap();
                b.add_member(id);
                id
            })
            .collect()
    }

    #[test]
    fn paper_figure2_scenario_converges_consistently() {
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        for s in ["10261", "47051", "00261"] {
            b.add_joiner(space().parse_id(s).unwrap(), v[0], 0);
        }
        let mut net = b.build(UniformDelay::new(1_000, 80_000), 1234);
        let report = net.run();
        assert!(!report.truncated);
        assert!(net.all_in_system());
        let c = net.check_consistency();
        assert!(c.is_consistent(), "{c}");
    }

    #[test]
    fn many_seeds_always_consistent() {
        for seed in 0..20 {
            let mut b = SimNetworkBuilder::new(space());
            let v = paper_members(&mut b);
            for s in ["10261", "47051", "00261", "20261", "57051"] {
                b.add_joiner(space().parse_id(s).unwrap(), v[seed as usize % v.len()], 0);
            }
            let mut net = b.build(UniformDelay::new(1, 1_000_000), seed);
            net.run_limited(10_000_000);
            assert!(net.all_in_system(), "seed {seed}: not all in system");
            let c = net.check_consistency();
            assert!(c.is_consistent(), "seed {seed}: {c}");
        }
    }

    /// Draws `n` distinct ids, preserving the draw order (a `HashSet`
    /// guard instead of the old O(n²) `Vec::contains` scan; the accepted
    /// sequence — and thus every seeded test — is unchanged).
    fn distinct_ids(sp: IdSpace, n: usize, seed: u64) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = sp.random_id(&mut rng);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        ids
    }

    #[test]
    fn random_concurrent_joins_consistent() {
        let sp = IdSpace::new(4, 6).unwrap();
        let ids = distinct_ids(sp, 40, 5);
        let (v, w) = ids.split_at(25);
        let mut b = SimNetworkBuilder::new(sp);
        for id in v {
            b.add_member(*id);
        }
        for id in w {
            b.add_joiner(*id, v[0], 0);
        }
        let mut net = b.build(UniformDelay::new(100, 200_000), 99);
        net.run();
        assert!(net.all_in_system());
        let c = net.check_consistency();
        assert!(c.is_consistent(), "{c}");
        assert_eq!(net.joiners().count(), 15);
    }

    #[test]
    fn staggered_start_times_also_consistent() {
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        for (i, s) in ["10261", "47051", "00261"].iter().enumerate() {
            b.add_joiner(space().parse_id(s).unwrap(), v[0], (i as u64) * 30_000);
        }
        let mut net = b.build(UniformDelay::new(1_000, 60_000), 7);
        net.run();
        assert!(net.all_in_system());
        assert!(net.check_consistency().is_consistent());
    }

    #[test]
    fn bootstrap_sequential_builds_consistent_network() {
        let sp = IdSpace::new(4, 4).unwrap();
        let ids = distinct_ids(sp, 12, 17);
        let tables = bootstrap(sp, ProtocolOptions::new(), &ids, 1).tables();
        assert_eq!(tables.len(), 12);
        let report = check_consistency(sp, &tables);
        assert!(report.is_consistent(), "{report}");
    }

    #[test]
    fn add_joiner_live_after_deliveries() {
        // Inject a joiner into a network that has already run to
        // quiescence (the incremental-bootstrap path), then another.
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        b.add_joiner(space().parse_id("10261").unwrap(), v[0], 0);
        let mut net = b.build(ConstantDelay(50), 3);
        let first = net.run();
        assert!(first.delivered > 0);
        assert!(net.all_in_system());

        let late = space().parse_id("47051").unwrap();
        let idx = net.add_joiner_live(late, v[1]);
        assert_eq!(idx, 6);
        let second = net.run();
        assert!(second.delivered > first.delivered);
        assert!(second.finished_at >= first.finished_at);
        assert!(net.all_in_system());
        assert_eq!(net.engine(&late).status(), Status::InSystem);
        assert_eq!(net.joiners().count(), 2);
        assert_eq!(net.engines().count(), 7);
        assert!(net.check_consistency().is_consistent());
    }

    #[test]
    fn traced_run_records_transitions_without_perturbing_the_run() {
        use crate::trace::{RingTrace, SharedSink};

        let build = |traced: bool| {
            let mut b = SimNetworkBuilder::new(space());
            let v = paper_members(&mut b);
            for s in ["10261", "47051", "00261"] {
                b.add_joiner(space().parse_id(s).unwrap(), v[0], 0);
            }
            let sink = SharedSink::new(RingTrace::new(4096));
            if traced {
                b.trace(Box::new(sink.clone()));
            }
            let mut net = b.build(UniformDelay::new(1_000, 80_000), 1234);
            let report = net.run();
            (report, sink)
        };

        let (plain, _) = build(false);
        let (traced, sink) = build(true);
        // Tracing is observation only: same deliveries, same virtual time.
        assert_eq!(plain.delivered, traced.delivered);
        assert_eq!(plain.finished_at, traced.finished_at);
        assert_eq!(plain.traced, 0);
        assert!(traced.traced > 0);

        let ring = sink.lock();
        assert_eq!(ring.total(), traced.traced);
        let mut prev = None;
        for r in ring.records() {
            assert!(prev.is_none_or(|p| r.seq > p), "seq not increasing");
            prev = Some(r.seq);
        }
        let lines: Vec<String> = ring.records().map(|r| r.to_jsonl()).collect();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"join_started\"")));
        assert!(lines.iter().any(|l| l.contains("\"to\":\"in_system\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"entry_filled\"")));
    }

    #[test]
    fn crashed_nodes_are_detected_evicted_and_repaired() {
        use crate::options::FailureDetector;

        // 14 members; crash 3 mid-run. With the detector + repair on,
        // survivors must converge back to Definition-3.8 consistency; the
        // control arm (repair off) must evict but stay inconsistent
        // (false negatives: vacated slots whose suffix is still covered).
        let run = |repair: bool| {
            let sp = IdSpace::new(4, 6).unwrap();
            let ids = distinct_ids(sp, 14, 11);
            let fd = FailureDetector {
                probe_interval_us: 100_000,
                suspicion_threshold: 3,
                repair,
                ..FailureDetector::default()
            };
            let mut b = SimNetworkBuilder::new(sp);
            b.options(ProtocolOptions::new().with_failure_detector(fd));
            for id in &ids {
                b.add_member(*id);
            }
            let mut net = b.build(ConstantDelay(500), 7);
            for id in &ids[..3] {
                net.crash_at(id, 50_000);
            }
            // Several detection cycles past the crash instant.
            net.run_until(3_000_000);
            assert_eq!(net.tables().len(), 11);
            // Every survivor evicted every crashed node.
            for e in net.engines() {
                if e.status() == Status::Crashed {
                    continue;
                }
                for dead in &ids[..3] {
                    assert!(
                        !e.table().iter().any(|(_, _, en)| en.node == *dead),
                        "{} still stores crashed {dead}",
                        e.id()
                    );
                }
            }
            net.check_consistency()
        };

        let repaired = run(true);
        assert!(repaired.is_consistent(), "{repaired}");
        let control = run(false);
        assert!(
            !control.is_consistent(),
            "eviction without repair should leave false negatives"
        );
    }

    #[test]
    fn responsive_network_suffers_no_false_positives() {
        use crate::options::FailureDetector;

        // Detector on, nobody crashes: pongs answer every probe, so no
        // neighbor is ever evicted and consistency is undisturbed.
        let sp = IdSpace::new(4, 6).unwrap();
        let ids = distinct_ids(sp, 10, 13);
        let mut b = SimNetworkBuilder::new(sp);
        b.options(
            ProtocolOptions::new().with_failure_detector(FailureDetector {
                probe_interval_us: 100_000,
                suspicion_threshold: 3,
                repair: true,
                ..FailureDetector::default()
            }),
        );
        for id in &ids {
            b.add_member(*id);
        }
        let mut net = b.build(ConstantDelay(500), 3);
        let before: Vec<usize> = net.tables().iter().map(|t| t.filled()).collect();
        net.run_until(2_000_000);
        let after: Vec<usize> = net.tables().iter().map(|t| t.filled()).collect();
        assert_eq!(before, after, "a live neighbor was evicted");
        assert!(net.check_consistency().is_consistent());
    }

    #[test]
    fn concurrent_adjacent_leaves_remain_out_of_scope() {
        // Regression pin for the documented limitation on
        // `JoinEngine::begin_leave`: concurrent leaves of *adjacent*
        // nodes (each other's replacement candidates) are not arbitrated.
        // Sequential leaves are safe (`depart`), but when two mutual
        // neighbors leave at the same instant each may hand the other out
        // as its replacement, so across seeds some run must end broken —
        // a stalled leaver or survivor tables violating Definition 3.8.
        // If this assertion ever trips the other way, adjacent leaves
        // have become arbitrated and the `begin_leave` doc (and the
        // failure-model section of DESIGN.md) are stale.
        let sp = IdSpace::new(4, 4).unwrap();
        let mut attempted = 0;
        let mut broken = 0;
        for seed in 0..12u64 {
            let ids = distinct_ids(sp, 8, seed);
            let mut b = SimNetworkBuilder::new(sp);
            for id in &ids {
                b.add_member(*id);
            }
            let mut net = b.build(UniformDelay::new(500, 5_000), seed);
            // Members start from consistent tables: find a mutual pair.
            let pair = {
                let engines: Vec<_> = net.engines().collect();
                let stores =
                    |a: &JoinEngine, id: NodeId| a.table().iter().any(|(_, _, e)| e.node == id);
                engines
                    .iter()
                    .flat_map(|u| engines.iter().map(move |v| (u, v)))
                    .find(|(u, v)| u.id() != v.id() && stores(u, v.id()) && stores(v, u.id()))
                    .map(|(u, v)| (u.id(), v.id()))
            };
            let Some((u, v)) = pair else { continue };
            attempted += 1;
            net.leave_at(&u, 0);
            net.leave_at(&v, 0);
            net.run_limited(60_000_000);
            let stalled = !net.engines().all(|e| {
                matches!(
                    e.status(),
                    Status::InSystem | Status::Departed | Status::Crashed
                )
            });
            let consistent = net.check_consistency().is_consistent();
            if stalled || !consistent {
                broken += 1;
            }
        }
        assert!(attempted > 0, "no seed produced a mutually-adjacent pair");
        assert!(
            broken > 0,
            "all {attempted} concurrent adjacent-leave runs settled consistently; \
             the documented limitation no longer reproduces"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate node identifier")]
    fn add_joiner_live_rejects_duplicates() {
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        let mut net = b.build(ConstantDelay(1), 0);
        net.run();
        net.add_joiner_live(v[2], v[0]);
    }

    #[test]
    fn a_wave_equals_its_joins_one_by_one() {
        let sp = IdSpace::new(4, 6).unwrap();
        let ids = distinct_ids(sp, 30, 21);
        let (v, w) = ids.split_at(10);
        let grow = |wave: bool| {
            let mut b = SimNetworkBuilder::new(sp);
            for id in v {
                b.add_member(*id);
            }
            let mut net = b.build(UniformDelay::new(100, 200_000), 4);
            let returned: Vec<usize> = if wave {
                let base = net.add_joiners_live(w, v[0]);
                (base..base + w.len()).collect()
            } else {
                w.iter().map(|id| net.add_joiner_live(*id, v[0])).collect()
            };
            let report = net.run();
            assert!(net.all_in_system());
            let actors: Vec<usize> = w
                .iter()
                .map(|id| net.shared.dir.resolve(id).unwrap())
                .collect();
            assert_eq!(returned, actors);
            (actors, report.delivered, tables_digest(&net.tables()))
        };
        assert_eq!(grow(true), grow(false));
    }

    #[test]
    #[should_panic(expected = "duplicate node identifier")]
    fn add_joiners_live_rejects_an_id_already_in_the_network() {
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        let mut net = b.build(ConstantDelay(1), 0);
        let fresh = space().parse_id("10261").unwrap();
        net.add_joiners_live(&[fresh, v[2]], v[0]);
    }

    #[test]
    #[should_panic(expected = "duplicate node identifier")]
    fn add_joiners_live_rejects_an_id_repeated_in_the_wave() {
        let mut b = SimNetworkBuilder::new(space());
        let v = paper_members(&mut b);
        let mut net = b.build(ConstantDelay(1), 0);
        let fresh = space().parse_id("10261").unwrap();
        net.add_joiners_live(&[fresh, fresh], v[0]);
    }

    #[test]
    #[should_panic(expected = "gateway")]
    fn unknown_gateway_rejected() {
        let mut b = SimNetworkBuilder::new(space());
        paper_members(&mut b);
        let ghost = space().parse_id("77777").unwrap();
        b.add_joiner(space().parse_id("10261").unwrap(), ghost, 0);
        b.build(ConstantDelay(1), 0);
    }
}
