//! Non-blocking UDP loopback runtime: a few event-loop threads, many
//! engines per thread, real datagrams.
//!
//! This is the deployment-shaped runtime. Each loop thread owns one
//! non-blocking [`UdpEndpoint`] and a partition of the engines; a poll(2)
//! readiness loop alternates between firing due [`TimerWheel`] deadlines,
//! draining arrivals, and flushing per-engine outbound queues. Sends never
//! block: a full outbound queue drops the datagram (counted as
//! backpressure) and the protocol's [`RetryPolicy`](hyperring_core::RetryPolicy)
//! absorbs it exactly as it absorbs injected packet loss.
//!
//! Delivery here is genuinely unreliable — datagrams can be dropped by
//! the injector, by backpressure, or (under extreme load) by the kernel —
//! so runs with loss must configure a retry policy. Quiescence is detected
//! by a supervisor that samples an activity counter once per settle
//! window: the run ends at the first sample at which every joiner is
//! `in_system`, nothing but failure-detector heartbeat (probe ticks,
//! `Ping`, `Pong`) has happened since the sample before, all outbound
//! queues are flushed, and no timer remains armed — except under a
//! failure detector, whose probe tick re-arms forever, so there the armed
//! count is not consulted. A run's wall is therefore a whole number of
//! settle windows (plus thread teardown), one to two of them after the
//! last activity.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hyperring_core::{
    EffectHandler, EngineDriver, JoinEngine, Message, NeighborTable, NodeInput, ProtocolOptions,
    RuntimeDriver, Status, TimerId, TraceSink, TraceStream,
};
use hyperring_id::{IdBuildHasher, IdSpace, NodeId};
use std::net::SocketAddr;

use crate::runtime::NetError;
use crate::timer::TimerWheel;
use crate::transport::{
    decode_plain, encode_plain, LossInjector, UdpEndpoint, WAIT_READ, WAIT_WRITE,
};

/// Tuning knobs for the UDP runtime.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Event-loop threads; engines are partitioned round-robin across
    /// them. Clamped to at least 1 and at most the node count.
    pub loop_threads: usize,
    /// Receive-side injected loss, in permille (0..=1000).
    pub loss_permille: u32,
    /// Seed for the deterministic loss injector (each loop thread derives
    /// its own stream from this).
    pub loss_seed: u64,
    /// Hard deadline for the whole run.
    pub quiesce_timeout: Duration,
    /// How long the network must stay silent before the run is declared
    /// quiescent, and how often the supervisor looks: the run ends on a
    /// multiple of this. Must comfortably exceed the retry timeout when
    /// loss is injected, or the supervisor can declare victory between a
    /// drop and its retransmission.
    pub settle: Duration,
    /// Per-engine outbound queue bound; sends beyond it are dropped and
    /// counted as backpressure.
    pub outbound_capacity: usize,
    /// Timer-wheel granularity in microseconds.
    pub tick_us: u64,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            loop_threads: 2,
            loss_permille: 0,
            loss_seed: 0x1d_2003,
            quiesce_timeout: Duration::from_secs(120),
            settle: Duration::from_millis(50),
            outbound_capacity: 1024,
            tick_us: 100,
        }
    }
}

/// What a [`UdpNetwork`] run did, summed over all loop threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct UdpRunStats {
    /// Datagrams written to the sockets.
    pub datagrams_sent: u64,
    /// Datagrams read from the sockets (including ones the injector then
    /// dropped).
    pub datagrams_received: u64,
    /// Bytes written to the sockets.
    pub bytes_sent: u64,
    /// Bytes read from the sockets.
    pub bytes_received: u64,
    /// Arrivals discarded by the loss injector.
    pub drops_injected: u64,
    /// Sends discarded because the engine's outbound queue was full.
    pub backpressure_drops: u64,
    /// Timer deadlines fired.
    pub timers_fired: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl UdpRunStats {
    fn absorb(&mut self, other: &UdpRunStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.drops_injected += other.drops_injected;
        self.backpressure_drops += other.backpressure_drops;
        self.timers_fired += other.timers_fired;
    }
}

/// One engine hosted on a loop thread.
struct Slot {
    driver: EngineDriver,
    outbound: VecDeque<(SocketAddr, Vec<u8>)>,
}

/// Shared run state the supervisor watches.
struct Shared {
    /// Joins not yet `in_system`.
    joining: AtomicI64,
    /// Bumped on every delivery, timer fire, and send that is not
    /// failure-detector heartbeat (see [`is_heartbeat`]); the supervisor
    /// detects quiescence as "unchanged for the settle window".
    activity: AtomicU64,
    /// Raised by the supervisor once the joins have quiesced: every loop
    /// thread crash-fails its victims.
    kill: AtomicBool,
    /// Set by the supervisor (or by a thread hitting a fatal socket
    /// error); loop threads drain and exit.
    shutdown: AtomicBool,
}

/// A detector's `Ping`/`Pong` exchange never stops, so it must not count
/// as progress; the repair traffic it triggers still does.
fn is_heartbeat(msg: &Message) -> bool {
    matches!(msg, Message::Ping | Message::Pong)
}

/// Per-thread gauges the supervisor reads.
struct Gauges {
    /// Timers currently armed in this thread's wheel.
    armed: AtomicU64,
    /// Datagrams queued but not yet written.
    pending_out: AtomicU64,
}

/// [`EffectHandler`] adapter for one engine on a loop thread: sends are
/// encoded and queued on the engine's outbound queue, timers armed on the
/// thread's shared wheel.
struct LoopHandler<'a> {
    space: IdSpace,
    me: NodeId,
    slot: usize,
    now_us: u64,
    routes: &'a HashMap<NodeId, SocketAddr, IdBuildHasher>,
    outbound: &'a mut VecDeque<(SocketAddr, Vec<u8>)>,
    capacity: usize,
    wheel: &'a mut TimerWheel<(usize, TimerId)>,
    stats: &'a mut UdpRunStats,
    error: &'a mut Option<NetError>,
    activity: &'a AtomicU64,
}

impl EffectHandler for LoopHandler<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let Some(&addr) = self.routes.get(&to) else {
            self.error.get_or_insert(NetError::UnknownDestination(to));
            return;
        };
        if !is_heartbeat(&msg) {
            self.activity.fetch_add(1, Ordering::SeqCst);
        }
        if self.outbound.len() >= self.capacity {
            // Backpressure: drop rather than block the loop or grow
            // without bound; the retry policy treats it as loss.
            self.stats.backpressure_drops += 1;
            return;
        }
        let mut dgram = Vec::with_capacity(64);
        encode_plain(&self.space, to, self.me, &msg, &mut dgram);
        self.outbound.push_back((addr, dgram));
    }

    fn set_timer(&mut self, id: TimerId, delay_hint: u64) {
        self.wheel.arm((self.slot, id), self.now_us + delay_hint);
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.wheel.cancel(&(self.slot, id));
    }
}

impl RuntimeDriver for LoopHandler<'_> {
    fn now_us(&self) -> u64 {
        self.now_us
    }
}

/// A network of protocol engines multiplexed onto non-blocking loopback
/// UDP sockets.
///
/// Construct with the initial members' tables, tune with
/// [`with_config`](Self::with_config), then call
/// [`run_joins`](Self::run_joins); the call blocks until quiescence and
/// returns all final tables (members first, then joiners in the given
/// order) together with transport statistics.
pub struct UdpNetwork {
    space: IdSpace,
    opts: ProtocolOptions,
    members: Vec<NeighborTable>,
    config: UdpConfig,
    trace: Option<Arc<Mutex<TraceStream>>>,
}

impl UdpNetwork {
    /// Creates a network over `space` whose initial members own `members`
    /// (consistent) tables.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(space: IdSpace, opts: ProtocolOptions, members: Vec<NeighborTable>) -> Self {
        assert!(!members.is_empty(), "network needs at least one member");
        UdpNetwork {
            space,
            opts,
            members,
            config: UdpConfig::default(),
            trace: None,
        }
    }

    /// Replaces the default [`UdpConfig`].
    pub fn with_config(mut self, config: UdpConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a [`TraceSink`] shared by every loop thread. Timestamps
    /// are wall-clock microseconds since the run started. Implies
    /// [`ProtocolOptions::trace`].
    pub fn with_trace(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.opts = self.opts.with_trace();
        self.trace = Some(Arc::new(Mutex::new(TraceStream::new(sink))));
        self
    }

    /// Runs all `(joiner, gateway)` joins concurrently over real loopback
    /// sockets and returns every node's final table plus run statistics.
    ///
    /// # Errors
    ///
    /// [`NetError::DuplicateNode`] / [`NetError::UnknownGateway`] for
    /// configuration mistakes; [`NetError::Socket`] for bind/IO failures;
    /// [`NetError::QuiesceTimeout`] if the run exceeds
    /// [`UdpConfig::quiesce_timeout`] (under heavy injected loss this
    /// usually means the retry budget or settle window is too small);
    /// [`NetError::NodePanicked`] if a loop thread panicked.
    pub fn run_joins(
        self,
        joiners: &[(NodeId, NodeId)],
    ) -> Result<(Vec<NeighborTable>, UdpRunStats), NetError> {
        self.run_crash_scenario(joiners, &[], Duration::ZERO)
    }

    /// Runs all joins to quiescence, then **kills** the `kills` nodes —
    /// their engines crash in place with no goodbye traffic and whatever
    /// they had queued is discarded — and lets the survivors run for
    /// `grace` wall-clock time so their failure detectors (configure one
    /// via [`ProtocolOptions::with_failure_detector`]) can evict the dead
    /// and repair their tables. Returns the survivors' final tables in
    /// roster order (crash-churn extension).
    ///
    /// # Errors
    ///
    /// Everything [`run_joins`](Self::run_joins) reports, plus
    /// [`NetError::UnknownDestination`] when a kill target is neither a
    /// member nor a joiner (reported before any socket is bound).
    pub fn run_crash_scenario(
        self,
        joiners: &[(NodeId, NodeId)],
        kills: &[NodeId],
        grace: Duration,
    ) -> Result<(Vec<NeighborTable>, UdpRunStats), NetError> {
        let n_nodes = self.members.len() + joiners.len();
        let n_threads = self.config.loop_threads.clamp(1, n_nodes);

        // Validate the roster before any socket is bound.
        let mut known: HashMap<NodeId, ()> = HashMap::with_capacity(n_nodes);
        let member_ids: Vec<NodeId> = self.members.iter().map(|t| t.owner()).collect();
        for id in member_ids.iter().chain(joiners.iter().map(|(id, _)| id)) {
            if known.insert(*id, ()).is_some() {
                return Err(NetError::DuplicateNode(*id));
            }
        }
        for (_, gateway) in joiners {
            if !known.contains_key(gateway) {
                return Err(NetError::UnknownGateway(*gateway));
            }
        }
        for id in kills {
            if !known.contains_key(id) {
                return Err(NetError::UnknownDestination(*id));
            }
        }

        // Bind one endpoint per loop thread, then build the global route
        // table: node -> owning thread's socket address. Nodes are dealt
        // round-robin so member and joiner load spreads evenly.
        let mut endpoints = Vec::with_capacity(n_threads);
        let mut addrs = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let ep = UdpEndpoint::bind()?;
            addrs.push(ep.local_addr()?);
            endpoints.push(ep);
        }
        let mut routes: HashMap<NodeId, SocketAddr, IdBuildHasher> =
            HashMap::with_capacity_and_hasher(n_nodes, IdBuildHasher::default());
        let mut partitions: Vec<Vec<(NodeId, Option<NodeId>)>> = vec![Vec::new(); n_threads];
        let roster = member_ids
            .iter()
            .map(|&id| (id, None))
            .chain(joiners.iter().map(|&(id, gw)| (id, Some(gw))));
        for (i, (id, gw)) in roster.enumerate() {
            routes.insert(id, addrs[i % n_threads]);
            partitions[i % n_threads].push((id, gw));
        }
        let routes = Arc::new(routes);

        let shared = Arc::new(Shared {
            joining: AtomicI64::new(joiners.len() as i64),
            activity: AtomicU64::new(0),
            kill: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let gauges: Arc<Vec<Gauges>> = Arc::new(
            (0..n_threads)
                .map(|_| Gauges {
                    armed: AtomicU64::new(0),
                    pending_out: AtomicU64::new(0),
                })
                .collect(),
        );
        let fd_configured = self.opts.failure_detector().is_some();

        let mut member_tables: HashMap<NodeId, NeighborTable> =
            self.members.into_iter().map(|t| (t.owner(), t)).collect();

        let epoch = Instant::now();
        let mut handles = Vec::with_capacity(n_threads);
        for (t, (endpoint, roster)) in endpoints.into_iter().zip(partitions).enumerate() {
            // Materialize this thread's engines in partition order.
            let mut slots = Vec::with_capacity(roster.len());
            let mut starts = Vec::new();
            let mut victims = Vec::new();
            for (s, (id, gw)) in roster.iter().enumerate() {
                if kills.contains(id) {
                    victims.push(s);
                }
                let engine = match gw {
                    None => {
                        let table = member_tables.remove(id).expect("member table");
                        JoinEngine::new_member(self.space, self.opts, table)
                    }
                    Some(gw) => {
                        starts.push((s, *gw));
                        JoinEngine::new_joiner(self.space, self.opts, *id)
                    }
                };
                slots.push(Slot {
                    driver: EngineDriver::new(engine),
                    outbound: VecDeque::new(),
                });
            }
            handles.push(thread::spawn({
                let space = self.space;
                let routes = Arc::clone(&routes);
                let shared = Arc::clone(&shared);
                let gauges = Arc::clone(&gauges);
                let trace = self.trace.clone();
                let config = self.config.clone();
                move || {
                    run_loop(
                        space, endpoint, slots, starts, victims, routes, shared, gauges, t, trace,
                        config, epoch,
                    )
                }
            }));
        }

        // Supervise: one look per settle window; quiescent at the first
        // look that finds no progress since the look before. The run so
        // ends on a window boundary, one to two windows after its last
        // activity: its wall says which window the burst ended in, not how
        // many milliseconds of CPU a shared host gave it, and no third
        // thread wakes beside the loops while they are busy.
        let deadline = epoch + self.config.quiesce_timeout;
        let window = self.config.settle.max(Duration::from_millis(1));
        let mut last_activity = 0;
        // Breaks with the unsent datagram count if the deadline passed.
        let timed_out = loop {
            thread::sleep(window);
            let act = shared.activity.load(Ordering::SeqCst);
            let quiet = act == last_activity;
            last_activity = act;
            if shared.shutdown.load(Ordering::SeqCst) {
                break None; // a thread hit a fatal error and rang the bell
            }
            let joining = shared.joining.load(Ordering::SeqCst);
            let armed: u64 = gauges.iter().map(|g| g.armed.load(Ordering::SeqCst)).sum();
            let pending: u64 = gauges
                .iter()
                .map(|g| g.pending_out.load(Ordering::SeqCst))
                .sum();
            if joining <= 0 && pending == 0 && quiet && (fd_configured || armed == 0) {
                // Crash phase, bounded by time rather than by quiescence:
                // the victims fall silent and the survivors get `grace` to
                // detect, evict and repair.
                if !kills.is_empty() {
                    shared.kill.store(true, Ordering::SeqCst);
                    thread::sleep(grace);
                }
                break None;
            }
            if Instant::now() >= deadline {
                break Some(pending);
            }
        };
        shared.shutdown.store(true, Ordering::SeqCst);

        let mut engines: HashMap<NodeId, JoinEngine> = HashMap::with_capacity(n_nodes);
        let mut stats = UdpRunStats::default();
        let mut first_error = None;
        for h in handles {
            match h.join() {
                Ok((thread_engines, thread_stats, err)) => {
                    stats.absorb(&thread_stats);
                    if let Some(e) = err {
                        first_error.get_or_insert(e);
                    }
                    for (id, engine) in thread_engines {
                        engines.insert(id, engine);
                    }
                }
                Err(_) => {
                    first_error.get_or_insert(NetError::NodePanicked);
                }
            }
        }
        stats.wall = epoch.elapsed();
        if let Some(stream) = &self.trace {
            if let Ok(mut stream) = stream.lock() {
                stream.flush();
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        if let Some(unsent) = timed_out {
            return Err(NetError::QuiesceTimeout {
                in_flight: unsent as i64,
                joining: shared.joining.load(Ordering::SeqCst),
            });
        }

        let mut tables = Vec::with_capacity(n_nodes);
        for id in member_ids.iter().chain(joiners.iter().map(|(id, _)| id)) {
            let engine = engines.get(id).ok_or(NetError::NodePanicked)?;
            if engine.status() != Status::Crashed {
                tables.push(engine.table().clone());
            }
        }
        Ok((tables, stats))
    }
}

/// Feeds one input through a slot's driver with split borrows on the
/// thread state, and keeps the supervisor's counters: one join fewer when
/// the node enters the system, one more activity unless the input was
/// failure-detector heartbeat.
#[allow(clippy::too_many_arguments)]
fn drive_slot(
    space: IdSpace,
    slots: &mut [Slot],
    s: usize,
    input: NodeInput,
    now_us: u64,
    routes: &HashMap<NodeId, SocketAddr, IdBuildHasher>,
    capacity: usize,
    wheel: &mut TimerWheel<(usize, TimerId)>,
    stats: &mut UdpRunStats,
    error: &mut Option<NetError>,
    trace: &Option<Arc<Mutex<TraceStream>>>,
    shared: &Shared,
) {
    let progress = match &input {
        NodeInput::Deliver { msg, .. } => !is_heartbeat(msg),
        NodeInput::TimerFired(id) => !matches!(id, TimerId::FdProbe { .. }),
        NodeInput::StartFailureDetector => false,
        NodeInput::StartJoin { .. } | NodeInput::BeginLeave => true,
    };
    let Slot { driver, outbound } = &mut slots[s];
    let mut handler = LoopHandler {
        space,
        me: driver.engine().id(),
        slot: s,
        now_us,
        routes,
        outbound,
        capacity,
        wheel,
        stats,
        error,
        activity: &shared.activity,
    };
    let report = match trace.as_ref().map(|t| t.lock()) {
        Some(Ok(mut stream)) => driver.drive(input, &mut handler, Some(&mut stream)),
        _ => driver.drive(input, &mut handler, None),
    };
    if report.entered_system {
        shared.joining.fetch_sub(1, Ordering::SeqCst);
    }
    if progress {
        shared.activity.fetch_add(1, Ordering::SeqCst);
    }
}

/// The event loop one thread runs: timers, receives, flushes, poll(2).
#[allow(clippy::too_many_arguments)]
fn run_loop(
    space: IdSpace,
    endpoint: UdpEndpoint,
    mut slots: Vec<Slot>,
    starts: Vec<(usize, NodeId)>,
    mut victims: Vec<usize>,
    routes: Arc<HashMap<NodeId, SocketAddr, IdBuildHasher>>,
    shared: Arc<Shared>,
    gauges: Arc<Vec<Gauges>>,
    me: usize,
    trace: Option<Arc<Mutex<TraceStream>>>,
    config: UdpConfig,
    epoch: Instant,
) -> (Vec<(NodeId, JoinEngine)>, UdpRunStats, Option<NetError>) {
    let mut wheel: TimerWheel<(usize, TimerId)> =
        TimerWheel::new(config.tick_us, epoch.elapsed().as_micros() as u64);
    let mut loss = LossInjector::new(
        config.loss_seed.wrapping_add(me as u64), //
        config.loss_permille,
    );
    let mut stats = UdpRunStats::default();
    let mut error: Option<NetError> = None;
    // An engine index for datagram dispatch; the `to` prefix addresses a
    // node, not a socket, since many engines share this endpoint.
    let index: HashMap<NodeId, usize, IdBuildHasher> = slots
        .iter()
        .enumerate()
        .map(|(s, slot)| (slot.driver.engine().id(), s))
        .collect();
    let mut buf = vec![0u8; 64 * 1024];

    // Arm failure detectors (a no-op unless configured), then fire every
    // join "at the same time", as the paper's waves do.
    for s in 0..slots.len() {
        let now = epoch.elapsed().as_micros() as u64;
        drive_slot(
            space,
            &mut slots,
            s,
            NodeInput::StartFailureDetector,
            now,
            &routes,
            config.outbound_capacity,
            &mut wheel,
            &mut stats,
            &mut error,
            &trace,
            &shared,
        );
    }
    for (s, gateway) in starts {
        let now = epoch.elapsed().as_micros() as u64;
        drive_slot(
            space,
            &mut slots,
            s,
            NodeInput::StartJoin { gateway },
            now,
            &routes,
            config.outbound_capacity,
            &mut wheel,
            &mut stats,
            &mut error,
            &trace,
            &shared,
        );
    }

    'main: loop {
        // 0. Crash-fail this thread's victims once the supervisor says
        // so: a crashed engine drops every later input, and what it had
        // queued dies with it.
        if !victims.is_empty() && shared.kill.load(Ordering::SeqCst) {
            for s in victims.drain(..) {
                slots[s].driver.crash();
                slots[s].outbound.clear();
            }
        }

        // 1. Fire due timers.
        let now = epoch.elapsed().as_micros() as u64;
        for key in wheel.advance(now) {
            let (s, id) = key;
            stats.timers_fired += 1;
            drive_slot(
                space,
                &mut slots,
                s,
                NodeInput::TimerFired(id),
                now,
                &routes,
                config.outbound_capacity,
                &mut wheel,
                &mut stats,
                &mut error,
                &trace,
                &shared,
            );
        }

        // 2. Drain arrivals.
        loop {
            match endpoint.try_recv(&mut buf) {
                Ok(Some((n, _))) => {
                    stats.datagrams_received += 1;
                    stats.bytes_received += n as u64;
                    if loss.drop_next() {
                        stats.drops_injected += 1;
                        continue;
                    }
                    let Ok((to, from, msg)) = decode_plain(&space, &buf[..n]) else {
                        continue; // malformed datagrams are dropped, not fatal
                    };
                    let Some(&s) = index.get(&to) else {
                        continue; // misrouted; not ours
                    };
                    let now = epoch.elapsed().as_micros() as u64;
                    drive_slot(
                        space,
                        &mut slots,
                        s,
                        NodeInput::Deliver { from, msg },
                        now,
                        &routes,
                        config.outbound_capacity,
                        &mut wheel,
                        &mut stats,
                        &mut error,
                        &trace,
                        &shared,
                    );
                }
                Ok(None) => break,
                Err(e) => {
                    error.get_or_insert(e.into());
                    shared.shutdown.store(true, Ordering::SeqCst);
                    break 'main;
                }
            }
        }

        // 3. Flush outbound queues until the socket pushes back.
        let mut blocked = false;
        let mut pending: u64 = 0;
        for slot in &mut slots {
            while let Some((addr, dgram)) = slot.outbound.front() {
                if blocked {
                    break;
                }
                match endpoint.try_send(dgram, *addr) {
                    Ok(true) => {
                        stats.datagrams_sent += 1;
                        stats.bytes_sent += dgram.len() as u64;
                        slot.outbound.pop_front();
                    }
                    Ok(false) => {
                        blocked = true;
                    }
                    Err(e) => {
                        error.get_or_insert(e.into());
                        shared.shutdown.store(true, Ordering::SeqCst);
                        break 'main;
                    }
                }
            }
            pending += slot.outbound.len() as u64;
        }

        // 4. Publish gauges and honor shutdown once everything is flushed
        // (or can't be: a blocked socket during shutdown is abandoned).
        gauges[me].armed.store(wheel.len() as u64, Ordering::SeqCst);
        gauges[me].pending_out.store(pending, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) && (pending == 0 || blocked) {
            break;
        }

        // 5. Sleep on readiness until the nearest timer deadline.
        let now = epoch.elapsed().as_micros() as u64;
        let timeout_us = match wheel.next_deadline_us() {
            Some(at) => at.saturating_sub(now).min(5_000),
            None => 5_000,
        };
        if timeout_us > 0 {
            let events = WAIT_READ | if pending > 0 { WAIT_WRITE } else { 0 };
            if let Err(e) = endpoint.wait(events, Duration::from_micros(timeout_us)) {
                error.get_or_insert(e.into());
                shared.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        }
    }

    let engines = slots
        .into_iter()
        .map(|slot| {
            let engine = slot.driver.into_engine();
            (engine.id(), engine)
        })
        .collect();
    (engines, stats, error)
}
