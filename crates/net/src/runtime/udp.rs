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
//! so runs with loss must configure a retry policy.
//!
//! # When a run ends
//!
//! Each loop thread publishes counters in its own cache-line-aligned
//! [`Gauges`]: monotone counts of datagrams it set out to send, of those
//! the socket refused, and of datagrams it read and handled, beside the
//! depth of its outbound queues and the number of timers armed on its
//! wheel. A supervisor collects them every millisecond. The run ends at
//! the first pair of consecutive collects that are identical, count every
//! written datagram as handled, show no queued datagram and no armed timer,
//! and find every joiner `in_system`. Those two collects fix one instant
//! at which nothing was in flight, unhandled or queued, so nothing could
//! ever happen again (Mattern's counting method; the argument is written
//! out at [`exactly_quiescent`]). A lossless wave therefore ends about a
//! millisecond after its last datagram is handled.
//!
//! Two kinds of run never satisfy that rule, and fall back to a timed
//! silence in the same supervisor loop ([`window_quiescent`]): runs with
//! a failure detector, whose probe tick re-arms and whose `Ping`/`Pong`
//! never stop, and runs in which the kernel dropped a datagram, so the
//! sent and handled counts never meet. Once per settle window the
//! supervisor looks at a progress count that leaves out failure-detector
//! heartbeat (probe ticks, `Ping`, `Pong`); the run ends at the first look
//! at which it has not moved since the look before, every joiner is
//! `in_system`, all outbound queues are flushed and, without a detector,
//! no timer is armed. Such a run lasts a whole number of settle windows,
//! one to two of them after its last activity.

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
    /// The fallback window: how long the network must stay silent before
    /// a run that the exact rule cannot end is declared quiescent, and how
    /// often the supervisor looks for that silence. Only runs with a
    /// failure detector, or in which the kernel dropped a datagram, end on
    /// it (on a multiple of this); every other run ends at exact
    /// quiescence, whatever this is. Must comfortably exceed the retry
    /// timeout when loss is injected, or the window rule can declare
    /// victory between a drop and its retransmission.
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
    /// Wall-clock duration of the run, thread start-up and teardown
    /// included. Without a failure detector and without kernel drops it
    /// ends within a millisecond or two of the last datagram handled;
    /// otherwise on a whole number of [`UdpConfig::settle`] windows.
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

/// How often the supervisor collects the gauges when no failure detector
/// runs.
const TICK: Duration = Duration::from_millis(1);

/// One loop thread's counters for the supervisor. Only that thread writes
/// them, and each thread's sit on their own pair of cache lines (the unit
/// adjacent-line prefetchers pull), so no write contends with another
/// loop's.
#[derive(Default)]
#[repr(align(128))]
struct Gauges {
    /// Monotone: datagrams the flushes set out to write, raised by each
    /// batch before its first `try_send`.
    sent: AtomicU64,
    /// Monotone: the part of `sent` the socket refused. A refused datagram
    /// stays queued and is counted in `sent` again by the flush that
    /// retries it.
    refused: AtomicU64,
    /// Monotone: datagrams read, whatever became of them (delivered,
    /// dropped by the injector, malformed or misrouted). Stored after
    /// `armed` and `pending_out`.
    handled: AtomicU64,
    /// Monotone: deliveries, timer fires and sends that are not
    /// failure-detector heartbeat (see [`is_heartbeat`]), the window
    /// rule's measure of progress.
    activity: AtomicU64,
    /// Timers currently armed in this thread's wheel.
    armed: AtomicU64,
    /// Datagrams queued but not yet written.
    pending_out: AtomicU64,
}

/// A loop thread's own running counts, published to its [`Gauges`] once
/// per pass of the loop.
#[derive(Default)]
struct Tally {
    /// Datagrams on this thread's outbound queues.
    queued: u64,
    /// See [`Gauges::activity`].
    activity: u64,
}

/// One supervisor look: every thread's [`Gauges`] summed, and the joins
/// not yet `in_system`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Collect {
    sent: u64,
    refused: u64,
    handled: u64,
    activity: u64,
    armed: u64,
    pending_out: u64,
    joining: i64,
}

impl Collect {
    fn read(gauges: &[Gauges], joining: &AtomicI64) -> Collect {
        let mut c = Collect::default();
        for g in gauges {
            // The counters before the gauges: `armed` and `pending_out`
            // read after `handled` are at least as new as the pass that
            // stored it.
            c.sent += g.sent.load(Ordering::SeqCst);
            c.refused += g.refused.load(Ordering::SeqCst);
            c.handled += g.handled.load(Ordering::SeqCst);
            c.activity += g.activity.load(Ordering::SeqCst);
            c.armed += g.armed.load(Ordering::SeqCst);
            c.pending_out += g.pending_out.load(Ordering::SeqCst);
        }
        c.joining = joining.load(Ordering::SeqCst);
        c
    }
}

/// The exact rule: whether two consecutive collects, `before` then `now`,
/// prove the run quiescent. Never under a failure detector, whose
/// heartbeat does not stop.
///
/// Why it is sound. The loop threads keep two ordering rules: a flush
/// raises `sent` by its whole batch before its first `try_send` (and
/// counts what the socket refused after), and a pass stores `handled`
/// after the `armed` and `pending_out` its handling produced. The
/// supervisor reads each thread's `handled` before its `armed` and
/// `pending_out`.
///
/// 1. A monotone counter that reads the same in both collects held that
///    value from its first read to its second. All of them therefore held
///    their values together over the whole gap between the collects: one
///    consistent cut (Mattern's counting method).
/// 2. At any instant of that gap, handled ≤ read ≤ written ≤ sent −
///    refused, summed over the threads: a datagram is counted handled
///    only after it is read, is read only after it is written, and is
///    counted in `sent` before it is written (until the socket's refusal
///    is counted back). Equality makes every step equal: no datagram is
///    in a socket buffer, read but not yet counted, or about to be
///    written, and, since the counts do not move, none is read or written
///    during the gap. (Only the run's own endpoints write to its
///    loopback sockets.)
/// 3. The `armed` and `pending_out` of the first collect were stored by a
///    pass no older than the `handled` it read, and that thread read
///    nothing after that pass up to the gap (by 2). At 0, its wheel and
///    queues were empty at that store and nothing has refilled them: a
///    thread acts only on a datagram, a due timer or a queued send.
///
/// So from the gap on, no thread has anything to do and nothing will
/// arrive: the run is over, and with `joining` at 0 every join is done.
fn exactly_quiescent(before: &Collect, now: &Collect, detector: bool) -> bool {
    !detector
        && before == now
        && now.sent == now.handled + now.refused
        && now.pending_out == 0
        && now.armed == 0
        && now.joining <= 0
}

/// The window rule, the fallback for runs the exact rule cannot end:
/// whether the look `now`, one settle window after the look that read
/// `activity_before`, finds the run quiescent. Without a detector the
/// wheel must be empty too; under one the probe tick re-arms forever, so
/// the armed count is not consulted.
fn window_quiescent(now: &Collect, activity_before: u64, detector: bool) -> bool {
    now.joining <= 0
        && now.pending_out == 0
        && now.activity == activity_before
        && (detector || now.armed == 0)
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
    tally: &'a mut Tally,
}

impl EffectHandler for LoopHandler<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let Some(&addr) = self.routes.get(&to) else {
            self.error.get_or_insert(NetError::UnknownDestination(to));
            return;
        };
        if !is_heartbeat(&msg) {
            self.tally.activity += 1;
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
        self.tally.queued += 1;
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
        let (engines, stats) = self.run(joiners, kills, grace)?;
        let tables = engines
            .iter()
            .filter(|e| e.status() != Status::Crashed)
            .map(|e| e.table().clone())
            .collect();
        Ok((tables, stats))
    }

    /// [`run_crash_scenario`](Self::run_crash_scenario), returning every
    /// engine, the killed ones too, in roster order.
    fn run(
        self,
        joiners: &[(NodeId, NodeId)],
        kills: &[NodeId],
        grace: Duration,
    ) -> Result<(Vec<JoinEngine>, UdpRunStats), NetError> {
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
            kill: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let gauges: Arc<Vec<Gauges>> =
            Arc::new((0..n_threads).map(|_| Gauges::default()).collect());
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

        // Supervise: collect every `TICK` and end at the first pair of
        // collects the exact rule accepts; look for a window of silence
        // once per settle window, for the runs it never accepts. Under a
        // failure detector only the window rule can end the run, so the
        // supervisor sleeps a whole window between looks there, as no
        // third thread need wake beside the loops.
        let deadline = epoch + self.config.quiesce_timeout;
        let window = self.config.settle.max(TICK);
        let tick = if fd_configured { window } else { TICK };
        let mut next_look = Instant::now() + window;
        let mut before: Option<Collect> = None;
        let mut activity_before = 0;
        // Breaks with the unsent datagram count if the deadline passed.
        let timed_out = loop {
            thread::sleep(tick);
            if shared.shutdown.load(Ordering::SeqCst) {
                break None; // a thread hit a fatal error and rang the bell
            }
            let now = Collect::read(&gauges, &shared.joining);
            let mut quiescent = before.is_some_and(|b| exactly_quiescent(&b, &now, fd_configured));
            before = Some(now);
            if Instant::now() >= next_look {
                quiescent |= window_quiescent(&now, activity_before, fd_configured);
                activity_before = now.activity;
                next_look = Instant::now() + window;
            }
            if quiescent {
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
                break Some(now.pending_out);
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

        let roster = member_ids.iter().chain(joiners.iter().map(|(id, _)| id));
        let engines = roster
            .map(|id| engines.remove(id).ok_or(NetError::NodePanicked))
            .collect::<Result<_, _>>()?;
        Ok((engines, stats))
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
    tally: &mut Tally,
    trace: &Option<Arc<Mutex<TraceStream>>>,
    shared: &Shared,
) {
    let progress = match &input {
        NodeInput::Deliver { msg, .. } => !is_heartbeat(msg),
        NodeInput::TimerFired(id) => !matches!(id, TimerId::FdProbe { .. }),
        NodeInput::StartFailureDetector | NodeInput::Crash => false,
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
        tally,
    };
    let report = match trace.as_ref().map(|t| t.lock()) {
        Some(Ok(mut stream)) => driver.drive(input, &mut handler, Some(&mut stream)),
        _ => driver.drive(input, &mut handler, None),
    };
    if report.entered_system {
        shared.joining.fetch_sub(1, Ordering::SeqCst);
    }
    if progress {
        handler.tally.activity += 1;
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
    let mut tally = Tally::default();
    // The monotone counts behind `Gauges::sent` and `Gauges::refused`.
    let (mut sent, mut refused) = (0u64, 0u64);
    let gauges = &gauges[me];
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
            &mut tally,
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
            &mut tally,
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
                tally.queued -= slots[s].outbound.len() as u64;
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
                &mut tally,
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
                        &mut tally,
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

        // 3. Flush outbound queues until the socket pushes back. The
        // whole batch counts as sent before the first datagram is written,
        // so no datagram can be handled before it is counted (see
        // `exactly_quiescent`); what the socket refuses is counted back.
        if tally.queued > 0 {
            sent += tally.queued;
            gauges.sent.store(sent, Ordering::SeqCst);
        }
        let mut blocked = false;
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
                        tally.queued -= 1;
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
        }
        if tally.queued > 0 {
            refused += tally.queued;
            gauges.refused.store(refused, Ordering::SeqCst);
        }

        // 4. Publish gauges, `handled` last (see `exactly_quiescent`), and
        // honor shutdown once everything is flushed (or can't be: a
        // blocked socket during shutdown is abandoned).
        gauges.armed.store(wheel.len() as u64, Ordering::SeqCst);
        gauges.pending_out.store(tally.queued, Ordering::SeqCst);
        gauges.activity.store(tally.activity, Ordering::SeqCst);
        gauges
            .handled
            .store(stats.datagrams_received, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) && (tally.queued == 0 || blocked) {
            break;
        }

        // 5. Sleep on readiness until the nearest timer deadline.
        let now = epoch.elapsed().as_micros() as u64;
        let timeout_us = match wheel.next_deadline_us() {
            Some(at) => at.saturating_sub(now).min(5_000),
            None => 5_000,
        };
        if timeout_us > 0 {
            let events = WAIT_READ | if tally.queued > 0 { WAIT_WRITE } else { 0 };
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

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_core::{build_consistent_tables, check_consistency, RetryPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A collect of a finished run: every written datagram handled, two of
    /// them after a refusal, nothing queued or armed, every join done.
    fn done() -> Collect {
        Collect {
            sent: 12,
            refused: 2,
            handled: 10,
            activity: 30,
            armed: 0,
            pending_out: 0,
            joining: 0,
        }
    }

    /// `done()` with one field changed must not end the run.
    fn not_quiescent(change: impl Fn(&mut Collect)) -> bool {
        let mut now = done();
        change(&mut now);
        !exactly_quiescent(&now, &now, false)
    }

    #[test]
    fn identical_quiet_collects_end_the_run() {
        assert!(exactly_quiescent(&done(), &done(), false));
    }

    #[test]
    fn collects_that_differ_do_not() {
        let before = Collect {
            activity: 29,
            ..done()
        };
        assert!(!exactly_quiescent(&before, &done(), false));
    }

    #[test]
    fn a_datagram_sent_and_not_handled_keeps_the_run_going() {
        assert!(not_quiescent(|c| c.handled -= 1));
        assert!(not_quiescent(|c| c.sent += 1));
    }

    #[test]
    fn refused_sends_count_only_once_written() {
        // Two datagrams were raised, refused and still wait in a queue:
        // sent − refused = 10 are written and handled, the queue is not
        // empty.
        assert!(not_quiescent(|c| {
            c.sent = 12;
            c.handled = 10;
            c.pending_out = 2;
        }));
        // Counting the refusals as handled datagrams is no quiescence
        // either: those two were never written.
        assert!(not_quiescent(|c| c.handled = 12));
    }

    #[test]
    fn queued_datagrams_keep_the_run_going() {
        assert!(not_quiescent(|c| c.pending_out = 1));
    }

    #[test]
    fn armed_timers_keep_the_run_going() {
        assert!(not_quiescent(|c| c.armed = 1));
    }

    #[test]
    fn unfinished_joins_keep_the_run_going() {
        assert!(not_quiescent(|c| c.joining = 1));
    }

    #[test]
    fn a_failure_detector_is_never_exactly_quiescent() {
        assert!(!exactly_quiescent(&done(), &done(), true));
    }

    #[test]
    fn the_window_rule_wants_a_silent_window() {
        let now = Collect { armed: 3, ..done() };
        assert!(window_quiescent(&now, now.activity, true));
        assert!(!window_quiescent(&now, now.activity, false));
        assert!(!window_quiescent(&now, now.activity - 1, true));
        assert!(window_quiescent(&done(), done().activity, false));
    }

    /// Twenty small waves under injected loss and outbound backpressure,
    /// with a fallback window far longer than any of them: every one must
    /// end with every joiner `in_system`, every table consistent and no
    /// retry timer live, i.e. the exact rule never ended a run early.
    #[test]
    fn exact_quiescence_never_ends_a_lossy_wave_early() {
        let space = IdSpace::new(4, 5).unwrap();
        let (mut injected, mut backpressure) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids = std::collections::BTreeSet::new();
            while ids.len() < 40 {
                ids.insert(space.random_id(&mut rng));
            }
            let ids: Vec<NodeId> = ids.into_iter().collect();
            let (v, w) = ids.split_at(16);
            let joiners: Vec<(NodeId, NodeId)> = w
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, v[i % v.len()]))
                .collect();
            let opts = ProtocolOptions::new().with_retry(RetryPolicy {
                timeout_us: 20_000,
                max_retries: 50,
                ..RetryPolicy::default()
            });
            let settle = Duration::from_secs(2);
            let config = UdpConfig {
                loop_threads: 2,
                loss_permille: 30,
                loss_seed: seed,
                outbound_capacity: 4,
                settle,
                quiesce_timeout: Duration::from_secs(60),
                ..UdpConfig::default()
            };
            let (engines, stats) = UdpNetwork::new(space, opts, build_consistent_tables(space, v))
                .with_config(config)
                .run(&joiners, &[], Duration::ZERO)
                .expect("wave quiesces");
            injected += stats.drops_injected;
            backpressure += stats.backpressure_drops;
            assert!(
                engines.iter().all(|e| e.status() == Status::InSystem),
                "seed {seed}: a joiner is not in_system"
            );
            for e in &engines {
                let live: Vec<TimerId> = e.live_timers().collect();
                assert!(live.is_empty(), "seed {seed}: {} holds {live:?}", e.id());
            }
            let tables: Vec<NeighborTable> = engines.iter().map(|e| e.table().clone()).collect();
            let report = check_consistency(space, &tables);
            assert!(report.is_consistent(), "seed {seed}: {report}");
            eprintln!("seed {seed}: {:?}", stats.wall);
        }
        assert!(injected > 0, "loss was never exercised");
        assert!(backpressure > 0, "backpressure was never exercised");
    }
}
