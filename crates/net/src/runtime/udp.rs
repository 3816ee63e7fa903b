//! Non-blocking UDP loopback runtime: a few event-loop threads, many
//! engines per thread, real datagrams.
//!
//! This is the deployment-shaped runtime. Each loop thread owns one
//! non-blocking [`UdpEndpoint`], a partition of the engines and their
//! scheduled inputs; a poll(2) readiness loop alternates between driving
//! the due inputs, firing due [`TimerWheel`] deadlines, draining arrivals,
//! and flushing per-engine outbound queues. Sends never block: a full
//! outbound queue drops the datagram (counted as backpressure) and the
//! protocol's [`RetryPolicy`](hyperring_core::RetryPolicy) absorbs it
//! exactly as it absorbs injected packet loss.
//!
//! Delivery here is genuinely unreliable — datagrams can be dropped by
//! the injector, by backpressure, or (under extreme load) by the kernel —
//! so runs with loss must configure a retry policy.
//!
//! A thread's timers share one [`TimerWheel`], which despite its name is
//! the simulator's design: a heap of deadlines, a canceled or re-armed
//! timer's entry left stale until it reaches the head. Every request
//! arms a retry timer and its reply cancels it, so arming and canceling
//! are the hot operations and firing is rare: a lossless wave fires no
//! timer, a lossy one about one per lost datagram. The poll(2) timeout
//! is the heap's head, never later than the earliest live deadline.
//!
//! # When a run ends
//!
//! Each loop thread publishes counters in its own cache-line-aligned
//! [`Gauges`]: monotone counts of datagrams it set out to send, of those
//! the socket refused, and of datagrams it read and handled, beside the
//! depth of its outbound queues, the number of timers armed on its wheel,
//! of its scheduled inputs not yet driven and of its joiners neither
//! `in_system` nor crashed. A supervisor collects them every millisecond,
//! and one rule ([`quiescent`]) ends the run: nothing is pending (no
//! input, no queued datagram, no armed timer, no joiner) and two collects
//! are identical. When every written datagram has been handled, those are
//! two consecutive collects, which fix one instant at which nothing was
//! in flight, unhandled or queued, so nothing could ever happen again
//! (Mattern's counting method); a lossless wave therefore ends about a
//! millisecond after its last datagram is handled. When the counts do
//! not meet, the kernel lost the missing datagrams, no collect can prove
//! that instant, and the two collects are a settle window apart: such a
//! run ends on a whole number of windows.
//!
//! A run with a failure detector never quiesces, since its probe timer
//! is always armed. Like a simulated one, it ends at the instant it is
//! run to ([`UdpRun::run_until`]), its horizon.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hyperring_core::{
    EffectHandler, EngineDriver, JoinEngine, Message, NeighborTable, NodeInput, ProtocolOptions,
    Roster, RuntimeDriver, Status, TimerId, TraceSink, TraceStream,
};
use hyperring_id::{IdSpace, NodeId};
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
    /// Receive-side injected loss, in permille (0..=1000). The injector
    /// is deterministic, each loop thread with a fixed seed of its own.
    pub loss_permille: u32,
    /// Hard deadline: how long after its last scheduled input a run may
    /// go on, on the run clock, before it is declared stuck.
    pub quiesce_timeout: Duration,
    /// How far apart the two identical collects of a run in which the
    /// kernel dropped a datagram must be: such a run ends on a multiple of
    /// this, every other run ends at exact quiescence (or, with a failure
    /// detector, where it is run to), whatever this is. Must comfortably
    /// exceed the retry timeout when loss is injected, or a window can
    /// close between a drop and its retransmission.
    pub settle: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            loop_threads: 2,
            loss_permille: 0,
            quiesce_timeout: Duration::from_secs(120),
            settle: Duration::from_millis(50),
        }
    }
}

/// Seed of the deterministic loss injector.
const LOSS_SEED: u64 = 0x1d_2003;

/// Per-engine outbound queue bound; sends beyond it are dropped and
/// counted as backpressure.
const OUTBOUND_CAPACITY: usize = 1024;

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
    /// included and pauses left out: the run clock. A run ends within a
    /// millisecond or two of its last datagram handled; after kernel
    /// drops, on a whole number of [`UdpConfig::settle`] windows; with a
    /// failure detector, never by itself, so this is a little past the
    /// instant it was last run to.
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

/// How often the supervisor collects the gauges.
const TICK: Duration = Duration::from_millis(1);

/// Timer-wheel granularity in microseconds.
const WHEEL_TICK_US: u64 = 100;

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
    /// dropped by the injector, malformed or misrouted). Stored after the
    /// gauges below.
    handled: AtomicU64,
    /// Scheduled inputs not yet driven; it only falls. Stored before the
    /// thread starts, so it never reads 0 while an input waits.
    inputs: AtomicU64,
    /// Joiners neither `in_system` nor crashed; it only falls. Stored
    /// before the thread starts.
    joining: AtomicU64,
    /// Timers currently armed in this thread's wheel.
    armed: AtomicU64,
    /// Datagrams queued but not yet written.
    pending_out: AtomicU64,
}

/// One supervisor look: every thread's [`Gauges`] summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Collect {
    sent: u64,
    refused: u64,
    handled: u64,
    inputs: u64,
    armed: u64,
    pending_out: u64,
    joining: u64,
}

impl Collect {
    fn read(gauges: &[Gauges]) -> Collect {
        let mut c = Collect::default();
        for g in gauges {
            // The counters before the gauges: the gauges read after
            // `handled` are at least as new as the pass that stored it.
            c.sent += g.sent.load(Ordering::SeqCst);
            c.refused += g.refused.load(Ordering::SeqCst);
            c.handled += g.handled.load(Ordering::SeqCst);
            c.inputs += g.inputs.load(Ordering::SeqCst);
            c.armed += g.armed.load(Ordering::SeqCst);
            c.pending_out += g.pending_out.load(Ordering::SeqCst);
            c.joining += g.joining.load(Ordering::SeqCst);
        }
        c
    }
}

/// The one quiescence rule: whether the collect `now` ends the run.
/// `tick` is the collect a `TICK` before it; `look` is the previous
/// look's, given only when `now` is itself a look (once per settle
/// window). Nothing may be pending: no input, no queued datagram, no
/// armed timer, no joiner. And `now` must be identical to the collect it
/// is compared with: `tick` when every written datagram has been handled,
/// `look` otherwise.
///
/// Why the first case is sound. The loop threads keep two ordering
/// rules: a flush raises `sent` by its whole batch before its first
/// `try_send` (and counts what the socket refused after), and a pass
/// stores `handled` after the `inputs`, `armed` and `pending_out` its
/// handling produced. The supervisor reads each thread's `handled` before
/// those three.
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
/// 3. The `inputs`, `armed` and `pending_out` of the first collect were
///    stored by a pass no older than the `handled` it read (before a
///    thread's first pass they hold its starting state: its whole
///    schedule, an empty wheel, empty queues; at a resume, the state it
///    paused in), and that thread read nothing after that pass up to the
///    gap (by 2). At 0, its schedule, wheel and queues were empty at that
///    store and nothing has refilled them: a thread acts only on a
///    datagram, a scheduled input, a due timer or a queued send, and its
///    schedule only shrinks.
///
/// So from the gap on, no thread has anything to do and nothing will
/// arrive: the run is over, and with `joining` at 0 every join is done.
///
/// When the counts do not meet, the missing datagrams were lost in the
/// kernel (a loopback socket buffer overflowed) and 2 fails for good: no
/// pair of collects proves the cut. A settle window in which no counter
/// moved stands in for the proof ([`UdpConfig::settle`]). A failure
/// detector's probe timer is always armed, so no run with one is ever
/// quiescent.
fn quiescent(tick: &Collect, look: Option<&Collect>, now: &Collect) -> bool {
    let before = (now.sent == now.handled + now.refused)
        .then_some(tick)
        .or(look);
    before == Some(now)
        && now.inputs == 0
        && now.pending_out == 0
        && now.armed == 0
        && now.joining == 0
}

/// [`EffectHandler`] adapter for the engine in `slot` of a loop thread:
/// sends are encoded and queued on the slot's outbound queue, timers armed
/// on the thread's shared wheel.
struct LoopHandler<'a> {
    io: &'a mut LoopIo,
    me: NodeId,
    slot: usize,
    now_us: u64,
}

impl EffectHandler for LoopHandler<'_> {
    fn send(&mut self, to: NodeId, msg: Message) {
        let io = &mut *self.io;
        let Some(pos) = io.roster.position(&to) else {
            io.error.get_or_insert(NetError::UnknownDestination(to));
            return;
        };
        let addr = io.addrs[pos % io.addrs.len()];
        let outbound = &mut io.outbound[self.slot];
        if outbound.len() >= io.capacity {
            // Backpressure: drop rather than block the loop or grow
            // without bound; the retry policy treats it as loss.
            io.stats.backpressure_drops += 1;
            return;
        }
        let mut dgram = Vec::with_capacity(64);
        encode_plain(&io.space, to, self.me, &msg, &mut dgram);
        outbound.push_back((addr, dgram));
        io.queued += 1;
    }

    fn set_timer(&mut self, id: TimerId, delay_hint: u64) {
        self.io.wheel.arm((self.slot, id), self.now_us + delay_hint);
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.io.wheel.cancel(&(self.slot, id));
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
/// [`run_schedule`](Self::run_schedule) (or [`run_joins`](Self::run_joins)
/// for one join wave), which blocks until quiescence and returns the live
/// nodes' final tables together with transport statistics; or
/// [`start`](Self::start) a [`UdpRun`] that pauses where it is asked to.
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
    /// are microseconds on the run clock ([`UdpRun`]). Implies
    /// [`ProtocolOptions::trace`].
    pub fn with_trace(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.opts = self.opts.with_trace();
        self.trace = Some(Arc::new(Mutex::new(TraceStream::new(sink))));
        self
    }

    /// Runs all `(joiner, gateway)` joins concurrently over real loopback
    /// sockets: the [`run_schedule`](Self::run_schedule) with a
    /// `StartJoin` at 0 for each joiner.
    ///
    /// # Errors
    ///
    /// As [`run_schedule`](Self::run_schedule).
    pub fn run_joins(
        self,
        joiners: &[(NodeId, NodeId)],
    ) -> Result<(Vec<NeighborTable>, UdpRunStats), NetError> {
        let schedule: Vec<(u64, NodeId, NodeInput)> = joiners
            .iter()
            .map(|&(id, gateway)| (0, id, NodeInput::StartJoin { gateway }))
            .collect();
        self.run_schedule(&schedule)
    }

    /// [`start`](Self::start)s `schedule` and [`finish`](UdpRun::finish)es
    /// it. Returns the live (neither crashed nor departed) nodes' final
    /// tables in roster order: the members, then each node a `StartJoin`
    /// names, in schedule order.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start) and [`UdpRun::run_until`].
    pub fn run_schedule(
        self,
        schedule: &[(u64, NodeId, NodeInput)],
    ) -> Result<(Vec<NeighborTable>, UdpRunStats), NetError> {
        let mut run = self.start(schedule)?;
        let stats = run.finish()?;
        let live =
            (run.engines()).filter(|e| !matches!(e.status(), Status::Crashed | Status::Departed));
        Ok((live.map(|e| e.table().clone()).collect(), stats))
    }

    /// Validates `schedule` and binds the sockets, before any thread
    /// spawns; the returned run has not started. Each `(at, node, input)`
    /// is driven into `node` once the run clock reaches `at` µs
    /// (same-instant inputs keep their order). A `Crash` also discards
    /// what its node had queued.
    ///
    /// # Errors
    ///
    /// Before any socket is bound: [`NetError::Roster`] when the members
    /// or the schedule, read in order, break the
    /// [`Roster`](hyperring_core::Roster) rule. Then [`NetError::Socket`]
    /// for bind failures.
    pub fn start(self, schedule: &[(u64, NodeId, NodeInput)]) -> Result<UdpRun, NetError> {
        // The roster is the members, then the joiners in schedule order;
        // `positions` holds each input's node's.
        let mut roster = Roster::new(self.members.iter().map(|t| t.owner()))?;
        let (mut joiners, mut positions) = (Vec::new(), Vec::with_capacity(schedule.len()));
        for (_, id, input) in schedule {
            positions.push(roster.admit(*id, input)?);
            if let NodeInput::StartJoin { .. } = input {
                joiners.push(*id);
            }
        }
        let n_nodes = self.members.len() + joiners.len();
        let n_threads = self.config.loop_threads.clamp(1, n_nodes);
        let last_input = schedule.iter().map(|&(at, ..)| at).max().unwrap_or(0);
        let deadline_us = last_input.saturating_add(self.config.quiesce_timeout.as_micros() as u64);

        // Bind one endpoint per loop thread. Nodes are dealt round-robin
        // (roster position i goes to thread i mod n_threads, slot
        // i / n_threads) so member and joiner load spreads evenly; the
        // roster is the one route table.
        let mut endpoints = Vec::with_capacity(n_threads);
        let mut addrs = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let ep = UdpEndpoint::bind()?;
            addrs.push(ep.local_addr()?);
            endpoints.push(ep);
        }
        let (roster, addrs) = (Arc::new(roster), Arc::new(addrs));
        // Set by the supervisor (or by a thread hitting a fatal socket
        // error); loop threads drain and exit.
        let shutdown = Arc::new(AtomicBool::new(false));
        let gauges: Arc<Vec<Gauges>> =
            Arc::new((0..n_threads).map(|_| Gauges::default()).collect());

        let (space, config) = (self.space, &self.config);
        let mut loops: Vec<LoopState> = (endpoints.into_iter().enumerate())
            .map(|(t, endpoint)| LoopState {
                drivers: Vec::new(),
                inputs: VecDeque::new(),
                joining: 0,
                io: LoopIo {
                    space,
                    roster: Arc::clone(&roster),
                    addrs: Arc::clone(&addrs),
                    thread: t,
                    outbound: Vec::new(),
                    capacity: OUTBOUND_CAPACITY,
                    wheel: TimerWheel::new(WHEEL_TICK_US, 0),
                    loss: LossInjector::new(LOSS_SEED.wrapping_add(t as u64), config.loss_permille),
                    stats: UdpRunStats::default(),
                    error: None,
                    queued: 0,
                },
                endpoint,
                sent: 0,
                refused: 0,
                trace: self.trace.clone(),
                shutdown: Arc::clone(&shutdown),
            })
            .collect();
        let opts = self.opts;
        let joiners = (joiners.into_iter()).map(|id| JoinEngine::new_joiner(space, opts, id));
        let engines = (self.members.into_iter())
            .map(|t| JoinEngine::new_member(space, opts, t))
            .chain(joiners);
        for (i, engine) in engines.enumerate() {
            let state = &mut loops[i % n_threads];
            state.joining += u64::from(engine.status().is_joining());
            // Every failure detector starts with the run (a no-op unless
            // configured).
            let start_fd = (0, state.drivers.len(), NodeInput::StartFailureDetector);
            state.inputs.push_back(start_fd);
            state.drivers.push(EngineDriver::new(engine));
            state.io.outbound.push(VecDeque::new());
        }
        for ((at, _, input), &i) in schedule.iter().zip(&positions) {
            let inputs = &mut loops[i % n_threads].inputs;
            inputs.push_back((*at, i / n_threads, input.clone()));
        }
        for (state, g) in loops.iter_mut().zip(gauges.iter()) {
            // A stable sort: same-instant inputs keep their schedule order.
            state.inputs.make_contiguous().sort_by_key(|&(at, ..)| at);
            state.publish(g);
        }
        Ok(UdpRun {
            loops,
            gauges,
            shutdown,
            window: self.config.settle.max(TICK),
            deadline_us,
            trace: self.trace,
            wall: Duration::ZERO,
            end: None,
        })
    }
}

/// A started [`UdpNetwork`] run, which [`run_until`](Self::run_until)
/// runs to a run-clock instant and pauses there, unless it quiesces
/// first, and [`finish`](Self::finish) runs to quiescence. A run with a
/// failure detector never quiesces (its probe timer is always armed): it
/// ends where it is run to, as a simulated one ends at its horizon. The
/// run clock counts µs of running
/// ([`UdpRunStats::wall`]): a resumed run goes on from where its last loop
/// thread stopped, so no timer wheel sees time go backwards. A pause
/// flushes and drops nothing: the loop threads hand back their engines,
/// wheels, queues and endpoints, datagrams in flight wait in the sockets,
/// and the gauges stay as the threads published them on stopping.
pub struct UdpRun {
    /// Each loop thread's state while none runs, in thread order.
    loops: Vec<LoopState>,
    gauges: Arc<Vec<Gauges>>,
    shutdown: Arc<AtomicBool>,
    /// [`UdpConfig::settle`], at least a `TICK`.
    window: Duration,
    /// Run-clock µs at which a run still going is
    /// [`NetError::QuiesceTimeout`].
    deadline_us: u64,
    trace: Option<Arc<Mutex<TraceStream>>>,
    /// Wall-clock time spent running: the run clock.
    wall: Duration,
    /// How the run ended, once it has.
    end: Option<Result<(), NetError>>,
}

impl UdpRun {
    /// Runs until the run clock reaches `t` µs, or until the run quiesces
    /// first, and pauses. Every scheduled input due at or before `t` is
    /// driven, none after it. Returns what the run did so far, summed over
    /// all loop threads.
    ///
    /// # Errors
    ///
    /// [`NetError::QuiesceTimeout`] if the run goes on for
    /// [`UdpConfig::quiesce_timeout`] after its last scheduled input
    /// (under heavy injected loss this usually means the retry budget or
    /// settle window is too small); [`NetError::NodePanicked`] as soon as
    /// a loop thread panics, as one does on an input its engine rejects (a
    /// `BeginLeave` for a node not in the system); [`NetError::Socket`]
    /// for IO failures. After an error the run holds no engines, and every
    /// later call returns the same error.
    pub fn run_until(&mut self, t: u64) -> Result<UdpRunStats, NetError> {
        if self.end.is_none() {
            let (from_us, start) = (self.wall.as_micros() as u64, Instant::now());
            let clock = move || from_us + start.elapsed().as_micros() as u64;
            let handles: Vec<_> = (self.loops.drain(..).enumerate())
                .map(|(i, state)| {
                    let gauges = Arc::clone(&self.gauges);
                    thread::spawn(move || state.run(&gauges[i], clock, t))
                })
                .collect();
            // `None` at the pause, where the threads stop by themselves.
            let end = self.supervise(&handles, clock, t);
            if end.is_some() {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            let mut error = None;
            for h in handles {
                match h.join() {
                    Ok(mut state) => {
                        error = error.or(state.io.error.take());
                        self.loops.push(state);
                    }
                    Err(_) => {
                        error.get_or_insert(NetError::NodePanicked);
                    }
                }
            }
            self.wall += start.elapsed();
            if let Some(stream) = &self.trace {
                if let Ok(mut stream) = stream.lock() {
                    stream.flush();
                }
            }
            self.end = error.map(Err).or(end);
            if let Some(Err(_)) = self.end {
                self.loops.clear();
            }
        }
        self.end.clone().unwrap_or(Ok(()))?;
        let mut stats = UdpRunStats {
            wall: self.wall,
            ..UdpRunStats::default()
        };
        for state in &self.loops {
            stats.absorb(&state.io.stats);
        }
        Ok(stats)
    }

    /// Runs to quiescence: [`run_until`](Self::run_until) for ever. A run
    /// with a failure detector never quiesces, so this ends it at the
    /// deadline with [`NetError::QuiesceTimeout`]; run such a run to an
    /// instant instead, as `SimNetwork::run` says for the simulator.
    pub fn finish(&mut self) -> Result<UdpRunStats, NetError> {
        self.run_until(u64::MAX)
    }

    /// Supervises the running loop threads: collects every `TICK`, and
    /// once per settle window takes the collect as a look, and ends the run
    /// at the first collect the [`quiescent`] rule accepts. Returns `None`
    /// once the run clock reaches `t`, where the threads stop by
    /// themselves.
    fn supervise<T>(
        &self,
        handles: &[JoinHandle<T>],
        clock: impl Fn() -> u64,
        t: u64,
    ) -> Option<Result<(), NetError>> {
        let mut before = Collect::read(&self.gauges);
        let (mut looked, mut next_look) = (before, Instant::now() + self.window);
        loop {
            thread::sleep(TICK.min(Duration::from_micros(t.saturating_sub(clock()))));
            // A thread that hit a fatal error rang the bell; one that
            // panicked (say, on a leave before its node is in the system)
            // finished without it, and not at the pause.
            let finished = handles.iter().any(JoinHandle::is_finished);
            if clock() >= t {
                return None;
            }
            if self.shutdown.load(Ordering::SeqCst) || finished {
                return Some(Ok(()));
            }
            let now = Collect::read(&self.gauges);
            let look = Instant::now() >= next_look;
            if quiescent(&before, look.then_some(&looked), &now) {
                return Some(Ok(()));
            }
            before = now;
            if look {
                (looked, next_look) = (now, Instant::now() + self.window);
            }
            if clock() >= self.deadline_us {
                return Some(Err(NetError::QuiesceTimeout {
                    in_flight: now.pending_out as i64,
                    joining: now.joining as i64,
                }));
            }
        }
    }

    /// Every engine, the crashed and departed ones too, in roster order:
    /// position i is slot i / n_threads of thread i mod n_threads.
    pub fn engines(&self) -> impl Iterator<Item = &JoinEngine> {
        let (n_threads, loops) = (self.loops.len(), &self.loops);
        let n_nodes = loops.iter().map(|state| state.drivers.len()).sum();
        (0..n_nodes).map(move |i| loops[i % n_threads].drivers[i / n_threads].engine())
    }
}

/// One loop thread's engines, their scheduled inputs, and what driving
/// any of them touches: all of it moves into the thread for a stretch of
/// running and comes back when the thread stops.
struct LoopState {
    drivers: Vec<EngineDriver>,
    /// `(at, slot, input)`, sorted by time.
    inputs: VecDeque<(u64, usize, NodeInput)>,
    /// See [`Gauges::joining`].
    joining: u64,
    io: LoopIo,
    endpoint: UdpEndpoint,
    /// The monotone counts behind [`Gauges::sent`] and
    /// [`Gauges::refused`].
    sent: u64,
    refused: u64,
    trace: Option<Arc<Mutex<TraceStream>>>,
    shutdown: Arc<AtomicBool>,
}

/// What the engines of one loop thread share, each engine's outbound
/// queue at its slot index.
struct LoopIo {
    space: IdSpace,
    /// Every node at its roster position: position i is slot
    /// i / n_threads of the thread whose socket is `addrs[i % n_threads]`.
    roster: Arc<Roster>,
    addrs: Arc<Vec<SocketAddr>>,
    /// This thread's index in `addrs`.
    thread: usize,
    outbound: Vec<VecDeque<(SocketAddr, Vec<u8>)>>,
    /// Bound of each outbound queue: [`OUTBOUND_CAPACITY`] (a test makes
    /// it small to exercise backpressure).
    capacity: usize,
    wheel: TimerWheel<(usize, TimerId)>,
    loss: LossInjector,
    stats: UdpRunStats,
    error: Option<NetError>,
    /// Datagrams on the outbound queues.
    queued: u64,
}

impl LoopState {
    /// Feeds one input through slot `s`'s driver and keeps the
    /// supervisor's join count: one fewer when the node stops joining,
    /// by entering the system or by crashing first. A crashed node's
    /// queued datagrams die with it.
    fn drive(&mut self, s: usize, input: NodeInput, now_us: u64) {
        let crash = matches!(input, NodeInput::Crash);
        let driver = &mut self.drivers[s];
        let was_joining = driver.engine().status().is_joining();
        let mut handler = LoopHandler {
            io: &mut self.io,
            me: driver.engine().id(),
            slot: s,
            now_us,
        };
        driver.drive(input, &mut handler, self.trace.as_deref());
        if was_joining && !driver.engine().status().is_joining() {
            self.joining -= 1;
        }
        if crash {
            self.io.queued -= self.io.outbound[s].len() as u64;
            self.io.outbound[s].clear();
        }
    }

    /// Publishes the gauges, `handled` last (see [`quiescent`]).
    fn publish(&self, gauges: &Gauges) {
        let io = &self.io;
        gauges
            .inputs
            .store(self.inputs.len() as u64, Ordering::SeqCst);
        gauges.joining.store(self.joining, Ordering::SeqCst);
        gauges.armed.store(io.wheel.len() as u64, Ordering::SeqCst);
        gauges.pending_out.store(io.queued, Ordering::SeqCst);
        gauges
            .handled
            .store(io.stats.datagrams_received, Ordering::SeqCst);
    }

    /// The event loop one thread runs until the run clock reaches
    /// `until` or the supervisor rings shutdown: scheduled inputs,
    /// timers, receives, flushes, poll(2). Returns the loop's state.
    fn run(mut self, gauges: &Gauges, clock: impl Fn() -> u64, until: u64) -> LoopState {
        let mut buf = vec![0u8; 64 * 1024];

        'main: loop {
            // 0. Drive the scheduled inputs that are due, none after
            // `until`, each at its own instant (so detectors started
            // together do not probe in step). At `until` the thread stops
            // with nothing flushed.
            let now = clock();
            while self
                .inputs
                .front()
                .is_some_and(|&(at, ..)| at <= now.min(until))
            {
                let (_, s, input) = self.inputs.pop_front().expect("front checked");
                self.drive(s, input, clock());
            }
            if now >= until {
                self.publish(gauges);
                break;
            }

            // 1. Fire due timers.
            for (s, id) in self.io.wheel.advance(now) {
                self.io.stats.timers_fired += 1;
                self.drive(s, NodeInput::TimerFired(id), now);
            }

            // 2. Drain arrivals.
            loop {
                match self.endpoint.try_recv(&mut buf) {
                    Ok(Some((n, _))) => {
                        self.io.stats.datagrams_received += 1;
                        self.io.stats.bytes_received += n as u64;
                        if self.io.loss.drop_next() {
                            self.io.stats.drops_injected += 1;
                            continue;
                        }
                        let Ok((to, from, msg)) = decode_plain(&self.io.space, &buf[..n]) else {
                            continue; // malformed datagrams are dropped, not fatal
                        };
                        // The `to` prefix addresses a node, not a socket,
                        // since many engines share this endpoint.
                        let n_threads = self.io.addrs.len();
                        let Some(pos) = (self.io.roster.position(&to))
                            .filter(|pos| pos % n_threads == self.io.thread)
                        else {
                            continue; // misrouted; not ours
                        };
                        let input = NodeInput::Deliver { from, msg };
                        self.drive(pos / n_threads, input, clock());
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.io.error.get_or_insert(e.into());
                        self.shutdown.store(true, Ordering::SeqCst);
                        break 'main;
                    }
                }
            }

            // 3. Flush outbound queues until the socket pushes back. The
            // whole batch counts as sent before the first datagram is written,
            // so no datagram can be handled before it is counted (see
            // `quiescent`); what the socket refuses is counted back.
            let io = &mut self.io;
            if io.queued > 0 {
                self.sent += io.queued;
                gauges.sent.store(self.sent, Ordering::SeqCst);
            }
            let mut blocked = false;
            for queue in &mut io.outbound {
                while let Some((addr, dgram)) = queue.front() {
                    if blocked {
                        break;
                    }
                    match self.endpoint.try_send(dgram, *addr) {
                        Ok(true) => {
                            io.stats.datagrams_sent += 1;
                            io.stats.bytes_sent += dgram.len() as u64;
                            queue.pop_front();
                            io.queued -= 1;
                        }
                        Ok(false) => {
                            blocked = true;
                        }
                        Err(e) => {
                            io.error.get_or_insert(e.into());
                            self.shutdown.store(true, Ordering::SeqCst);
                            break 'main;
                        }
                    }
                }
            }
            if io.queued > 0 {
                self.refused += io.queued;
                gauges.refused.store(self.refused, Ordering::SeqCst);
            }

            // 4. Publish gauges and honor shutdown once everything is
            // flushed (or can't be: a blocked socket during shutdown is
            // abandoned).
            self.publish(gauges);
            if self.shutdown.load(Ordering::SeqCst) && (self.io.queued == 0 || blocked) {
                break;
            }

            // 5. Sleep on readiness until the nearest timer deadline,
            // scheduled input or `until`.
            let now = clock();
            let next = self.io.wheel.next_deadline_us().into_iter();
            let next = (next.chain(self.inputs.front().map(|&(at, ..)| at))).fold(until, u64::min);
            let timeout_us = next.saturating_sub(now).min(5_000);
            if timeout_us > 0 {
                let events = WAIT_READ | if self.io.queued > 0 { WAIT_WRITE } else { 0 };
                if let Err(e) = self
                    .endpoint
                    .wait(events, Duration::from_micros(timeout_us))
                {
                    self.io.error.get_or_insert(e.into());
                    self.shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        self
    }
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
            inputs: 0,
            armed: 0,
            pending_out: 0,
            joining: 0,
        }
    }

    /// `done()` with one field changed must not end the run, at a tick or
    /// at a look, though every collect compared with it is identical.
    fn not_quiescent(change: impl Fn(&mut Collect)) -> bool {
        let mut now = done();
        change(&mut now);
        !quiescent(&now, None, &now) && !quiescent(&now, Some(&now), &now)
    }

    /// `done()` with one field changed is no exact quiescence: it must
    /// wait for a look.
    fn not_exact(change: impl Fn(&mut Collect)) -> bool {
        let mut now = done();
        change(&mut now);
        !quiescent(&now, None, &now)
    }

    #[test]
    fn identical_quiet_collects_end_the_run() {
        assert!(quiescent(&done(), None, &done()));
    }

    #[test]
    fn collects_that_differ_do_not() {
        let before = Collect {
            sent: 11,
            handled: 9,
            ..done()
        };
        assert!(!quiescent(&before, None, &done()));
    }

    #[test]
    fn a_datagram_sent_and_not_handled_keeps_the_run_going_between_looks() {
        assert!(not_exact(|c| c.handled -= 1));
        assert!(not_exact(|c| c.sent += 1));
    }

    #[test]
    fn refused_sends_count_only_once_written() {
        // Two datagrams were raised, refused and still wait in a queue:
        // sent − refused = 10 are written and handled, the queue is not
        // empty.
        assert!(not_quiescent(|c| c.pending_out = 2));
        // Counting the refusals as handled datagrams is no exact
        // quiescence either: those two were never written.
        assert!(not_exact(|c| c.handled = 12));
    }

    #[test]
    fn an_unbalanced_collect_ends_the_run_only_at_a_look_equal_to_the_last() {
        // The kernel lost one datagram: the counts never meet again.
        let now = Collect {
            handled: 9,
            ..done()
        };
        assert!(!quiescent(&now, None, &now), "not between looks");
        assert!(quiescent(&now, Some(&now), &now), "a silent window");
        let moved = Collect { handled: 8, ..now };
        assert!(!quiescent(&now, Some(&moved), &now), "a window that moved");
        // A balanced collect ends the run on its tick, whatever the look.
        assert!(quiescent(&done(), Some(&moved), &done()));
    }

    #[test]
    fn an_armed_timer_keeps_any_run_going() {
        assert!(not_quiescent(|c| c.armed = 1));
        assert!(not_quiescent(|c| {
            c.armed = 1;
            c.handled -= 1;
        }));
    }

    #[test]
    fn queued_datagrams_keep_the_run_going() {
        assert!(not_quiescent(|c| c.pending_out = 1));
    }

    #[test]
    fn inputs_not_yet_driven_keep_the_run_going() {
        assert!(not_quiescent(|c| c.inputs = 1));
    }

    #[test]
    fn unfinished_joins_keep_the_run_going() {
        assert!(not_quiescent(|c| c.joining = 1));
    }

    /// Twenty small waves under injected loss, with a settle window far
    /// longer than any of them: every one must end with every joiner
    /// `in_system`, every table consistent and no retry timer live, i.e.
    /// the exact rule never ended a run early.
    #[test]
    fn exact_quiescence_never_ends_a_lossy_wave_early() {
        let space = IdSpace::new(4, 5).unwrap();
        let mut injected = 0;
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids = std::collections::BTreeSet::new();
            while ids.len() < 40 {
                ids.insert(space.random_id(&mut rng));
            }
            let ids: Vec<NodeId> = ids.into_iter().collect();
            let (v, w) = ids.split_at(16);
            let gateways = v.iter().cycle().copied();
            let joins: Vec<(u64, NodeId, NodeInput)> = (w.iter().zip(gateways))
                .map(|(&id, gateway)| (0, id, NodeInput::StartJoin { gateway }))
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
                settle,
                quiesce_timeout: Duration::from_secs(60),
            };
            let mut run = UdpNetwork::new(space, opts, build_consistent_tables(space, v))
                .with_config(config)
                .start(&joins)
                .expect("valid schedule");
            let stats = run.finish().expect("wave quiesces");
            injected += stats.drops_injected;
            assert!(
                run.engines().all(|e| e.status() == Status::InSystem),
                "seed {seed}: a joiner is not in_system"
            );
            for e in run.engines() {
                let live: Vec<TimerId> = e.live_timers().collect();
                assert!(live.is_empty(), "seed {seed}: {} holds {live:?}", e.id());
            }
            let report = check_consistency(space, run.engines().map(JoinEngine::table));
            assert!(report.is_consistent(), "seed {seed}: {report}");
            eprintln!("seed {seed}: {:?}", stats.wall);
        }
        assert!(injected > 0, "loss was never exercised");
    }

    /// A send to a full outbound queue is dropped and counted as
    /// backpressure; the retry policy then treats it as loss, and the
    /// queue depth the supervisor reads counts only what was queued.
    #[test]
    fn a_full_outbound_queue_drops_and_counts_backpressure() {
        let space = IdSpace::new(4, 5).unwrap();
        let ids = space.distinct_ids(2, &mut StdRng::seed_from_u64(3));
        let mut io = LoopIo {
            space,
            roster: Arc::new(Roster::new(ids.iter().copied()).unwrap()),
            addrs: Arc::new(vec!["127.0.0.1:9".parse().unwrap()]),
            thread: 0,
            outbound: vec![VecDeque::new(); 2],
            capacity: 2,
            wheel: TimerWheel::new(WHEEL_TICK_US, 0),
            loss: LossInjector::new(LOSS_SEED, 0),
            stats: UdpRunStats::default(),
            error: None,
            queued: 0,
        };
        let mut handler = LoopHandler {
            io: &mut io,
            me: ids[0],
            slot: 0,
            now_us: 0,
        };
        for _ in 0..3 {
            handler.send(ids[1], Message::Ping);
        }
        assert_eq!(io.outbound[0].len(), 2);
        assert_eq!(io.queued, 2);
        assert_eq!(io.stats.backpressure_drops, 1);
        assert!(io.error.is_none());
    }
}
