//! Structured protocol tracing: per-node transition events with logical
//! timestamps, delivered to a pluggable [`TraceSink`].
//!
//! The engine emits [`ProtocolEvent`]s as [`Effect::Trace`](crate::Effect)
//! effects (only when [`ProtocolOptions::trace`](crate::ProtocolOptions)
//! is set, so untraced runs pay nothing). A runtime stamps each with the
//! node, virtual time, and a global sequence number, and hands the
//! resulting [`TraceRecord`] to whatever sink is attached: [`NullTrace`]
//! (discard), [`RingTrace`] (last-N buffer), [`JsonlTrace`] (one JSON
//! object per line), or [`DigestTrace`] (order-sensitive FNV digest, for
//! determinism goldens).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use hyperring_id::NodeId;

use crate::digest::Fnv;
use crate::effect::TimerId;
use crate::engine::Status;
use crate::table::NodeState;

/// One protocol-level transition observed at a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// The node began its join through `gateway`.
    JoinStarted {
        /// The member used as the first copy target.
        gateway: NodeId,
    },
    /// The node's status changed (`copying → waiting → notifying →
    /// in_system`, or the leave extension's states).
    StatusChanged {
        /// Previous status.
        from: Status,
        /// New status.
        to: Status,
    },
    /// A previously empty table entry was filled.
    EntryFilled {
        /// Table level of the entry.
        level: usize,
        /// Digit of the entry.
        digit: u8,
        /// The node stored there.
        node: NodeId,
        /// The state it was recorded with.
        state: NodeState,
    },
    /// The recorded state of an occupied entry flipped (T→S on
    /// notification, S→T on a correction).
    StateFlipped {
        /// Table level of the entry.
        level: usize,
        /// Digit of the entry.
        digit: u8,
        /// The node stored there.
        node: NodeId,
        /// The state it now records.
        to: NodeState,
    },
    /// A timed-out request was retransmitted (`attempt` counts from 1).
    RetrySent {
        /// The timer that fired.
        timer: TimerId,
        /// Retransmission number.
        attempt: u32,
    },
    /// A request exhausted its retry budget and was abandoned.
    RetriesExhausted {
        /// The timer that gave up.
        timer: TimerId,
    },
    /// The failure detector declared a monitored neighbor dead after
    /// `missed` consecutive unanswered probes (crash-churn extension).
    NeighborDead {
        /// The neighbor declared dead.
        peer: NodeId,
        /// Unanswered probes at the moment of the verdict.
        missed: u32,
    },
    /// A table entry holding a dead neighbor was evicted.
    EntryEvicted {
        /// Table level of the evicted entry.
        level: usize,
        /// Digit of the evicted entry.
        digit: u8,
        /// The dead node that occupied it.
        node: NodeId,
    },
    /// A `RepairQryMsg` was sent toward a vacated `(level, digit)` slot.
    RepairStarted {
        /// Table level of the slot under repair.
        level: usize,
        /// Digit of the slot under repair.
        digit: u8,
    },
    /// A `RepairRlyMsg` refilled a vacated slot with a survivor.
    RepairInstalled {
        /// Table level of the repaired slot.
        level: usize,
        /// Digit of the repaired slot.
        digit: u8,
        /// The replacement neighbor installed.
        node: NodeId,
    },
    /// A repair query dead-ended: no reachable survivor carries the
    /// slot's desired suffix, so the slot stays (correctly) empty.
    RepairFailed {
        /// Table level of the unrepairable slot.
        level: usize,
        /// Digit of the unrepairable slot.
        digit: u8,
    },
    /// A join-critical peer stopped answering and the join fallback (a
    /// [`RetryPolicy`](crate::RetryPolicy) under a failure detector)
    /// restarted the join through an alternate contact.
    JoinRerouted {
        /// The peer given up on.
        dead: NodeId,
        /// The contact the join restarted through.
        via: NodeId,
    },
    /// A join ran out of live contacts to fall back to; the joiner is
    /// stranded unless a late reply arrives.
    JoinStranded {
        /// The last peer given up on.
        dead: NodeId,
    },
}

fn status_name(s: Status) -> &'static str {
    match s {
        Status::Copying => "copying",
        Status::Waiting => "waiting",
        Status::Notifying => "notifying",
        Status::InSystem => "in_system",
        Status::Leaving => "leaving",
        Status::Departed => "departed",
        Status::Crashed => "crashed",
    }
}

fn state_name(s: NodeState) -> &'static str {
    match s {
        NodeState::S => "s",
        NodeState::T => "t",
    }
}

/// A [`ProtocolEvent`] stamped with its origin and logical time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp in the runtime's clock (virtual µs in the simulators;
    /// wall-clock µs since the run started in the UDP runtime).
    pub at: u64,
    /// Global emission order within the run (0, 1, 2, …).
    pub seq: u64,
    /// The node the event happened at.
    pub node: NodeId,
    /// The event itself.
    pub event: ProtocolEvent,
}

impl TraceRecord {
    /// Renders the record as one deterministic JSON object (no trailing
    /// newline). Field order is fixed, so equal records give equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut s = format!(
            "{{\"at\":{},\"seq\":{},\"node\":\"{}\"",
            self.at, self.seq, self.node
        );
        match &self.event {
            ProtocolEvent::JoinStarted { gateway } => {
                s.push_str(&format!(
                    ",\"event\":\"join_started\",\"gateway\":\"{gateway}\""
                ));
            }
            ProtocolEvent::StatusChanged { from, to } => {
                s.push_str(&format!(
                    ",\"event\":\"status_changed\",\"from\":\"{}\",\"to\":\"{}\"",
                    status_name(*from),
                    status_name(*to)
                ));
            }
            ProtocolEvent::EntryFilled {
                level,
                digit,
                node,
                state,
            } => {
                s.push_str(&format!(
                    ",\"event\":\"entry_filled\",\"level\":{level},\"digit\":{digit},\"peer\":\"{node}\",\"state\":\"{}\"",
                    state_name(*state)
                ));
            }
            ProtocolEvent::StateFlipped {
                level,
                digit,
                node,
                to,
            } => {
                s.push_str(&format!(
                    ",\"event\":\"state_flipped\",\"level\":{level},\"digit\":{digit},\"peer\":\"{node}\",\"to\":\"{}\"",
                    state_name(*to)
                ));
            }
            ProtocolEvent::RetrySent { timer, attempt } => {
                s.push_str(&format!(
                    ",\"event\":\"retry_sent\",\"timer\":\"{}:{}\",\"attempt\":{attempt}",
                    timer.kind_name(),
                    timer.peer()
                ));
            }
            ProtocolEvent::RetriesExhausted { timer } => {
                s.push_str(&format!(
                    ",\"event\":\"retries_exhausted\",\"timer\":\"{}:{}\"",
                    timer.kind_name(),
                    timer.peer()
                ));
            }
            ProtocolEvent::NeighborDead { peer, missed } => {
                s.push_str(&format!(
                    ",\"event\":\"neighbor_dead\",\"peer\":\"{peer}\",\"missed\":{missed}"
                ));
            }
            ProtocolEvent::EntryEvicted { level, digit, node } => {
                s.push_str(&format!(
                    ",\"event\":\"entry_evicted\",\"level\":{level},\"digit\":{digit},\"peer\":\"{node}\""
                ));
            }
            ProtocolEvent::RepairStarted { level, digit } => {
                s.push_str(&format!(
                    ",\"event\":\"repair_started\",\"level\":{level},\"digit\":{digit}"
                ));
            }
            ProtocolEvent::RepairInstalled { level, digit, node } => {
                s.push_str(&format!(
                    ",\"event\":\"repair_installed\",\"level\":{level},\"digit\":{digit},\"peer\":\"{node}\""
                ));
            }
            ProtocolEvent::RepairFailed { level, digit } => {
                s.push_str(&format!(
                    ",\"event\":\"repair_failed\",\"level\":{level},\"digit\":{digit}"
                ));
            }
            ProtocolEvent::JoinRerouted { dead, via } => {
                s.push_str(&format!(
                    ",\"event\":\"join_rerouted\",\"dead\":\"{dead}\",\"via\":\"{via}\""
                ));
            }
            ProtocolEvent::JoinStranded { dead } => {
                s.push_str(&format!(",\"event\":\"join_stranded\",\"dead\":\"{dead}\""));
            }
        }
        s.push('}');
        s
    }
}

/// Consumer of [`TraceRecord`]s.
///
/// Runtimes call [`record`](TraceSink::record) once per emitted event, in
/// emission order. Implementations must not reorder or drop records if
/// they claim determinism (the golden tests digest the exact stream).
///
/// # Examples
///
/// Capture a joiner's transitions in memory, then inspect them:
///
/// ```
/// use hyperring_core::{RingTrace, SharedSink, SimNetworkBuilder};
/// use hyperring_id::IdSpace;
/// use hyperring_sim::ConstantDelay;
///
/// let space = IdSpace::new(4, 3)?;
/// let sink = SharedSink::new(RingTrace::new(64));
/// let mut b = SimNetworkBuilder::new(space);
/// b.add_member(space.parse_id("000")?);
/// b.add_joiner(space.parse_id("321")?, space.parse_id("000")?, 0);
/// b.trace(Box::new(sink.clone()));
/// let mut net = b.build(ConstantDelay(50), 1);
/// net.run();
/// let ring = sink.lock();
/// assert!(ring.records().any(|r| r.to_jsonl().contains("in_system")));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait TraceSink {
    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);

    /// Flushes buffered output (a no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// Discards every record (the default when no sink is attached).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Keeps the last `capacity` records in memory.
#[derive(Debug, Clone)]
pub struct RingTrace {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    total: u64,
}

impl RingTrace {
    /// Creates a ring holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingTrace {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            total: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Total records ever offered (retained or evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingTrace {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
        self.total += 1;
    }
}

/// Writes one JSON object per record to any [`std::io::Write`]r.
///
/// I/O errors are sticky: the first failure stops further writes and is
/// reported by [`finish`](JsonlTrace::finish).
#[derive(Debug)]
pub struct JsonlTrace<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTrace<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlTrace {
            writer,
            error: None,
        }
    }

    /// Flushes and returns the writer, or the first I/O error hit.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlTrace<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{}", rec.to_jsonl()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Order-sensitive FNV-1a digest over the JSONL rendering of the stream —
/// two runs with equal digests (and counts) emitted byte-identical traces
/// in the same order. Used by the golden determinism tests.
#[derive(Debug, Clone, Copy)]
pub struct DigestTrace {
    hash: Fnv,
    count: u64,
}

impl DigestTrace {
    /// Creates an empty digest.
    pub fn new() -> Self {
        DigestTrace {
            hash: Fnv::new(),
            count: 0,
        }
    }

    /// The digest over everything recorded so far.
    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }

    /// Number of records digested.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Default for DigestTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for DigestTrace {
    fn record(&mut self, rec: &TraceRecord) {
        self.hash.eat(rec.to_jsonl().as_bytes());
        self.hash.eat(b"\n");
        self.count += 1;
    }
}

/// Clonable handle sharing one sink between a runtime and the caller, so
/// the caller can read the sink back after the run (the runtime consumes
/// a `Box<dyn TraceSink>` and would otherwise swallow it).
#[derive(Debug, Default)]
pub struct SharedSink<T>(Arc<Mutex<T>>);

impl<T> Clone for SharedSink<T> {
    fn clone(&self) -> Self {
        SharedSink(Arc::clone(&self.0))
    }
}

impl<T: TraceSink> SharedSink<T> {
    /// Wraps `sink` in a shared handle.
    pub fn new(sink: T) -> Self {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Locks the inner sink for inspection.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap()
    }
}

impl<T: TraceSink> TraceSink for SharedSink<T> {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.lock().unwrap().record(rec);
    }

    fn flush(&mut self) {
        self.0.lock().unwrap().flush();
    }
}

/// A sink plus the run-global sequence counter: the single object a
/// runtime threads through [`EngineDriver::drive`](crate::EngineDriver::drive)
/// to stamp and deliver every traced event.
pub struct TraceStream {
    seq: u64,
    sink: Box<dyn TraceSink + Send>,
}

impl TraceStream {
    /// Wraps `sink` with a fresh sequence counter.
    pub fn new(sink: Box<dyn TraceSink + Send>) -> Self {
        TraceStream { seq: 0, sink }
    }

    /// Stamps `event` with `(at, next seq, node)` and records it.
    pub fn emit(&mut self, at: u64, node: NodeId, event: ProtocolEvent) {
        let rec = TraceRecord {
            at,
            seq: self.seq,
            node,
            event,
        };
        self.seq += 1;
        self.sink.record(&rec);
    }

    /// Number of records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

impl std::fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStream")
            .field("seq", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperring_id::IdSpace;

    fn rec(seq: u64) -> TraceRecord {
        let space = IdSpace::new(4, 3).unwrap();
        TraceRecord {
            at: 100 + seq,
            seq,
            node: space.parse_id("321").unwrap(),
            event: ProtocolEvent::StatusChanged {
                from: Status::Copying,
                to: Status::Waiting,
            },
        }
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        assert_eq!(
            rec(0).to_jsonl(),
            "{\"at\":100,\"seq\":0,\"node\":\"321\",\"event\":\"status_changed\",\
             \"from\":\"copying\",\"to\":\"waiting\"}"
        );
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = RingTrace::new(2);
        for i in 0..5 {
            ring.record(&rec(i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total(), 5);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = DigestTrace::new();
        let mut b = DigestTrace::new();
        a.record(&rec(0));
        a.record(&rec(1));
        b.record(&rec(1));
        b.record(&rec(0));
        assert_eq!(a.count(), b.count());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_record() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(&rec(0));
        sink.record(&rec(1));
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn stream_stamps_monotone_seq() {
        let shared = SharedSink::new(RingTrace::new(8));
        let mut stream = TraceStream::new(Box::new(shared.clone()));
        let space = IdSpace::new(4, 3).unwrap();
        let node = space.parse_id("123").unwrap();
        stream.emit(5, node, ProtocolEvent::JoinStarted { gateway: node });
        stream.emit(9, node, ProtocolEvent::JoinStarted { gateway: node });
        assert_eq!(stream.emitted(), 2);
        let ring = shared.lock();
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }
}
