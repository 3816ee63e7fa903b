//! The shared runtime driver: one input vocabulary ([`NodeInput`]), one
//! rule for the inputs a network accepts ([`Roster`]), and one code path
//! from an input to the engine's effects, used by every runtime.
//!
//! A runtime wraps each engine in an [`EngineDriver`], implements
//! [`RuntimeDriver`] (that is, [`EffectHandler`] plus a clock) for its
//! transport, and feeds every input through [`EngineDriver::drive`] into
//! [`JoinEngine::step`]. Since the drive path is shared, engine behavior is
//! provably identical across simulated and socket transports — the same
//! inputs in the same order produce the same effect stream and the same
//! [`DigestTrace`](crate::DigestTrace), which the lossless-socket parity
//! test pins.
//!
//! A drive returns nothing and the driver keeps no state beside the
//! engine: what a runtime counts (joins still in flight, say) it reads off
//! the engine's [`Status`](crate::Status) around the drive.

use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::Mutex;

use hyperring_id::{IdBuildHasher, NodeId};

use crate::effect::{Effect, Effects, TimerId};
use crate::engine::JoinEngine;
use crate::messages::Message;
use crate::trace::TraceStream;

/// One input a runtime feeds a node: a protocol delivery, a timer expiry,
/// or a control action (start a join, leave, arm the failure detector,
/// crash).
#[derive(Debug, Clone)]
pub enum NodeInput {
    /// A protocol message arrived from `from`.
    Deliver {
        /// The overlay sender.
        from: NodeId,
        /// The message.
        msg: Message,
    },
    /// A previously armed timer fired.
    TimerFired(TimerId),
    /// Begin joining through `gateway`.
    StartJoin {
        /// The join gateway.
        gateway: NodeId,
    },
    /// Begin a graceful leave (extension). Concurrent leaves of adjacent
    /// nodes (each other's replacement candidates) are not arbitrated.
    BeginLeave,
    /// Arm the failure detector's probe tick (a no-op unless a detector is
    /// configured). Runtimes send this to initial members, which never pass
    /// through the joiner's S-node switch.
    StartFailureDetector,
    /// Crash-fail on the spot: no goodbye, no replacement, no effects
    /// (crash-churn extension). The runtime stops delivering to the node
    /// afterwards; survivors must detect the silence.
    Crash,
}

/// The nodes of one network, each at its position in arrival order (the
/// initial members, then each joiner as its `StartJoin` is admitted), and
/// the rule every runtime holds a scheduled input to:
///
/// - a `StartJoin` names a node that is not on the roster yet;
/// - its gateway is on the roster and is not that node;
/// - every other input names a node on the roster, and a `Deliver`'s
///   sender is on it too.
#[derive(Debug)]
pub struct Roster {
    index: HashMap<NodeId, usize, IdBuildHasher>,
}

/// An input the [`Roster`] rule rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RosterError {
    /// A `StartJoin` (or an initial member) names a node already on the
    /// roster.
    DuplicateNode(NodeId),
    /// A `StartJoin`'s gateway is not on the roster.
    UnknownGateway(NodeId),
    /// A `StartJoin` names its own node as the gateway.
    SelfGateway(NodeId),
    /// An input names a node (or a `Deliver` a sender) not on the roster.
    UnknownNode(NodeId),
}

impl fmt::Display for RosterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RosterError::DuplicateNode(id) => write!(f, "duplicate node identifier {id}"),
            RosterError::UnknownGateway(id) => write!(f, "unknown gateway {id}"),
            RosterError::SelfGateway(id) => write!(f, "node {id} cannot join through itself"),
            RosterError::UnknownNode(id) => write!(f, "input names unknown node {id}"),
        }
    }
}

impl std::error::Error for RosterError {}

impl Roster {
    /// The roster of the initial `members`, at positions `0..` in order.
    ///
    /// # Errors
    ///
    /// [`RosterError::DuplicateNode`] when a member is named twice.
    pub fn new(members: impl IntoIterator<Item = NodeId>) -> Result<Self, RosterError> {
        let mut roster = Roster {
            index: HashMap::default(),
        };
        for id in members {
            roster.push(id)?;
        }
        Ok(roster)
    }

    fn push(&mut self, id: NodeId) -> Result<usize, RosterError> {
        let next = self.index.len();
        match self.index.entry(id) {
            Entry::Occupied(_) => Err(RosterError::DuplicateNode(id)),
            Entry::Vacant(slot) => Ok(*slot.insert(next)),
        }
    }

    /// The position of `id`, if it is on the roster.
    pub fn position(&self, id: &NodeId) -> Option<usize> {
        self.index.get(id).copied()
    }

    /// Holds `input` for `node` to the rule and returns `node`'s position;
    /// a `StartJoin` puts `node` on the roster, at the next position.
    ///
    /// # Errors
    ///
    /// The [`RosterError`] naming the broken part of the rule; the roster
    /// is then unchanged.
    pub fn admit(&mut self, node: NodeId, input: &NodeInput) -> Result<usize, RosterError> {
        match input {
            NodeInput::StartJoin { gateway } if *gateway == node => {
                Err(RosterError::SelfGateway(node))
            }
            NodeInput::StartJoin { gateway } if self.position(gateway).is_none() => {
                Err(RosterError::UnknownGateway(*gateway))
            }
            NodeInput::StartJoin { .. } => self.push(node),
            NodeInput::Deliver { from, .. } if self.position(from).is_none() => {
                Err(RosterError::UnknownNode(*from))
            }
            _ => self.position(&node).ok_or(RosterError::UnknownNode(node)),
        }
    }
}

/// Runtime-side sink for the non-trace effects.
pub trait EffectHandler {
    /// Transmit `msg` to `to`.
    fn send(&mut self, to: NodeId, msg: Message);

    /// Arm (or re-arm) `id` to fire in roughly `delay_hint` microseconds.
    fn set_timer(&mut self, id: TimerId, delay_hint: u64);

    /// Cancel `id` if pending.
    fn cancel_timer(&mut self, id: TimerId);
}

/// Drains `effects` in order: sends and timer ops go to `handler`, trace
/// events are stamped with (`now`, `node`, next sequence number) and fed
/// to `trace` (discarded when `None`). The stream is locked at the first
/// trace event and held to the end of the drain, so one drive's records
/// stay adjacent; a drive that traces nothing never locks it.
///
/// # Panics
///
/// Panics if a panic elsewhere poisoned the stream's lock.
fn dispatch_effects<H: EffectHandler + ?Sized>(
    node: NodeId,
    now: u64,
    effects: &mut Effects,
    handler: &mut H,
    trace: Option<&Mutex<TraceStream>>,
) {
    let mut stream = None;
    for effect in effects.drain() {
        match effect {
            Effect::Send { to, msg } => handler.send(to, msg),
            Effect::SetTimer { id, delay_hint } => handler.set_timer(id, delay_hint),
            Effect::CancelTimer { id } => handler.cancel_timer(id),
            Effect::Trace(ev) => {
                if let Some(trace) = trace {
                    let stream = stream.get_or_insert_with(|| {
                        trace
                            .lock()
                            .expect("a panic poisoned the trace stream's lock")
                    });
                    stream.emit(now, node, ev);
                }
            }
        }
    }
}

/// A runtime hosting engines behind the shared driver.
///
/// Implementations are the runtime's [`EffectHandler`] (the transport and
/// timer adapter) plus a clock; the driver dispatches every effect into
/// the handler and stamps trace records with [`now_us`](Self::now_us). No
/// runtime re-implements the effect-draining glue.
pub trait RuntimeDriver: EffectHandler {
    /// The runtime clock in microseconds (virtual or wall, per runtime).
    fn now_us(&self) -> u64;
}

thread_local! {
    /// The effect buffer of whichever [`EngineDriver::drive`] call is
    /// running on this thread. Effects never outlive the call that produced
    /// them, so the buffer is scratch, not node state: one per thread keeps
    /// the capacity of the largest burst once instead of once per node.
    static SCRATCH: Cell<Effects> = const { Cell::new(Effects::new()) };
}

/// One protocol engine — the per-node state every runtime carries, driven
/// exclusively through [`drive`](Self::drive). The effect buffer a drive
/// fills and drains is per-thread scratch, not part of the node.
#[derive(Debug)]
pub struct EngineDriver {
    engine: JoinEngine,
}

impl EngineDriver {
    /// Wraps `engine` (member or joiner).
    pub fn new(engine: JoinEngine) -> Self {
        EngineDriver { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &JoinEngine {
        &self.engine
    }

    /// [`JoinEngine::step`]s one input and drains the resulting effects
    /// into `rt` (trace effects into `trace`, stamped with `rt.now_us()`).
    /// This is the one shared dispatch path of every runtime. The stream
    /// is locked only by a drive that traces something.
    ///
    /// # Panics
    ///
    /// Panics if a panic elsewhere poisoned `trace`'s lock.
    pub fn drive<R: RuntimeDriver + ?Sized>(
        &mut self,
        input: NodeInput,
        rt: &mut R,
        trace: Option<&Mutex<TraceStream>>,
    ) {
        // Taking the buffer leaves an empty one behind, so a handler that
        // drives another node from inside `rt`, or a panic below, finds the
        // slot valid; such a nested or unwound drive merely allocates.
        let mut effects = SCRATCH.take();
        self.engine.step(input, &mut effects);
        if !effects.is_empty() {
            let me = self.engine.id();
            dispatch_effects(me, rt.now_us(), &mut effects, rt, trace);
        }
        SCRATCH.set(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Status;
    use crate::options::ProtocolOptions;
    use crate::oracle::build_consistent_tables;
    use crate::trace::{ProtocolEvent, RingTrace, SharedSink, TraceSink};
    use hyperring_id::IdSpace;

    #[derive(Default)]
    struct Recorder {
        now: u64,
        sends: Vec<(NodeId, Message)>,
        set: Vec<(TimerId, u64)>,
        canceled: Vec<TimerId>,
    }

    impl EffectHandler for Recorder {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sends.push((to, msg));
        }
        fn set_timer(&mut self, id: TimerId, delay_hint: u64) {
            self.set.push((id, delay_hint));
        }
        fn cancel_timer(&mut self, id: TimerId) {
            self.canceled.push(id);
        }
    }

    impl RuntimeDriver for Recorder {
        fn now_us(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn start_join_emits_the_first_copy_request() {
        let space = IdSpace::new(4, 3).unwrap();
        let gw = space.parse_id("001").unwrap();
        let joiner = space.parse_id("310").unwrap();
        let mut node = EngineDriver::new(JoinEngine::new_joiner(
            space,
            ProtocolOptions::new(),
            joiner,
        ));
        assert_eq!(node.engine().status(), Status::Copying);
        let mut rt = Recorder::default();
        node.drive(NodeInput::StartJoin { gateway: gw }, &mut rt, None);
        assert_eq!(rt.sends.len(), 1, "one CpRstMsg to the gateway");
        assert_eq!(rt.sends[0].0, gw);
    }

    #[test]
    fn the_roster_rule_admits_joins_in_order_and_rejects_the_rest() {
        use RosterError::{DuplicateNode, SelfGateway, UnknownGateway, UnknownNode};
        let space = IdSpace::new(4, 3).unwrap();
        let [a, b, c, fresh, ghost] =
            ["001", "310", "222", "111", "333"].map(|s| space.parse_id(s).unwrap());
        let join = |gateway| NodeInput::StartJoin { gateway };
        let mut roster = Roster::new([a]).unwrap();
        assert_eq!(roster.admit(b, &join(a)), Ok(1));
        assert_eq!(roster.admit(c, &join(b)), Ok(2), "a joiner is a gateway");
        assert_eq!(roster.admit(b, &NodeInput::Crash), Ok(1));
        let (from, msg) = (ghost, Message::Ping);
        let rejected = [
            (a, join(b), DuplicateNode(a)),
            (fresh, join(fresh), SelfGateway(fresh)),
            (fresh, join(ghost), UnknownGateway(ghost)),
            (ghost, NodeInput::BeginLeave, UnknownNode(ghost)),
            (a, NodeInput::Deliver { from, msg }, UnknownNode(ghost)),
        ];
        for (node, input, err) in rejected {
            assert_eq!(roster.admit(node, &input), Err(err));
        }
        assert_eq!(roster.position(&fresh), None, "nothing refused is added");
        assert_eq!(Roster::new([a, a]).unwrap_err(), DuplicateNode(a));
    }

    #[test]
    fn members_never_report_entering_the_system() {
        let space = IdSpace::new(4, 3).unwrap();
        let ids = [
            space.parse_id("001").unwrap(),
            space.parse_id("310").unwrap(),
        ];
        let tables = build_consistent_tables(space, &ids);
        for t in tables {
            let mut node =
                EngineDriver::new(JoinEngine::new_member(space, ProtocolOptions::new(), t));
            let mut rt = Recorder::default();
            node.drive(NodeInput::StartFailureDetector, &mut rt, None);
            assert_eq!(node.engine().status(), Status::InSystem);
        }
    }

    #[test]
    fn routes_each_effect_kind() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let peer = space.parse_id("321").unwrap();
        let mut fx = Effects::new();
        fx.push(Effect::Send {
            to: peer,
            msg: Message::CpRst { level: 1 },
        });
        fx.push(Effect::SetTimer {
            id: TimerId::CpRst { peer },
            delay_hint: 500,
        });
        fx.push(Effect::Trace(ProtocolEvent::JoinStarted { gateway: peer }));
        fx.push(Effect::CancelTimer {
            id: TimerId::CpRst { peer },
        });

        let sink = SharedSink::new(RingTrace::new(8));
        let stream = Mutex::new(TraceStream::new(Box::new(sink.clone())));
        let mut log = Recorder::default();
        dispatch_effects(me, 77, &mut fx, &mut log, Some(&stream));

        assert!(fx.is_empty());
        assert_eq!(log.sends.len(), 1);
        assert_eq!(log.set, vec![(TimerId::CpRst { peer }, 500)]);
        assert_eq!(log.canceled, vec![TimerId::CpRst { peer }]);
        let ring = sink.lock();
        let recs: Vec<_> = ring.records().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at, 77);
        assert_eq!(recs[0].node, me);
    }

    #[test]
    fn traces_are_dropped_without_a_stream() {
        let space = IdSpace::new(4, 3).unwrap();
        let me = space.parse_id("000").unwrap();
        let mut fx = Effects::new();
        fx.push(Effect::Trace(ProtocolEvent::JoinStarted { gateway: me }));
        let mut log = Recorder::default();
        dispatch_effects(me, 0, &mut fx, &mut log, None);
        assert!(fx.is_empty());
        assert!(log.sends.is_empty());
    }

    #[test]
    fn null_sink_is_a_valid_stream_target() {
        let mut null = crate::trace::NullTrace;
        null.record(&crate::trace::TraceRecord {
            at: 0,
            seq: 0,
            node: IdSpace::new(4, 3).unwrap().parse_id("000").unwrap(),
            event: ProtocolEvent::JoinStarted {
                gateway: IdSpace::new(4, 3).unwrap().parse_id("000").unwrap(),
            },
        });
    }
}
