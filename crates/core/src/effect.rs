//! The typed engine ↔ runtime boundary: [`Effect`]s out,
//! [`NodeInput`](crate::NodeInput)s in.
//!
//! The [`JoinEngine`](crate::JoinEngine) is sans-io: it never touches
//! clocks, sockets, or files. Everything it wants done is expressed as an
//! [`Effect`] pushed into an [`Effects`] buffer, and everything that can
//! happen to it arrives as a `NodeInput` through
//! [`JoinEngine::step`](crate::JoinEngine::step). A runtime (the
//! deterministic simulator, the socket runtime, tests) drains the buffer
//! through one shared dispatch path
//! ([`EngineDriver::drive`](crate::EngineDriver::drive)).

use hyperring_id::NodeId;

use crate::messages::Message;
use crate::trace::ProtocolEvent;

/// Identifier of a retry timer the engine arms for itself.
///
/// Each variant names the *request kind* being guarded and the peer (or
/// subject) it was addressed to, so one node can hold many concurrent
/// timers without aliasing. Re-arming an id replaces its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerId {
    /// A `CpRstMsg` to `peer` awaits its `CpRlyMsg`.
    CpRst {
        /// The copy target.
        peer: NodeId,
    },
    /// A `JoinWaitMsg` to `peer` awaits its `JoinWaitRlyMsg`.
    JoinWait {
        /// The awaited storer.
        peer: NodeId,
    },
    /// A `JoinNotiMsg` to `peer` awaits its `JoinNotiRlyMsg`.
    JoinNoti {
        /// The notified node.
        peer: NodeId,
    },
    /// A `SpeNotiMsg` chain about `subject` awaits its `SpeNotiRlyMsg`.
    SpeNoti {
        /// The node the special notification is about.
        subject: NodeId,
    },
    /// A `RvNghNotiMsg` to `peer` awaits its `RvNghNotiRlyMsg` (sent
    /// unconditionally under a retry policy).
    RvNgh {
        /// The stored neighbor.
        peer: NodeId,
    },
    /// An `InSysNotiMsg` to `peer` awaits the `PongMsg` that
    /// acknowledges it.
    InSys {
        /// The reverse neighbor.
        peer: NodeId,
    },
    /// Periodic failure-detector tick (crash-churn extension): on each
    /// fire the node probes its monitored neighbors with `PingMsg`s,
    /// declares unresponsive ones dead, re-drives the repairs of its
    /// vacated slots, and
    /// re-arms the tick. One per node, keyed on the node itself.
    FdProbe {
        /// The probing node (timers are per-node; the detector uses one
        /// periodic tick).
        owner: NodeId,
    },
}

impl TimerId {
    /// Snake-case name of the guarded request kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TimerId::CpRst { .. } => "cp_rst",
            TimerId::JoinWait { .. } => "join_wait",
            TimerId::JoinNoti { .. } => "join_noti",
            TimerId::SpeNoti { .. } => "spe_noti",
            TimerId::RvNgh { .. } => "rv_ngh",
            TimerId::InSys { .. } => "in_sys",
            TimerId::FdProbe { .. } => "fd_probe",
        }
    }

    /// The peer (or subject) the timer is keyed on.
    pub fn peer(&self) -> NodeId {
        match *self {
            TimerId::CpRst { peer }
            | TimerId::JoinWait { peer }
            | TimerId::JoinNoti { peer }
            | TimerId::RvNgh { peer }
            | TimerId::InSys { peer } => peer,
            TimerId::SpeNoti { subject } => subject,
            TimerId::FdProbe { owner } => owner,
        }
    }
}

/// One side effect requested by the engine while handling an input.
///
/// # Examples
///
/// The first thing a joiner wants is a `CpRstMsg` on the wire:
///
/// ```
/// use hyperring_core::{Effect, Effects, JoinEngine, Message, NodeInput, ProtocolOptions};
/// use hyperring_id::IdSpace;
///
/// let space = IdSpace::new(4, 3)?;
/// let gateway = space.parse_id("000")?;
/// let mut joiner =
///     JoinEngine::new_joiner(space, ProtocolOptions::new(), space.parse_id("321")?);
/// let mut fx = Effects::new();
/// joiner.step(NodeInput::StartJoin { gateway }, &mut fx);
/// let effects: Vec<Effect> = fx.drain().collect();
/// assert!(matches!(
///     effects[0],
///     Effect::Send { to, msg: Message::CpRst { level: 0 } } if to == gateway
/// ));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub enum Effect {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The protocol message.
        msg: Message,
    },
    /// Arm (or re-arm) timer `id` to fire after roughly `delay_hint`
    /// microseconds. The hint is advisory: a runtime may round it, but must
    /// preserve "fires once, later than now, unless canceled".
    SetTimer {
        /// The timer to arm.
        id: TimerId,
        /// Requested delay in microseconds.
        delay_hint: u64,
    },
    /// Cancel timer `id` if pending (a no-op otherwise).
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
    /// Record a structured observability event (dropped unless the runtime
    /// attached a [`TraceSink`](crate::TraceSink)).
    Trace(ProtocolEvent),
}

/// Buffer of [`Effect`]s produced while handling one input.
///
/// Replaces the old `(NodeId, Message)`-only outbox: runtimes drain the
/// whole typed stream ([`drain`](Effects::drain)), while tests that only
/// care about traffic use [`drain_sends`](Effects::drain_sends).
#[derive(Debug, Default)]
pub struct Effects {
    items: Vec<Effect>,
}

impl Effects {
    /// Creates an empty buffer.
    pub const fn new() -> Self {
        Effects { items: Vec::new() }
    }

    pub(crate) fn push(&mut self, e: Effect) {
        self.items.push(e);
    }

    /// Drains all queued effects, in the order the engine produced them.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect> {
        self.items.drain(..)
    }

    /// Drains the buffer, yielding only the `(destination, message)` pairs
    /// of [`Effect::Send`]s. Timer and trace effects are discarded — the
    /// convenience path for tests and synchronous pumps that model a
    /// reliable network with no clock.
    pub fn drain_sends(&mut self) -> impl Iterator<Item = (NodeId, Message)> + '_ {
        self.items.drain(..).filter_map(|e| match e {
            Effect::Send { to, msg } => Some((to, msg)),
            _ => None,
        })
    }

    /// Number of queued effects (of every kind).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no effects are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}
