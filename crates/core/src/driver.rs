//! The shared runtime driver: one code path from runtime inputs to engine
//! effects, used identically by every runtime.
//!
//! No runtime (the zero-copy simulator nodes, the socket runtimes)
//! carries its own copy of the input-matching + effect-draining glue
//! around `dispatch_effects`: a runtime wraps each engine in an
//! [`EngineDriver`], implements [`RuntimeDriver`] (that is,
//! [`EffectHandler`] plus a clock) for its transport, and feeds
//! [`NodeInput`]s through [`EngineDriver::drive`]. Since the drive path is
//! shared, engine behavior is provably identical across simulated and
//! socket transports — the same inputs in the same order produce the same
//! effect stream and the same [`DigestTrace`](crate::DigestTrace), which
//! the lossless-socket parity test pins.

use std::cell::Cell;

use hyperring_id::NodeId;

use crate::dispatch::{dispatch_effects, EffectHandler};
use crate::effect::{Effects, Event, TimerId};
use crate::engine::{JoinEngine, Status};
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
    /// Begin a graceful leave (extension).
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

/// What one [`EngineDriver::drive`] call observed, for the runtime's
/// bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepReport {
    /// The node crossed into `in_system` during this step (exactly once
    /// per joiner lifetime) — runtimes use this for quiescence counting.
    pub entered_system: bool,
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

/// One protocol engine plus its in-system bookkeeping — the per-node state
/// every runtime carries, driven exclusively through
/// [`drive`](Self::drive). The effect buffer a drive fills and drains is
/// per-thread scratch, not part of the node.
#[derive(Debug)]
pub struct EngineDriver {
    engine: JoinEngine,
    was_in_system: bool,
}

impl EngineDriver {
    /// Wraps `engine` (member or joiner).
    pub fn new(engine: JoinEngine) -> Self {
        let was_in_system = engine.is_in_system();
        EngineDriver {
            engine,
            was_in_system,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &JoinEngine {
        &self.engine
    }

    /// Consumes the driver, returning the engine (for table hand-off at
    /// the end of a run).
    pub fn into_engine(self) -> JoinEngine {
        self.engine
    }

    /// Crash-fails the node in place: no goodbye traffic, no effects. The
    /// runtime stops delivering to it afterwards.
    pub fn crash(&mut self) {
        self.engine.crash();
    }

    /// Applies one input and drains the resulting effects into `rt` (trace
    /// effects into `trace`, stamped with `rt.now_us()`). This is the one
    /// shared dispatch path of every runtime.
    pub fn drive<R: RuntimeDriver + ?Sized>(
        &mut self,
        input: NodeInput,
        rt: &mut R,
        trace: Option<&mut TraceStream>,
    ) -> StepReport {
        // Taking the buffer leaves an empty one behind, so a handler that
        // drives another node from inside `rt`, or a panic below, finds the
        // slot valid; such a nested or unwound drive merely allocates.
        let mut effects = SCRATCH.take();
        match input {
            NodeInput::Deliver { from, msg } => self.engine.handle(from, msg, &mut effects),
            NodeInput::TimerFired(id) => {
                self.engine.on_event(Event::TimerFired { id }, &mut effects)
            }
            NodeInput::StartJoin { gateway } => self.engine.start_join(gateway, &mut effects),
            NodeInput::BeginLeave => self.engine.begin_leave(&mut effects),
            NodeInput::StartFailureDetector => self.engine.start_failure_detector(&mut effects),
            NodeInput::Crash => self.engine.crash(),
        }
        if !effects.is_empty() {
            let me = self.engine.id();
            dispatch_effects(me, rt.now_us(), &mut effects, rt, trace);
        }
        SCRATCH.set(effects);
        let entered_system = !self.was_in_system && self.engine.status() == Status::InSystem;
        if entered_system {
            self.was_in_system = true;
        }
        StepReport { entered_system }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProtocolOptions;
    use crate::oracle::build_consistent_tables;
    use hyperring_id::IdSpace;

    #[derive(Default)]
    struct Recorder {
        now: u64,
        sends: Vec<(NodeId, Message)>,
        timers: Vec<TimerId>,
    }

    impl EffectHandler for Recorder {
        fn send(&mut self, to: NodeId, msg: Message) {
            self.sends.push((to, msg));
        }
        fn set_timer(&mut self, id: TimerId, _delay_hint: u64) {
            self.timers.push(id);
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
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
        let report = node.drive(NodeInput::StartJoin { gateway: gw }, &mut rt, None);
        assert!(!report.entered_system);
        assert_eq!(rt.sends.len(), 1, "one CpRstMsg to the gateway");
        assert_eq!(rt.sends[0].0, gw);
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
            let report = node.drive(NodeInput::StartFailureDetector, &mut rt, None);
            assert!(!report.entered_system, "members start in_system");
        }
    }
}
