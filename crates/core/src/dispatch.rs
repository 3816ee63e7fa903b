//! The one shared path from an [`Effects`] buffer into a runtime.
//!
//! Every runtime — the zero-copy [`SimNetwork`](crate::SimNetwork), the
//! actor-based simulator adapters, and the socket runtimes — implements
//! [`EffectHandler`] for its transport/timer facilities and calls
//! [`dispatch_effects`] after each engine event. Trace effects are stamped
//! and routed here too, so tracing behaves identically everywhere.

use hyperring_id::NodeId;

use crate::effect::{Effect, Effects, TimerId};
use crate::messages::Message;
use crate::trace::TraceStream;

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
/// to `trace` (discarded when `None`).
pub(crate) fn dispatch_effects<H: EffectHandler + ?Sized>(
    node: NodeId,
    now: u64,
    effects: &mut Effects,
    handler: &mut H,
    mut trace: Option<&mut TraceStream>,
) {
    for effect in effects.drain() {
        match effect {
            Effect::Send { to, msg } => handler.send(to, msg),
            Effect::SetTimer { id, delay_hint } => handler.set_timer(id, delay_hint),
            Effect::CancelTimer { id } => handler.cancel_timer(id),
            Effect::Trace(ev) => {
                if let Some(stream) = trace.as_deref_mut() {
                    stream.emit(now, node, ev);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;
    use crate::trace::{ProtocolEvent, RingTrace, SharedSink, TraceSink};
    use hyperring_id::IdSpace;

    #[derive(Default)]
    struct Log {
        sends: Vec<(NodeId, Message)>,
        set: Vec<(TimerId, u64)>,
        canceled: Vec<TimerId>,
    }

    impl EffectHandler for Log {
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
        let mut stream = TraceStream::new(Box::new(sink.clone()));
        let mut log = Log::default();
        dispatch_effects(me, 77, &mut fx, &mut log, Some(&mut stream));

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
        let mut log = Log::default();
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
