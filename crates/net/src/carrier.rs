//! [`LoopbackCarrier`]: the simulator's send path over a real socket.

use std::net::{SocketAddr, UdpSocket};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use hyperring_core::{Carrier, Message};
use hyperring_id::{IdSpace, NodeId};

use crate::runtime::NetError;
use crate::transport::{decode_plain, encode_plain};

/// How long one datagram may take to come back before the carrier gives
/// up on the socket.
const DEADLINE: Duration = Duration::from_secs(5);

/// A [`Carrier`] for
/// [`SimNetworkBuilder::carrier`](hyperring_core::SimNetworkBuilder::carrier):
/// each message leaves as a `[to][frame]` datagram (see [`encode_plain`])
/// for the carrier's own loopback socket and is decoded again on its way
/// back. The simulator keeps delays, RNG, timers and crashes, so a carried
/// run reads the same trace and table digests as one without: the codec
/// and the socket are transparent (`tests/parity.rs`).
///
/// It never panics. The first send or receive failure, decode error,
/// `(to, from)` mismatch or datagram not back within 5 s is kept as
/// [`error`](Self::error), and from then on messages pass through
/// untouched, so one fault cannot skew the rest of the run.
#[derive(Debug)]
pub struct LoopbackCarrier {
    space: IdSpace,
    /// Blocking, with [`DEADLINE`] as its read timeout: each datagram is
    /// read back right after it is sent, so its own never queue up.
    socket: UdpSocket,
    addr: SocketAddr,
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    out: Vec<u8>,
    buf: Vec<u8>,
    error: Option<NetError>,
}

impl LoopbackCarrier {
    /// Binds the carrier's socket on `127.0.0.1`.
    ///
    /// # Errors
    ///
    /// [`NetError::Socket`] if the socket cannot be bound.
    pub fn bind(space: IdSpace) -> Result<Self, NetError> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(DEADLINE))?;
        Ok(LoopbackCarrier {
            space,
            addr: socket.local_addr()?,
            socket,
            state: Mutex::new(State {
                out: Vec::with_capacity(1024),
                buf: vec![0; 64 * 1024],
                error: None,
            }),
        })
    }

    /// The first failure of the carrier, if any.
    pub fn error(&self) -> Option<NetError> {
        self.lock().error.clone()
    }

    /// Every update leaves `State` valid (two scratch buffers and a
    /// write-once error), so a lock poisoned by a panicking caller is
    /// taken over rather than passed on.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn round_trip(
        &self,
        state: &mut State,
        from: NodeId,
        to: NodeId,
        msg: &Message,
    ) -> Result<Message, NetError> {
        state.out.clear();
        encode_plain(&self.space, to, from, msg, &mut state.out);
        self.socket.send_to(&state.out, self.addr)?;
        let n = self.socket.recv(&mut state.buf)?;
        let (got_to, got_from, got) = decode_plain(&self.space, &state.buf[..n])
            .map_err(|e| NetError::Socket(format!("carried datagram: {e}")))?;
        if (got_to, got_from) != (to, from) {
            return Err(NetError::Socket(format!(
                "sent {from} -> {to}, got back {got_from} -> {got_to}"
            )));
        }
        Ok(got)
    }
}

impl Carrier for LoopbackCarrier {
    fn carry(&self, from: NodeId, to: NodeId, msg: Message) -> Message {
        let mut state = self.lock();
        if state.error.is_some() {
            return msg;
        }
        match self.round_trip(&mut state, from, to, &msg) {
            Ok(carried) => carried,
            Err(e) => {
                state.error = Some(e);
                msg
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stray_datagram_is_recorded_not_panicked_on() {
        let space = IdSpace::new(4, 5).unwrap();
        let carrier = LoopbackCarrier::bind(space).unwrap();
        let a = space.parse_id("01230").unwrap();
        let b = space.parse_id("32101").unwrap();
        let level = |m: Message| match m {
            Message::CpRst { level } => level,
            _ => u8::MAX,
        };
        assert_eq!(level(carrier.carry(a, b, Message::CpRst { level: 2 })), 2);
        assert_eq!(carrier.error(), None);
        // The stray is queued first and does not decode: the carrier keeps
        // the error and hands the message back as it was.
        let stray = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        stray.send_to(&[0xff; 3], carrier.addr).unwrap();
        assert_eq!(level(carrier.carry(a, b, Message::CpRst { level: 1 })), 1);
        assert!(matches!(carrier.error(), Some(NetError::Socket(_))));
    }
}
