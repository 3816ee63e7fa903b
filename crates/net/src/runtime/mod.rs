//! The socket runtime: a real-socket host for the sans-io protocol
//! engine, built on the same
//! [`EngineDriver`](hyperring_core::EngineDriver) /
//! [`RuntimeDriver`](hyperring_core::RuntimeDriver) pair as the
//! simulator, so engine behavior is identical by construction.
//! [`UdpNetwork`] runs a few event-loop threads driving many engines each
//! over non-blocking loopback UDP sockets, with injected packet loss,
//! per-engine outbound backpressure, and one schedule of timed inputs
//! (joins, crashes, leaves) on a wall clock that stops while the run is
//! paused ([`UdpRun`]).

mod udp;

pub use udp::{UdpConfig, UdpNetwork, UdpRun, UdpRunStats};

use std::fmt;

use hyperring_core::RosterError;
use hyperring_id::NodeId;

/// Failure of a runtime run. The runtimes report problems instead of
/// panicking: configuration mistakes surface before any thread spawns,
/// liveness failures after an orderly shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The members or a scheduled input break the
    /// [`Roster`](hyperring_core::Roster) rule.
    Roster(RosterError),
    /// The engine addressed a message to a node the network doesn't know
    /// (an engine bug; recorded rather than unwinding a worker thread).
    UnknownDestination(NodeId),
    /// The network failed to quiesce within the deadline
    /// ([`UdpConfig::quiesce_timeout`](crate::UdpConfig::quiesce_timeout)
    /// after its last scheduled input). A run with a failure detector
    /// never quiesces, so [`UdpRun::finish`](crate::UdpRun::finish) ends
    /// every such run with this; run it to an instant instead.
    QuiesceTimeout {
        /// The datagrams queued but not yet written to a socket when the
        /// deadline passed (those the kernel still buffers are invisible
        /// to the runtime).
        in_flight: i64,
        /// Joiners still not `in_system` when the deadline passed.
        joining: i64,
    },
    /// A loop thread panicked (the state of its engines is lost).
    NodePanicked,
    /// The socket layer failed (bind, send, or receive).
    Socket(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Roster(e) => e.fmt(f),
            NetError::UnknownDestination(id) => {
                write!(f, "message addressed to unknown node {id}")
            }
            NetError::QuiesceTimeout { in_flight, joining } => write!(
                f,
                "network failed to quiesce: {in_flight} in flight, {joining} joining"
            ),
            NetError::NodePanicked => write!(f, "a loop thread panicked"),
            NetError::Socket(what) => write!(f, "socket failure: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<RosterError> for NetError {
    fn from(e: RosterError) -> Self {
        NetError::Roster(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Socket(e.to_string())
    }
}
