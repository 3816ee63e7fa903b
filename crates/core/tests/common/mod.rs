//! The one switch of the carrier twins: a test written over `Hop` runs
//! its network either on the plain simulator or with every protocol
//! message sent through the wire codec and a loopback socket first, and
//! must read the same digests and endings both ways.

use std::sync::Arc;

use hyperring_core::SimNetworkBuilder;
use hyperring_id::IdSpace;
use hyperring_net::LoopbackCarrier;

/// Where a network's messages go between send and the simulator's queue.
pub struct Hop(Option<Arc<LoopbackCarrier>>);

impl Hop {
    /// Straight into the queue (`socket` false), or through a fresh
    /// [`LoopbackCarrier`] first.
    pub fn new(space: IdSpace, socket: bool) -> Self {
        Hop(socket.then(|| Arc::new(LoopbackCarrier::bind(space).expect("bind loopback"))))
    }

    /// Sets the carrier, if any, on `b`.
    pub fn attach(&self, b: &mut SimNetworkBuilder) {
        if let Some(carrier) = &self.0 {
            b.carrier(carrier.clone());
        }
    }

    /// Asserts that the carrier, if any, saw no fault. Call it after the
    /// run: a carrier that failed passes messages through untouched, so
    /// its run would read the plain digests without having crossed the
    /// socket.
    pub fn check(&self) {
        if let Some(carrier) = &self.0 {
            assert_eq!(carrier.error(), None, "the loopback carrier failed");
        }
    }
}
