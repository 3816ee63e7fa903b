//! Socket transport for the join protocol: the protocol, out of the
//! simulator.
//!
//! The deterministic simulator (`hyperring-sim`) is the primary
//! evaluation substrate, but the protocol engine is sans-io and runs
//! unchanged on real concurrency and real sockets. Messages travel as
//! `hyperring-wire` frames (see the [`transport`] module for the datagram
//! layout), over two paths:
//!
//! | path | transport | threads | clock | pauses | ends | delivery |
//! |---|---|---|---|---|---|---|
//! | [`UdpNetwork`] | loopback UDP | few event loops | wall, stopped at pauses | [`UdpRun::run_until`] | at the instant run to, or earlier at quiescence | lossy (injected + backpressure) |
//! | [`LoopbackCarrier`] | loopback UDP | the simulator's | virtual | the simulator's `run_until` | the simulator's | reliable, the simulator's schedule |
//!
//! [`UdpNetwork`] drives every engine through the same
//! [`EngineDriver`](hyperring_core::EngineDriver) glue as the simulator,
//! with timers on a [`TimerWheel`], so a
//! [`RetryPolicy`](hyperring_core::RetryPolicy) works against the wall
//! clock too. The wheel is the simulator's timer design, a heap of
//! deadlines beside an index of live armings, so both runtimes keep
//! timers one way. [`LoopbackCarrier`] is the simulator's send path over
//! a socket: a carried run reads the simulator's own digests — the proof
//! that the codec and socket plumbing are transparent.
//!
//! # Examples
//!
//! ```
//! use hyperring_core::{build_consistent_tables, check_consistency, ProtocolOptions};
//! use hyperring_id::IdSpace;
//! use hyperring_net::UdpNetwork;
//! use rand::SeedableRng;
//!
//! let space = IdSpace::new(4, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let mut ids = std::collections::BTreeSet::new();
//! while ids.len() < 12 {
//!     ids.insert(space.random_id(&mut rng));
//! }
//! let ids: Vec<_> = ids.into_iter().collect();
//! let members = build_consistent_tables(space, &ids[..8]);
//!
//! let joiners: Vec<_> = ids[8..].iter().map(|&id| (id, ids[0])).collect();
//! let net = UdpNetwork::new(space, ProtocolOptions::new(), members);
//! let (tables, stats) = net.run_joins(&joiners)?;
//! assert!(check_consistency(space, &tables).is_consistent());
//! assert!(stats.datagrams_sent > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)] // one exception: the poll(2) binding in transport::sys
#![warn(missing_docs)]

pub mod timer;
pub mod transport;

mod carrier;
mod runtime;

pub use carrier::LoopbackCarrier;
pub use runtime::{NetError, UdpConfig, UdpNetwork, UdpRun, UdpRunStats};
pub use timer::TimerWheel;
