//! Hypercube routing with a consistency-preserving join protocol.
//!
//! This crate implements the core contribution of Liu & Lam, *Neighbor
//! Table Construction and Update in a Dynamic Peer-to-Peer Network*
//! (ICDCS 2003):
//!
//! * the PRR-style **hypercube routing scheme** — per-node neighbor tables
//!   of `d` levels × `b` entries and suffix-matching routing
//!   ([`NeighborTable`], [`route`]);
//! * the **join protocol** of §4 ([`JoinEngine`]) — a sans-io state
//!   machine implementing Figures 5–14, under which an *arbitrary number of
//!   concurrent joins* leaves all neighbor tables consistent (the paper's
//!   Theorem 1) and every joiner eventually becomes an S-node (Theorem 2);
//! * the **consistency definition** of §3 as an executable checker
//!   ([`check_consistency`], [`check_reachability`]);
//! * network initialization per §6.1 ([`bootstrap`], sequential or in
//!   concurrent waves, or any join schedule through [`SimNetworkBuilder`]);
//! * the §6.2 message-size reductions ([`PayloadMode`]);
//! * a typed **input/effect layer** at the engine ↔ runtime boundary
//!   ([`NodeInput`], [`Effect`], [`EngineDriver`]) with optional
//!   timeout-and-retry for lossy transports ([`RetryPolicy`]) and a
//!   structured trace stream ([`TraceSink`], [`ProtocolEvent`]);
//! * **crash-failure detection and table repair** ([`FailureDetector`]) —
//!   periodic liveness probes evict dead neighbors, and suffix-routed
//!   repair queries refill the vacated slots among survivors (the paper
//!   defers failures to future work; off by default);
//! * an adapter ([`SimNetwork`]) that runs whole networks on the
//!   deterministic event-driven simulator of `hyperring-sim`.
//!
//! # Quick start
//!
//! ```
//! use hyperring_core::SimNetworkBuilder;
//! use hyperring_id::IdSpace;
//! use hyperring_sim::UniformDelay;
//! use rand::SeedableRng;
//!
//! // 16 members + 8 concurrent joiners over random 8-digit hex ids.
//! let space = IdSpace::new(16, 8)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut ids = std::collections::BTreeSet::new();
//! while ids.len() < 24 {
//!     ids.insert(space.random_id(&mut rng));
//! }
//! let ids: Vec<_> = ids.into_iter().collect();
//!
//! let mut b = SimNetworkBuilder::new(space);
//! for id in &ids[..16] {
//!     b.add_member(*id);
//! }
//! for id in &ids[16..] {
//!     b.add_joiner(*id, ids[0], 0); // all joins start at t = 0
//! }
//! let mut net = b.build(UniformDelay::new(1_000, 50_000), 7);
//! net.run();
//! assert!(net.all_in_system());
//! assert!(net.check_consistency().is_consistent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod consistency;
mod digest;
mod driver;
mod effect;
mod engine;
mod failure;
mod incremental;
mod messages;
mod options;
mod oracle;
mod repair;
mod routing;
mod simnet;
mod stats;
mod suffix_compact;
mod table;
mod trace;

pub use adaptive::{
    build_proximate_tables, build_proximate_tables_sampled, optimize_tables, promote_secondaries,
    DemandProfile, OptimizeReport, PromotionReport,
};
/// Alias of [`check_consistency`] — the name the `benchmark/` probes
/// import. Two names, one function.
pub use consistency::check_consistency as check_consistency_streaming;
pub use consistency::{
    check_consistency, check_consistency_naive, check_reachability, check_reachability_sampled,
    digest_and_check_streaming, ConsistencyReport, Violation,
};
pub use digest::{tables_digest, tables_digest_iter};
pub use driver::{EffectHandler, EngineDriver, NodeInput, Roster, RosterError, RuntimeDriver};
pub use effect::{Effect, Effects, TimerId};
pub use engine::{JoinEngine, Status};
pub use incremental::IncrementalChecker;
pub use messages::{packed_id_bytes, BitVec, Message, MessageKind};
pub use options::{FailureDetector, PayloadMode, ProtocolOptions, RetryPolicy};
pub use oracle::build_consistent_tables;
pub use routing::{next_hop, route, RouteOutcome};
pub use simnet::{bootstrap, Carrier, SimNetwork, SimNetworkBuilder, SimNode};
pub use stats::MessageStats;
pub use suffix_compact::CompactSuffixIndex;
pub use table::{Entry, NeighborTable, NodeState, SnapshotRow, TableSnapshot};
pub use trace::{
    DigestTrace, JsonlTrace, NullTrace, ProtocolEvent, RingTrace, SharedSink, TraceRecord,
    TraceSink, TraceStream,
};
