//! # hyperring
//!
//! A from-scratch Rust implementation of Liu & Lam, *Neighbor Table
//! Construction and Update in a Dynamic Peer-to-Peer Network* (IEEE ICDCS
//! 2003): the PRR-style hypercube (suffix) routing scheme, the paper's
//! join protocol that keeps neighbor tables **consistent under an
//! arbitrary number of concurrent joins**, the C-set-tree machinery of its
//! correctness argument, its analytic cost model (Theorems 3–5), and the
//! full simulation substrate (deterministic event-driven simulator plus a
//! GT-ITM-style transit-stub topology generator) used to regenerate the
//! paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`id`] | `hyperring-id` | base-`b` digit identifiers, suffix arithmetic, SHA-1 |
//! | [`core`] | `hyperring-core` | neighbor tables, the join protocol, routing, consistency |
//! | [`cset`] | `hyperring-cset` | C-set tree templates and realizations (§3, §5.1) |
//! | [`analysis`] | `hyperring-analysis` | Theorems 3–5 in closed form |
//! | [`sim`] | `hyperring-sim` | deterministic discrete-event simulator |
//! | [`topology`] | `hyperring-topology` | transit-stub router topologies, latency models |
//! | [`net`] | `hyperring-net` | sockets (loopback UDP: racing event loops; the simulator's send path through the codec) |
//! | [`object`] | `hyperring-object` | object location (publish/lookup, surrogate routing) |
//! | [`harness`] | `hyperring-harness` | experiment drivers for every table/figure |
//!
//! # Quick start
//!
//! ```
//! use hyperring::core::SimNetworkBuilder;
//! use hyperring::id::IdSpace;
//! use hyperring::sim::UniformDelay;
//! use rand::SeedableRng;
//!
//! // A consistent 24-node network, then 8 nodes join at the same instant.
//! let space = IdSpace::new(16, 8)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut ids = std::collections::BTreeSet::new();
//! while ids.len() < 32 {
//!     ids.insert(space.random_id(&mut rng));
//! }
//! let ids: Vec<_> = ids.into_iter().collect();
//!
//! let mut b = SimNetworkBuilder::new(space);
//! for id in &ids[..24] {
//!     b.add_member(*id);
//! }
//! for id in &ids[24..] {
//!     b.add_joiner(*id, ids[0], 0);
//! }
//! let mut net = b.build(UniformDelay::new(1_000, 50_000), 7);
//! net.run();
//! assert!(net.all_in_system());                       // Theorem 2
//! assert!(net.check_consistency().is_consistent());   // Theorem 1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hyperring_analysis as analysis;
pub use hyperring_core as core;
pub use hyperring_cset as cset;
pub use hyperring_harness as harness;
pub use hyperring_id as id;
pub use hyperring_net as net;
pub use hyperring_object as object;
pub use hyperring_sim as sim;
pub use hyperring_topology as topology;
