//! A deterministic discrete-event simulator for message-passing protocols.
//!
//! The paper evaluates its join protocol "in detail in an event-driven
//! simulator"; this crate is that substrate, rebuilt from scratch. Actors
//! (overlay nodes) exchange messages whose delivery is delayed by a pluggable
//! [`DelayModel`] (constant, uniform random, or a real router topology via an
//! adapter). Given the same seed, a run is bit-for-bit reproducible.
//!
//! Delivery is **reliable and unordered** — exactly the assumption of the
//! paper's correctness proof (assumption (iii) of §3.1): every message is
//! delivered, but two messages between the same pair of nodes may be
//! reordered if their sampled latencies interleave. This makes the simulator
//! an adversarial scheduler for the protocol rather than a friendly one.
//!
//! Before each delivery the simulator prefetches what the next two will
//! touch: the actor and slab slot of the event after next, and whatever
//! lines the next event's actor names through [`Actor::prefetch`]. A
//! prefetch is a hint and changes nothing a run can observe. It is the
//! crate's one `unsafe` exception: [`Prefetch::line`] calls
//! `_mm_prefetch` on x86-64 and does nothing elsewhere.
//!
//! # Timers and faults
//!
//! Actors may also arm per-actor timers ([`Context::set_timer`]) and see
//! them expire via [`Actor::on_timer`], and a [`FaultyDelay`] wrapper can
//! drop or duplicate actor-sent messages by seeded probability — the
//! substrate for testing timeout-and-retry protocol extensions.
//!
//! # Examples
//!
//! ```
//! use hyperring_sim::{Actor, ConstantDelay, Context, Simulator};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     type Msg = u32;
//!     type Timer = ();
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: usize, msg: u32) {
//!         if msg > 0 {
//!             ctx.send(from, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(vec![Echo, Echo], ConstantDelay(10), 42);
//! sim.inject(0, 1, 5); // deliver 5 to actor 1, "from" actor 0
//! let report = sim.run();
//! assert_eq!(report.delivered, 6);
//! assert_eq!(sim.now(), 60);
//! ```

#![deny(unsafe_code)] // one exception: the prefetch hint in Prefetch::line
#![warn(missing_docs)]

mod delay;
mod event;
mod prefetch;
mod sim;
pub mod stats;

pub use delay::{ConstantDelay, DelayModel, Fate, FaultyDelay, UniformDelay};
pub use event::Time;
pub use prefetch::Prefetch;
pub use sim::{Actor, Context, RunReport, Simulator};
