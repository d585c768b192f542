//! Virtual time and discrete-event simulation substrate.
//!
//! Every figure here comes from code that ran on the wall clock; virtual
//! time serves tests and experiments that must step time deterministically
//! (commit timeouts). This crate provides that substrate:
//!
//! * [`SimClock`] — a shareable, thread-safe virtual clock that only its
//!   owner advances,
//! * [`Clock`] — the abstraction over virtual and wall time so library code
//!   reads time the same way on either,
//! * [`EventQueue`] — a deterministic discrete-event scheduler,
//! * [`Latency`] — latency distributions (constant/uniform/exponential),
//! * [`NodeSlowdowns`] — injected per-node delivery delays for
//!   tail-latency experiments,
//! * [`SeedSplitter`] — deterministic seed derivation so every experiment is
//!   reproducible from a single `u64`.
//!
//! # Examples
//!
//! ```
//! use propeller_sim::{EventQueue, SimClock};
//! use propeller_types::{Duration, Timestamp};
//!
//! let clock = SimClock::new();
//! let mut queue = EventQueue::new();
//! queue.schedule(Timestamp::from_secs(2), "second");
//! queue.schedule(Timestamp::from_secs(1), "first");
//!
//! let (t, ev) = queue.pop().unwrap();
//! clock.advance_to(t);
//! assert_eq!(ev, "first");
//! assert_eq!(clock.now(), Timestamp::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod events;
mod latency;
mod rng;
mod slowdown;

pub use clock::{Clock, SimClock, WallClock};
pub use events::EventQueue;
pub use latency::Latency;
pub use rng::{seeded_rng, SeedSplitter};
pub use slowdown::NodeSlowdowns;
