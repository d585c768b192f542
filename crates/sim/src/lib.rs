//! Virtual time and discrete-event simulation substrate.
//!
//! The Propeller paper evaluates on 50–100 million-file datasets stored on
//! 7200 RPM disks in a 9-node GbE cluster. Reproducing those figures on a
//! laptop requires running the *same code paths* while accounting network
//! costs on a **virtual clock** instead of the wall clock.
//! This crate provides that substrate:
//!
//! * [`SimClock`] — a shareable, thread-safe virtual clock,
//! * [`Clock`] — the abstraction over virtual and wall time so library code
//!   is agnostic to the execution mode,
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
