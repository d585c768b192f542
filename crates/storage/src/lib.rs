//! Storage substrate: the network model and the shared namespace.
//!
//! The paper's cluster shares one file system over a GbE switch. This crate
//! holds the two pieces of that layer the cluster runs on:
//!
//! * [`Network`] — GbE latency/bandwidth model for the cluster fabric,
//!   charged on the virtual clock in modeled-mode runs of the RPC fabric,
//! * [`SharedStorage`] — the shared namespace under the Propeller cluster
//!   (paths, attributes, snapshots).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod shared;

pub use net::Network;
pub use shared::SharedStorage;
