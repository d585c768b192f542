//! Storage substrate: the shared namespace.
//!
//! The paper's cluster shares one file system over a GbE switch.
//! [`SharedStorage`] is that namespace under the Propeller cluster (paths,
//! attributes, snapshots).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shared;

pub use shared::SharedStorage;
