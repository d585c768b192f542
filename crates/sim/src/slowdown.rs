//! Per-node injected slowdowns for tail-latency experiments.
//!
//! Search correctness and replica failover under a straggler are only
//! testable against a cluster that actually has a slow node, such as the
//! kill/slow/revive schedules of the failure-injection tests. This module
//! provides the injection point: a thread-safe table mapping nodes to
//! [`Latency`] distributions that the RPC layer samples on every delivery
//! to an afflicted node, stalling the message in flight on the wall clock
//! without touching the node's own code paths.

use std::collections::HashMap;
use std::sync::RwLock;

use propeller_types::{Duration, NodeId};
use rand::Rng;

use crate::latency::Latency;

/// A shared table of injected per-node delivery delays.
///
/// Empty by default (and checked with one cheap read-lock on the hot
/// path), so clusters that never inject a slowdown pay nothing.
///
/// # Examples
///
/// ```
/// use propeller_sim::{seeded_rng, Latency, NodeSlowdowns};
/// use propeller_types::{Duration, NodeId};
///
/// let slow = NodeSlowdowns::new();
/// let node = NodeId::new(3);
/// slow.set(node, Latency::constant(Duration::from_millis(50)));
///
/// let mut rng = seeded_rng(7);
/// assert_eq!(slow.sample(node, &mut rng), Some(Duration::from_millis(50)));
/// assert_eq!(slow.sample(NodeId::new(4), &mut rng), None);
///
/// slow.clear(node);
/// assert!(slow.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct NodeSlowdowns {
    inner: RwLock<HashMap<NodeId, Latency>>,
}

impl NodeSlowdowns {
    /// An empty table: no node is slowed.
    pub fn new() -> Self {
        NodeSlowdowns::default()
    }

    /// Injects (or replaces) a delivery-delay distribution for `node`.
    pub fn set(&self, node: NodeId, latency: Latency) {
        self.inner.write().expect("slowdown lock").insert(node, latency);
    }

    /// Removes the injected slowdown for `node`, if any.
    pub fn clear(&self, node: NodeId) {
        self.inner.write().expect("slowdown lock").remove(&node);
    }

    /// Whether no node currently has an injected slowdown (the fast-path
    /// check callers use to skip sampling entirely).
    pub fn is_empty(&self) -> bool {
        self.inner.read().expect("slowdown lock").is_empty()
    }

    /// Samples the delay for one delivery to `node`: `None` when the node
    /// is not slowed or the sampled delay is zero.
    pub fn sample<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> Option<Duration> {
        let latency = *self.inner.read().expect("slowdown lock").get(&node)?;
        let d = latency.sample(rng);
        if d == Duration::ZERO {
            None
        } else {
            Some(d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn empty_table_slows_nobody() {
        let slow = NodeSlowdowns::new();
        let mut rng = seeded_rng(1);
        assert!(slow.is_empty());
        assert_eq!(slow.sample(NodeId::new(1), &mut rng), None);
    }

    #[test]
    fn set_clear_round_trip() {
        let slow = NodeSlowdowns::new();
        let node = NodeId::new(2);
        let mut rng = seeded_rng(2);
        slow.set(node, Latency::constant(Duration::from_micros(250)));
        assert_eq!(slow.sample(node, &mut rng), Some(Duration::from_micros(250)));
        assert!(!slow.is_empty());
        slow.clear(node);
        assert_eq!(slow.sample(node, &mut rng), None);
    }

    #[test]
    fn zero_delay_samples_as_none() {
        let slow = NodeSlowdowns::new();
        let node = NodeId::new(3);
        slow.set(node, Latency::zero());
        let mut rng = seeded_rng(3);
        assert_eq!(slow.sample(node, &mut rng), None);
    }
}
