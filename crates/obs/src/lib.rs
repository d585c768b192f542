//! Observability for the Propeller cluster: propagated query traces, a
//! per-node metrics registry, and a slow-query log.
//!
//! Three pieces, one bundle:
//!
//! * **Traces** ([`trace`]) — a [`TraceContext`] rides the wire messages of a
//!   sampled request; every lane it crosses (client, Master, Index Node
//!   actor, worker-pool job, per-ACG execution) records typed [`Span`]s into
//!   its bounded [`SpanBuffer`]. The client harvests the buffers after the
//!   fact (`Request::DumpTrace`) and assembles one [`TraceTree`] with
//!   per-span wall times. All timing goes through the injected `Clock`, so
//!   simulated tests get deterministic trees.
//! * **Metrics** ([`metrics`]) — named counters, gauges and log-linear
//!   [`Histogram`]s (p50/p95/p99/p999, mergeable across nodes by summing
//!   bucket arrays) in a [`MetricsRegistry`] per node, snapshotted over the
//!   wire (`Request::Metrics`) and merged cluster-wide.
//! * **Slow queries** ([`slowlog`]) — requests whose measured service time
//!   exceeds a configured threshold capture their plan, stats and spans into
//!   a bounded per-node ring ([`SlowQueryLog`]) for postmortems.
//!
//! The crate depends only on `propeller-types` (timestamps, ids) so every
//! layer of the system can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use trace::{Lane, OpenSpan, Span, SpanBuffer, SpanKind, TraceContext, TraceNode, TraceTree};

/// Well-known metric names, shared by recorders and reports so the merged
/// cluster view lines up by key. Latency histograms record **microseconds**.
pub mod names {
    /// Node-side search service time (one-shot and session opens), µs.
    pub const SEARCH_LATENCY: &str = "search_latency_us";
    /// Node-side `PullHits` page service time, µs.
    pub const PULL_LATENCY: &str = "pull_latency_us";
    /// Actor-side `IndexBatch` ingest latency (enqueue + fsync), µs.
    pub const INGEST_LATENCY: &str = "ingest_batch_us";
    /// WAL fsync duration, µs.
    pub const WAL_FSYNC: &str = "wal_fsync_us";
    /// Snapshot write duration (serialize + rename), µs.
    pub const SNAPSHOT_DURATION: &str = "snapshot_us";
    /// Epoch-pin wait: request receipt to pinned epochs, µs.
    pub const EPOCH_PIN_WAIT: &str = "epoch_pin_wait_us";
    /// Searches served (one-shot + session opens).
    pub const SEARCHES_SERVED: &str = "searches_served";
    /// Index operations received.
    pub const OPS_RECEIVED: &str = "ops_received";
    /// Commits published (epoch swaps).
    pub const COMMITS_PUBLISHED: &str = "commits_published";
    /// Snapshots offloaded to the background writer.
    pub const SNAPSHOTS_OFFLOADED: &str = "snapshots_offloaded";
    /// Current session-table occupancy.
    pub const OPEN_SESSIONS: &str = "open_sessions";
    /// ACG groups hosted.
    pub const ACGS_HOSTED: &str = "acgs_hosted";
    /// Route-cache lookups that hit.
    pub const ROUTE_CACHE_HITS: &str = "route_cache_hits";
    /// Route-cache lookups that missed.
    pub const ROUTE_CACHE_MISSES: &str = "route_cache_misses";
    /// Route-cache LRU evictions.
    pub const ROUTE_CACHE_EVICTIONS: &str = "route_cache_evictions";
    /// Routes dropped by Master invalidation hints (incl. full clears).
    pub const ROUTE_CACHE_INVALIDATIONS: &str = "route_cache_invalidations";
    /// Mid-stream replica failovers.
    pub const REPLICA_FAILOVERS: &str = "replica_failovers";
    /// Slow queries captured in the ring.
    pub const SLOW_QUERIES: &str = "slow_queries";
    /// Master-side file-route resolves served.
    pub const RESOLVES_SERVED: &str = "resolves_served";
    /// Master-side search plans served (`LocateAcgs`).
    pub const LOCATES_SERVED: &str = "locates_served";
    /// Client-side end-to-end search latency (request to last hit), µs.
    pub const CLIENT_SEARCH_LATENCY: &str = "client_search_latency_us";
}

/// The per-lane observability bundle: one metrics registry, one span
/// buffer, one slow-query ring. Index Nodes, the Master and each client
/// engine own one; worker-pool jobs share the node's via `Arc`.
#[derive(Debug)]
pub struct NodeObs {
    /// Named counters / gauges / histograms for this lane.
    pub metrics: MetricsRegistry,
    /// Bounded span buffer traces are recorded into.
    pub spans: SpanBuffer,
    /// Bounded slow-query ring.
    pub slow: SlowQueryLog,
}

/// Default span-buffer capacity (spans retained per lane).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;
/// Default slow-query ring capacity.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

impl NodeObs {
    /// A bundle for `lane` with the default capacities.
    pub fn new(lane: Lane) -> Self {
        Self::with_capacities(lane, DEFAULT_SPAN_CAPACITY, DEFAULT_SLOW_CAPACITY)
    }

    /// A bundle with explicit span-buffer and slow-ring capacities.
    pub fn with_capacities(lane: Lane, span_capacity: usize, slow_capacity: usize) -> Self {
        NodeObs {
            metrics: MetricsRegistry::new(),
            spans: SpanBuffer::new(lane, span_capacity),
            slow: SlowQueryLog::new(slow_capacity),
        }
    }
}
