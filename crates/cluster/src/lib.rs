//! The distributed Propeller cluster (paper §IV).
//!
//! A Propeller cluster is one **Master Node** plus N **Index Nodes**,
//! driven by client-side **File Query Engines**:
//!
//! * the Master owns index metadata — the `file → ACG` map, ACG placement
//!   (`ACG → Index Node`), node liveness via heartbeats — and *routes*
//!   requests; it never serves data,
//! * Index Nodes own the per-ACG index groups (WAL + lazy cache + B+-tree /
//!   hash / K-D indices) and the per-ACG causality graphs, execute searches
//!   and perform splits/migrations under Master instruction,
//! * clients resolve target ACGs through the Master, then talk to Index
//!   Nodes **directly and in parallel** — both for batched index updates
//!   and for fan-out searches. No cross-ACG transaction exists anywhere
//!   (paper: "there is no cross-ACG or cross-IN transaction").
//!
//! The wire is an in-process RPC fabric ([`rpc::Rpc`]): every node runs a
//! real thread with a mailbox ([`Cluster::start`]), or is served inline on
//! the sending thread ([`Cluster::start_inline`], the single-node shape).
//! A message costs what delivering it costs on the host; tail-latency
//! tests stall chosen nodes on the wall clock ([`rpc::Rpc::slowdowns`]).
//! Clients fan out through a [`rpc::Gather`] — every request sent from the
//! calling thread, every reply collected on it — so parallelism across
//! nodes costs no thread per request.
//!
//! # Examples
//!
//! Searches are expressed as [`propeller_query::SearchRequest`]s: the
//! predicate plus top-k limit, sort key, projection, pagination cursor and
//! the fan-out failure policy. Each Index Node answers with its local
//! top-k; the client engine k-way merges the per-node lists.
//!
//! ```
//! use propeller_cluster::{Cluster, ClusterConfig};
//! use propeller_index::FileRecord;
//! use propeller_query::{FanOutPolicy, SearchRequest, SortKey};
//! use propeller_types::{AttrName, FileId, InodeAttrs, Timestamp};
//!
//! let cluster = Cluster::start(ClusterConfig { index_nodes: 4, ..Default::default() });
//! let mut client = cluster.client();
//!
//! client.index_files(
//!     (1..=100u64)
//!         .map(|i| FileRecord::new(
//!             FileId::new(i),
//!             InodeAttrs::builder().size(i << 20).build(),
//!         ))
//!         .collect(),
//! ).unwrap();
//!
//! // Top-3 largest files above 16 MiB, tolerating one dead Index Node.
//! let request = SearchRequest::parse("size>16m", Timestamp::from_secs(0))
//!     .unwrap()
//!     .with_limit(3)
//!     .sorted_by(SortKey::Descending(AttrName::Size))
//!     .with_fan_out(FanOutPolicy::AllowPartial { min_nodes: 3 });
//! let resp = client.search_with(&request).unwrap();
//! assert_eq!(resp.file_ids(), vec![FileId::new(100), FileId::new(99), FileId::new(98)]);
//! assert!(resp.complete && resp.unreachable.is_empty());
//! assert!(resp.cursor.is_some(), "more pages available");
//!
//! // The classic wrapper still returns the full sorted id set.
//! assert_eq!(client.search_text("size>99m").unwrap(), vec![FileId::new(100)]);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster;
mod index_node;
mod master;
mod messages;
mod meta;
mod pool;
mod rpc;

pub use client::{ClusterSearchStream, FileQueryEngine};
pub use cluster::{maintain, Cluster, ClusterConfig};
pub use index_node::{IndexNode, IndexNodeConfig, Tombstones};
pub use master::{MasterConfig, MasterNode};
pub use messages::{AcgSummary, MigrationJob, Request, Response};
pub use meta::{MetaImage, MetaOp, Migration};
pub use pool::WorkerPool;
pub use propeller_obs::{MetricsSnapshot, SlowQuery, TraceContext, TraceTree};
pub use rpc::{Gather, Rpc};
