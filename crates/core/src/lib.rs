//! Propeller service facade.
//!
//! Two deployment shapes, matching the paper's evaluation setups:
//!
//! * [`Propeller`] — **single-node mode** (§V-B): the Master Node and one
//!   Index Node run in the same process with no RPC layer. This is the
//!   configuration the paper benchmarks against MySQL and Spotlight.
//! * [`propeller_cluster::Cluster`] — the full distributed service (§V-C):
//!   one Master, N Index Nodes, parallel client fan-out.
//!
//! Both expose the same conceptual API: create named indices, feed file
//! records (inline indexing), feed access traces (ACG capture), search with
//! always-consistent results through the [`SearchRequest`] /
//! [`SearchResponse`] pair (top-k, sorting, projection, pagination). Both
//! also split oversized ACGs the same way: [`Propeller::maintenance`] runs
//! the cluster's coordinator, [`propeller_cluster::maintain`], against its
//! in-process Master and Index Node, so a split is the same logged
//! two-phase migration in either shape.
//!
//! # Examples
//!
//! ```
//! use propeller_core::{Propeller, PropellerConfig, SearchRequest, SortKey};
//! use propeller_index::FileRecord;
//! use propeller_types::{AttrName, FileId, InodeAttrs, Timestamp};
//!
//! let mut service = Propeller::new(PropellerConfig::default());
//! for i in 1..=100u64 {
//!     service.index_file(FileRecord::new(
//!         FileId::new(i),
//!         InodeAttrs::builder().size(i << 20).build(),
//!     )).unwrap();
//! }
//!
//! // The canonical API: top-k with sorting, stats and a cursor.
//! let req = SearchRequest::parse("size>16m", Timestamp::EPOCH)
//!     .unwrap()
//!     .with_limit(3)
//!     .sorted_by(SortKey::Descending(AttrName::Size));
//! let resp = service.search_with(&req).unwrap();
//! assert_eq!(resp.file_ids(), vec![FileId::new(100), FileId::new(99), FileId::new(98)]);
//! assert!(resp.complete);
//! assert!(resp.cursor.is_some());
//!
//! // The classic wrapper still answers with the full sorted id set.
//! assert_eq!(service.search_text("size>99m").unwrap(), vec![FileId::new(100)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;

pub use service::{Propeller, PropellerConfig, ServiceStats};

pub use propeller_cluster as cluster;
pub use propeller_index::{FileRecord, IndexKind, IndexOp, IndexSpec};
pub use propeller_query::{
    Cursor, FanOutPolicy, Hit, Predicate, Projection, Query, SearchRequest, SearchResponse,
    SearchStats, SortKey,
};
