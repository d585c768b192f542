//! Propeller service facade.
//!
//! Two deployment shapes, matching the paper's evaluation setups:
//!
//! * [`Propeller`] — **single-node mode** (§V-B): the Master Node and one
//!   Index Node in the same process, served inline on the caller's thread
//!   ([`propeller_cluster::Cluster::start_inline`]) and driven by the
//!   cluster's client. This is the configuration the paper benchmarks
//!   against MySQL and Spotlight.
//! * [`propeller_cluster::Cluster`] — the full distributed service (§V-C):
//!   one Master, N Index Nodes on actor threads, parallel client fan-out.
//!
//! Both expose the same conceptual API — named indices, inline indexing,
//! access-trace capture, and always-consistent search through the
//! [`SearchRequest`] / [`SearchResponse`] pair (top-k, sorting,
//! projection, pagination) — because both run the same client and the
//! same maintenance coordinator, [`propeller_cluster::maintain`]: a split
//! is the same logged two-phase migration in either shape.
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
