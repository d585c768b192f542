//! # Propeller
//!
//! A from-scratch Rust reproduction of **"Propeller: A Scalable Real-Time
//! File-Search Service in Distributed Systems"** (Xu, Jiang, Tian, Huang —
//! ICDCS 2014).
//!
//! Propeller keeps file-search results *always consistent* with file
//! contents by indexing inline with file modifications, and makes that
//! affordable by partitioning the file index along the **Access-Causality
//! Graph (ACG)**: files a process reads before writing another file are
//! causally linked, causally-linked files cluster into small, mostly
//! disconnected components, and each component becomes an independent
//! index group that one Index Node can update and search without touching
//! the rest of the system.
//!
//! ## Quick start
//!
//! ```
//! use propeller::{FileRecord, Propeller, PropellerConfig, SearchRequest, SortKey};
//! use propeller::types::{AttrName, FileId, InodeAttrs, Timestamp};
//!
//! # fn main() -> Result<(), propeller::types::Error> {
//! let mut service = Propeller::new(PropellerConfig::default());
//!
//! // Inline indexing: the update is acknowledged only once logged.
//! for i in 1..=50u64 {
//!     service.index_file(FileRecord::new(
//!         FileId::new(i),
//!         InodeAttrs::builder().size(i << 20).build(),
//!     ))?;
//! }
//!
//! // Search sees every acknowledged update — no crawl delay, ever.
//! let hits = service.search_text("size>16m")?;
//! assert_eq!(hits.len(), 34);
//!
//! // The canonical search API shapes the result set at the source:
//! // top-k with a bounded heap, sorting, projection, pagination.
//! let req = SearchRequest::parse("size>16m", Timestamp::EPOCH)?
//!     .with_limit(3)
//!     .sorted_by(SortKey::Descending(AttrName::Size));
//! let resp = service.search_with(&req)?;
//! assert_eq!(resp.file_ids(), vec![FileId::new(50), FileId::new(49), FileId::new(48)]);
//! assert!(resp.complete && resp.cursor.is_some());
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | ids, timestamps, attribute values, errors |
//! | [`trace`] | access capture, causality extraction, app profiles |
//! | [`acg`] | the ACG, components, multilevel 2-way partitioner |
//! | [`index`] | B+-tree, hash, K-D tree, WAL, lazy cache, index groups |
//! | [`query`] | query language, planner, executor |
//! | [`storage`] | shared namespace |
//! | [`cluster`] | Master Node, Index Nodes, client engine, RPC fabric |
//! | [`baselines`] | MySQL-like store, Spotlight-like crawler, brute force |
//! | [`workloads`] | namespaces, FPS copiers, mixed loads, Zipf term vocabularies |
//! | [`sim`] | virtual clock, event queue, deterministic RNG |
//!
//! The distributed service lives in [`cluster::Cluster`]; the single-node
//! service (the paper's §V-B configuration) is [`Propeller`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use propeller_core::{
    Cursor, FanOutPolicy, FileRecord, Hit, IndexKind, IndexOp, IndexSpec, Predicate, Projection,
    Propeller, PropellerConfig, Query, SearchRequest, SearchResponse, SearchStats, ServiceStats,
    SortKey,
};

pub use propeller_acg as acg;
pub use propeller_baselines as baselines;
pub use propeller_cluster as cluster;
pub use propeller_index as index;
pub use propeller_query as query;
pub use propeller_sim as sim;
pub use propeller_storage as storage;
pub use propeller_trace as trace;
pub use propeller_types as types;
pub use propeller_workloads as workloads;

pub use propeller_cluster::{Cluster, ClusterConfig, FileQueryEngine};
