//! Index substrate: the structures an Index Node serves per ACG.
//!
//! The paper's Index Node (§IV) maintains, for each ACG it hosts, a group
//! of file indices — "three categories of index structures are supported:
//! B-tree, hash table and K-D-Tree" — fronted by a write-ahead log and an
//! in-memory index cache that commits on a timeout or on the next search.
//! Every piece is built from scratch in this crate:
//!
//! * [`BPlusTree`] — ordered index (point + range). It also backs the
//!   paper's hash tables: a Hash-kind index ([`IndexKind::Hash`]) is an
//!   equality-only B+-tree posting map, because an epoch publishes
//!   copy-on-write in O(batch) and a bucket table would deep-clone,
//! * [`KdTree`] — multi-attribute range index (a bucket K-D tree),
//! * [`Wal`] — CRC-framed write-ahead log with real LSNs (memory or file
//!   backed),
//! * [`snapshot`] — checksummed, LSN-anchored checkpoint files of an ACG's
//!   committed state,
//! * [`durable`] — the one envelope, atomic replace and checkpoint-set rule
//!   every persisted file goes through,
//! * [`IndexCache`] — the lazy-commit buffer,
//! * [`AcgIndexGroup`] — the per-ACG composition of all of the above, with
//!   the user-defined named-index table and crash recovery.
//!
//! # Examples
//!
//! ```
//! use propeller_index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
//! use propeller_types::{AcgId, AttrName, FileId, InodeAttrs, Timestamp, Value};
//!
//! let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
//! let now = Timestamp::from_secs(1);
//! group.enqueue(
//!     IndexOp::Upsert(FileRecord::new(
//!         FileId::new(1),
//!         InodeAttrs::builder().size(4096).build(),
//!     )),
//!     now,
//! ).unwrap();
//! group.commit(now).unwrap();
//! assert_eq!(group.lookup_eq(&AttrName::Size, &Value::U64(4096)).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod cache;
pub mod durable;
mod group;
mod inverted;
mod kdtree;
mod ops;
pub mod snapshot;
mod wal;

pub use btree::{BPlusTree, LeafCursor, Range, RangeRev};
pub use cache::IndexCache;
pub use group::{
    AcgEpoch, AcgIndexGroup, EpochSnapshotJob, GroupConfig, IndexKind, IndexSpec, RecoveryReport,
};
pub use inverted::{
    bm25_block_bound, bm25_idf, bm25_score, bm25_term_bound, record_contains_all,
    record_contains_any, record_contains_phrase, record_text_fields, record_tokens, tokenize,
    tokenize_into, Block, Bm25Scorer, InvertedIndex, Posting, PostingsCursor, TermPostings, BLOCK,
    BM25_B, BM25_K1,
};
pub use kdtree::{BoxPoint, KdTree};
pub use ops::{put_str, take_str, take_u32, take_u64, take_u8, FileRecord, IndexOp};
pub use snapshot::SnapshotData;
pub use wal::{crc32, Wal};
