//! A hash-sharded centralized store (the paper's future-work comparison).
//!
//! The paper notes (§V) that "current SQL (MySQL cluster), NoSQL (MongoDB)
//! and full text search (ElasticSearch) solutions can partition (shard)
//! datasets based on a chosen key, and thus they are not aware of
//! file-system access patterns", leaving the comparison to future work.
//! [`ShardedDb`] realises that class: N independent [`CentralDb`] shards
//! with files assigned by id hash. Shard-local indices are small (good),
//! but because placement ignores access causality, an application's
//! working set spreads across *all* shards — every process execution
//! touches ~N shards where Propeller touches 1.

use propeller_index::FileRecord;
use propeller_query::Predicate;
use propeller_types::FileId;

use crate::centraldb::CentralDb;

/// A hash-sharded store: key-partitioned, access-pattern-blind.
///
/// # Examples
///
/// ```
/// use propeller_baselines::ShardedDb;
/// use propeller_index::FileRecord;
/// use propeller_query::Query;
/// use propeller_types::{FileId, InodeAttrs, Timestamp};
///
/// let mut db = ShardedDb::new(4);
/// for i in 0..100u64 {
///     db.upsert(FileRecord::new(
///         FileId::new(i),
///         InodeAttrs::builder().size(i << 20).build(),
///     ));
/// }
/// let q = Query::parse("size>16m", Timestamp::from_secs(0)).unwrap();
/// assert_eq!(db.query(&q.predicate).len(), 83);
/// assert_eq!(db.shards(), 4);
/// ```
#[derive(Debug)]
pub struct ShardedDb {
    shards: Vec<CentralDb>,
}

impl ShardedDb {
    /// Creates a store with `shards` hash partitions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        ShardedDb { shards: (0..shards).map(|_| CentralDb::new()).collect() }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a file hashes to (stable SplitMix64 of the id).
    pub fn shard_of(&self, file: FileId) -> usize {
        let mut z = file.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z % self.shards.len() as u64) as usize
    }

    /// Inserts or replaces a row on its hash shard.
    pub fn upsert(&mut self, record: FileRecord) {
        let s = self.shard_of(record.file);
        self.shards[s].upsert(record);
    }

    /// Deletes a row.
    pub fn remove(&mut self, file: FileId) -> bool {
        let s = self.shard_of(file);
        self.shards[s].remove(file)
    }

    /// Answers the same [`SearchRequest`](propeller_query::SearchRequest)
    /// API as Propeller: scatter–gather over every shard, merged into one
    /// shaped result set.
    pub fn search_with(
        &self,
        request: &propeller_query::SearchRequest,
    ) -> propeller_query::SearchResponse {
        propeller_query::run_local_search(
            self.shards.iter().flat_map(|s| s.records().cloned()),
            request,
        )
    }

    /// Queries every shard and merges (scatter–gather: a search always
    /// costs all N shards, because the key tells us nothing about which
    /// shards hold matching files).
    pub fn query(&self, pred: &Predicate) -> Vec<FileId> {
        let mut out: Vec<FileId> = self.shards.iter().flat_map(|s| s.query(pred)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total rows across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(CentralDb::len).sum()
    }

    /// Returns `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many distinct shards a set of files (one process execution's
    /// working set) touches — the access-concentration metric that
    /// Propeller's ACG placement minimises and hash placement destroys.
    pub fn shards_touched(&self, files: &[FileId]) -> usize {
        let set: std::collections::HashSet<usize> =
            files.iter().map(|&f| self.shard_of(f)).collect();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_query::Query;
    use propeller_types::{InodeAttrs, Timestamp};

    fn rec(file: u64, size: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(size).build())
    }

    fn q(text: &str) -> Predicate {
        Query::parse(text, Timestamp::EPOCH).unwrap().predicate
    }

    #[test]
    fn sharded_results_match_unsharded() {
        let mut sharded = ShardedDb::new(8);
        let mut single = CentralDb::new();
        for i in 0..500u64 {
            sharded.upsert(rec(i, i << 16));
            single.upsert(rec(i, i << 16));
        }
        for text in ["size>1m", "size>1m & size<16m", "size<=0"] {
            assert_eq!(sharded.query(&q(text)), single.query(&q(text)), "{text}");
        }
    }

    #[test]
    fn placement_is_stable_and_spread() {
        let db = ShardedDb::new(4);
        for i in 0..100 {
            assert_eq!(db.shard_of(FileId::new(i)), db.shard_of(FileId::new(i)));
        }
        let counts: Vec<usize> = (0..4)
            .map(|s| (0..1000).filter(|&i| db.shard_of(FileId::new(i)) == s).count())
            .collect();
        assert!(counts.iter().all(|&c| c > 150), "roughly uniform: {counts:?}");
    }

    #[test]
    fn working_sets_scatter_across_shards() {
        // A 40-file working set on 8 shards touches ~all of them — the
        // structural cost of access-blind placement.
        let db = ShardedDb::new(8);
        let files: Vec<FileId> = (0..40).map(FileId::new).collect();
        assert!(db.shards_touched(&files) >= 7);
    }

    #[test]
    fn remove_routes_to_owning_shard() {
        let mut db = ShardedDb::new(3);
        db.upsert(rec(9, 100));
        assert!(db.remove(FileId::new(9)));
        assert!(!db.remove(FileId::new(9)));
        assert!(db.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedDb::new(0);
    }
}
