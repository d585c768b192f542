//! The MySQL-like centralized store.

use std::collections::HashMap;
use std::ops::Bound;

use propeller_index::{BPlusTree, FileRecord};
use propeller_query::{matches_record, Predicate};
use propeller_types::{AttrName, FileId, Value};

/// A centralized relational-style file-metadata store, mirroring the
/// paper's MySQL setup: "one \[table\] for storing the full file path and
/// inode attributes and the other for storing the mapping from keyword to
/// file path" (§V-B), both backed by global B+-tree indexes.
///
/// The defining structural property is **centralization**: one global
/// index per attribute, a synchronous commit per update, no partitioning
/// and no awareness of access locality. Its per-update cost therefore
/// scales with the whole dataset, not with the working set.
///
/// # Examples
///
/// ```
/// use propeller_baselines::CentralDb;
/// use propeller_index::FileRecord;
/// use propeller_query::Query;
/// use propeller_types::{FileId, InodeAttrs, Timestamp};
///
/// let mut db = CentralDb::new();
/// db.upsert(FileRecord::new(
///     FileId::new(1),
///     InodeAttrs::builder().size(2 << 30).build(),
/// ));
/// let q = Query::parse("size>1g", Timestamp::from_secs(0)).unwrap();
/// assert_eq!(db.query(&q.predicate), vec![FileId::new(1)]);
/// ```
#[derive(Debug, Default)]
pub struct CentralDb {
    /// Table 1: file id → full record (path attrs + keywords + custom).
    files: HashMap<FileId, FileRecord>,
    /// Global secondary index over size.
    size_idx: BPlusTree<Value, Vec<FileId>>,
    /// Global secondary index over mtime.
    mtime_idx: BPlusTree<Value, Vec<FileId>>,
    /// Table 2: keyword → files (global B+-tree, as MySQL would index it).
    keyword_idx: BPlusTree<Value, Vec<FileId>>,
    /// Updates applied (each one a synchronous global-index commit).
    commits: u64,
}

fn posting_insert(list: &mut Vec<FileId>, file: FileId) {
    if let Err(pos) = list.binary_search(&file) {
        list.insert(pos, file);
    }
}

fn posting_remove(list: &mut Vec<FileId>, file: FileId) {
    if let Ok(pos) = list.binary_search(&file) {
        list.remove(pos);
    }
}

impl CentralDb {
    /// Creates an empty store.
    pub fn new() -> Self {
        CentralDb::default()
    }

    /// Number of rows in the files table.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Returns `true` when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Number of synchronous commits performed.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Depth of the global size index (the `O(log N)` the paper charges).
    pub fn global_index_depth(&self) -> usize {
        self.size_idx.depth()
    }

    fn index(&mut self, record: &FileRecord) {
        let size = Value::U64(record.attrs.size);
        match self.size_idx.get_mut(&size) {
            Some(list) => posting_insert(list, record.file),
            None => {
                self.size_idx.insert(size, vec![record.file]);
            }
        }
        let mtime = Value::U64(record.attrs.mtime.as_micros());
        match self.mtime_idx.get_mut(&mtime) {
            Some(list) => posting_insert(list, record.file),
            None => {
                self.mtime_idx.insert(mtime, vec![record.file]);
            }
        }
        for kw in &record.keywords {
            let key = Value::from(kw.as_str());
            match self.keyword_idx.get_mut(&key) {
                Some(list) => posting_insert(list, record.file),
                None => {
                    self.keyword_idx.insert(key, vec![record.file]);
                }
            }
        }
    }

    fn unindex(&mut self, record: &FileRecord) {
        if let Some(list) = self.size_idx.get_mut(&Value::U64(record.attrs.size)) {
            posting_remove(list, record.file);
        }
        if let Some(list) = self.mtime_idx.get_mut(&Value::U64(record.attrs.mtime.as_micros())) {
            posting_remove(list, record.file);
        }
        for kw in &record.keywords {
            if let Some(list) = self.keyword_idx.get_mut(&Value::from(kw.as_str())) {
                posting_remove(list, record.file);
            }
        }
    }

    /// Inserts or replaces a row — one synchronous global commit.
    pub fn upsert(&mut self, record: FileRecord) {
        self.commits += 1;
        if let Some(old) = self.files.remove(&record.file) {
            self.unindex(&old);
        }
        self.index(&record);
        self.files.insert(record.file, record);
    }

    /// Deletes a row.
    pub fn remove(&mut self, file: FileId) -> bool {
        self.commits += 1;
        match self.files.remove(&file) {
            Some(old) => {
                self.unindex(&old);
                true
            }
            None => false,
        }
    }

    /// Iterates every stored record.
    pub fn records(&self) -> impl Iterator<Item = &FileRecord> {
        self.files.values()
    }

    /// Answers the same [`SearchRequest`](propeller_query::SearchRequest)
    /// API as Propeller (top-k, sort, projection, cursor), so system
    /// comparisons stay apples-to-apples. Centralized stores always answer
    /// completely or not at all, so the response is always `complete`.
    pub fn search_with(
        &self,
        request: &propeller_query::SearchRequest,
    ) -> propeller_query::SearchResponse {
        propeller_query::run_local_search(self.files.values().cloned(), request)
    }

    /// Runs a predicate query. Uses the global indexes for size/mtime
    /// ranges and keyword equality, then post-filters with the exact
    /// predicate (same executor contract as Propeller's).
    pub fn query(&self, pred: &Predicate) -> Vec<FileId> {
        let candidates = self.candidates(pred);
        let mut out: Vec<FileId> = match candidates {
            Some(c) => c
                .into_iter()
                .filter(|f| self.files.get(f).is_some_and(|r| matches_record(r, pred)))
                .collect(),
            None => {
                self.files.values().filter(|r| matches_record(r, pred)).map(|r| r.file).collect()
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Picks an index-backed candidate superset, mirroring a SQL planner:
    /// keyword equality first, then a size/mtime range.
    fn candidates(&self, pred: &Predicate) -> Option<Vec<FileId>> {
        for conjunct in pred.conjuncts() {
            if let Predicate::Keyword(w) = conjunct {
                return Some(
                    self.keyword_idx.get(&Value::from(w.as_str())).cloned().unwrap_or_default(),
                );
            }
        }
        for conjunct in pred.conjuncts() {
            if let Predicate::Compare { attr, op, value } = conjunct {
                let idx = match attr {
                    AttrName::Size => &self.size_idx,
                    AttrName::Mtime => &self.mtime_idx,
                    _ => continue,
                };
                use propeller_query::CompareOp::*;
                let (lo, hi) = match op {
                    Eq => (Bound::Included(value.clone()), Bound::Included(value.clone())),
                    Gt => (Bound::Excluded(value.clone()), Bound::Unbounded),
                    Ge => (Bound::Included(value.clone()), Bound::Unbounded),
                    Lt => (Bound::Unbounded, Bound::Excluded(value.clone())),
                    Le => (Bound::Unbounded, Bound::Included(value.clone())),
                    Ne => continue,
                };
                let mut files: Vec<FileId> =
                    idx.range((lo, hi)).flat_map(|(_, list)| list.iter().copied()).collect();
                files.sort_unstable();
                files.dedup();
                return Some(files);
            }
        }
        None
    }

    /// Direct row access.
    pub fn record(&self, file: FileId) -> Option<&FileRecord> {
        self.files.get(&file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_query::Query;
    use propeller_types::{InodeAttrs, Timestamp};

    fn now() -> Timestamp {
        Timestamp::from_secs(100 * 86_400)
    }

    fn rec(file: u64, size: u64, age_hours: u64) -> FileRecord {
        FileRecord::new(
            FileId::new(file),
            InodeAttrs::builder()
                .size(size)
                .mtime(now() - propeller_types::Duration::from_secs(age_hours * 3600))
                .build(),
        )
    }

    fn q(text: &str) -> Predicate {
        Query::parse(text, now()).unwrap().predicate
    }

    #[test]
    fn size_range_query() {
        let mut db = CentralDb::new();
        for i in 0..100 {
            db.upsert(rec(i, i << 20, 0));
        }
        assert_eq!(db.query(&q("size>16m")).len(), 83);
        assert_eq!(db.commits(), 100);
    }

    #[test]
    fn keyword_query_uses_table_two() {
        let mut db = CentralDb::new();
        for i in 0..50 {
            let r = rec(i, 1, 0).with_keyword(if i % 5 == 0 { "firefox" } else { "misc" });
            db.upsert(r);
        }
        assert_eq!(db.query(&q("keyword:firefox")).len(), 10);
    }

    #[test]
    fn paper_queries_combined() {
        let mut db = CentralDb::new();
        for i in 0..200u64 {
            let r = rec(i, (i % 50) << 26, i % 72).with_keyword("firefox");
            db.upsert(r);
        }
        // size > 1g & mtime < 1day.
        let hits = db.query(&q("size>1g & mtime<1day"));
        let brute: Vec<FileId> = (0..200u64)
            .filter(|i| ((i % 50) << 26) > (1 << 30) && (i % 72) < 24)
            .map(FileId::new)
            .collect();
        assert_eq!(hits, brute);
        // keyword & mtime < 1week.
        let hits2 = db.query(&q("keyword:firefox & mtime<1week"));
        assert_eq!(hits2.len(), 200); // all are < 72h old and all carry the kw
    }

    #[test]
    fn upsert_replaces_row() {
        let mut db = CentralDb::new();
        db.upsert(rec(1, 100, 0));
        db.upsert(rec(1, 999, 0));
        assert_eq!(db.len(), 1);
        assert!(db.query(&q("size=100")).is_empty());
        assert_eq!(db.query(&q("size=999")), vec![FileId::new(1)]);
    }

    #[test]
    fn remove_row() {
        let mut db = CentralDb::new();
        db.upsert(rec(1, 100, 0));
        assert!(db.remove(FileId::new(1)));
        assert!(!db.remove(FileId::new(1)));
        assert!(db.query(&q("size>=0")).is_empty());
    }

    #[test]
    fn global_depth_grows_with_rows() {
        let mut db = CentralDb::new();
        for i in 0..10_000 {
            db.upsert(rec(i, i, 0));
        }
        assert!(db.global_index_depth() >= 3);
    }

    #[test]
    fn unindexed_attr_falls_back_to_scan() {
        let mut db = CentralDb::new();
        db.upsert(rec(1, 5, 0));
        assert_eq!(db.query(&q("uid=0")), vec![FileId::new(1)]);
        assert!(db.query(&q("uid=99")).is_empty());
    }
}
