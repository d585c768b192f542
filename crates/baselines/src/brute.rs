//! Brute-force full scan (Table V's baseline row).

use std::sync::Arc;

use propeller_index::FileRecord;
use propeller_query::{matches_record, Predicate};
use propeller_storage::SharedStorage;
use propeller_types::FileId;

/// Ground-truth search: scan every file in shared storage and evaluate the
/// predicate directly. Always 100% recall; cost scales linearly with the
/// namespace (the paper's Table V "Brute-Force" rows take 51.9 s / 110.4 s
/// cold where Propeller takes ~3 s).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use propeller_baselines::BruteForce;
/// use propeller_query::Query;
/// use propeller_storage::SharedStorage;
/// use propeller_types::{InodeAttrs, Timestamp};
///
/// let storage = Arc::new(SharedStorage::new());
/// storage.create("/big", InodeAttrs::builder().size(1 << 30).build()).unwrap();
/// storage.create("/small", InodeAttrs::builder().size(1).build()).unwrap();
///
/// let brute = BruteForce::new(storage.clone());
/// let q = Query::parse("size>16m", Timestamp::from_secs(0)).unwrap();
/// assert_eq!(brute.query(&q.predicate).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BruteForce {
    storage: Arc<SharedStorage>,
}

impl BruteForce {
    /// A scanner over the given namespace.
    pub fn new(storage: Arc<SharedStorage>) -> Self {
        BruteForce { storage }
    }

    /// Answers the same [`SearchRequest`](propeller_query::SearchRequest)
    /// API as Propeller with a full scan — the ground-truth implementation
    /// of the request semantics.
    pub fn search_with(
        &self,
        request: &propeller_query::SearchRequest,
    ) -> propeller_query::SearchResponse {
        propeller_query::run_local_search(
            self.storage
                .snapshot()
                .into_iter()
                .map(|(id, _path, attrs)| FileRecord::new(id, attrs)),
            request,
        )
    }

    /// Scans everything, evaluating `pred` per file.
    pub fn query(&self, pred: &Predicate) -> Vec<FileId> {
        self.storage
            .snapshot()
            .into_iter()
            .filter_map(|(id, _path, attrs)| {
                let record = FileRecord::new(id, attrs);
                matches_record(&record, pred).then_some(id)
            })
            .collect()
    }

    /// Number of files the scan would visit.
    pub fn scan_size(&self) -> usize {
        self.storage.file_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_query::Query;
    use propeller_types::{InodeAttrs, Timestamp};

    #[test]
    fn scan_finds_exactly_the_matches() {
        let storage = Arc::new(SharedStorage::new());
        for i in 0..100u64 {
            storage.create(&format!("/f{i}"), InodeAttrs::builder().size(i << 20).build()).unwrap();
        }
        let brute = BruteForce::new(storage);
        let q = Query::parse("size>16m", Timestamp::EPOCH).unwrap();
        assert_eq!(brute.query(&q.predicate).len(), 83);
        assert_eq!(brute.scan_size(), 100);
    }

    #[test]
    fn scan_sees_updates_immediately() {
        let storage = Arc::new(SharedStorage::new());
        let id = storage.create("/x", InodeAttrs::default()).unwrap();
        let brute = BruteForce::new(storage.clone());
        let q = Query::parse("size>1m", Timestamp::EPOCH).unwrap();
        assert!(brute.query(&q.predicate).is_empty());
        storage.update(id, |a| a.size = 10 << 20).unwrap();
        assert_eq!(brute.query(&q.predicate), vec![id]);
    }
}
