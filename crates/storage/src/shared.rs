//! The shared storage namespace under a Propeller cluster.
//!
//! The paper's architecture (Fig. 5) keeps "file raw data and file
//! metadata … managed by the underlying shared storage"; Propeller only
//! owns the index layer. [`SharedStorage`] is that underlying layer: a
//! thread-safe path → (id, attributes) namespace with snapshot import
//! (used by the dynamic-namespace experiments, which import an 89 k-file
//! Ubuntu image).

use std::collections::HashMap;

use parking_lot::RwLock;
use propeller_types::{Error, FileId, InodeAttrs, Result, Timestamp};

#[derive(Debug, Default)]
struct Inner {
    by_path: HashMap<String, FileId>,
    by_id: HashMap<FileId, (String, InodeAttrs)>,
    next_id: u64,
}

/// A thread-safe shared file-system namespace.
///
/// # Examples
///
/// ```
/// use propeller_storage::SharedStorage;
/// use propeller_types::InodeAttrs;
///
/// let storage = SharedStorage::new();
/// let id = storage.create("/data/a.log", InodeAttrs::builder().size(100).build()).unwrap();
/// assert_eq!(storage.stat(id).unwrap().size, 100);
/// assert_eq!(storage.lookup("/data/a.log"), Some(id));
/// assert_eq!(storage.file_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SharedStorage {
    inner: RwLock<Inner>,
}

impl SharedStorage {
    /// Creates an empty namespace.
    pub fn new() -> Self {
        SharedStorage::default()
    }

    /// Creates a file, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the path already exists.
    pub fn create(&self, path: &str, attrs: InodeAttrs) -> Result<FileId> {
        let mut inner = self.inner.write();
        if inner.by_path.contains_key(path) {
            return Err(Error::Config(format!("path {path:?} already exists")));
        }
        let id = FileId::new(inner.next_id);
        inner.next_id += 1;
        inner.by_path.insert(path.to_owned(), id);
        inner.by_id.insert(id, (path.to_owned(), attrs));
        Ok(id)
    }

    /// Creates the file if absent, otherwise updates its attributes.
    pub fn upsert(&self, path: &str, attrs: InodeAttrs) -> FileId {
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_path.get(path) {
            inner.by_id.insert(id, (path.to_owned(), attrs));
            return id;
        }
        let id = FileId::new(inner.next_id);
        inner.next_id += 1;
        inner.by_path.insert(path.to_owned(), id);
        inner.by_id.insert(id, (path.to_owned(), attrs));
        id
    }

    /// Updates attributes in place via a closure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FileNotFound`] if the id is unknown.
    pub fn update<F: FnOnce(&mut InodeAttrs)>(&self, id: FileId, f: F) -> Result<()> {
        let mut inner = self.inner.write();
        match inner.by_id.get_mut(&id) {
            Some((_, attrs)) => {
                f(attrs);
                Ok(())
            }
            None => Err(Error::FileNotFound(id)),
        }
    }

    /// Records a write of `bytes` at `now`: grows the size and touches
    /// mtime (the attribute change Propeller must re-index in real time).
    ///
    /// # Errors
    ///
    /// Returns [`Error::FileNotFound`] if the id is unknown.
    pub fn append(&self, id: FileId, bytes: u64, now: Timestamp) -> Result<()> {
        self.update(id, |attrs| {
            attrs.size += bytes;
            attrs.mtime = now;
        })
    }

    /// Deletes a file by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FileNotFound`] if the id is unknown.
    pub fn delete(&self, id: FileId) -> Result<()> {
        let mut inner = self.inner.write();
        match inner.by_id.remove(&id) {
            Some((path, _)) => {
                inner.by_path.remove(&path);
                Ok(())
            }
            None => Err(Error::FileNotFound(id)),
        }
    }

    /// Resolves a path to its id.
    pub fn lookup(&self, path: &str) -> Option<FileId> {
        self.inner.read().by_path.get(path).copied()
    }

    /// Stats a file by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FileNotFound`] if the id is unknown.
    pub fn stat(&self, id: FileId) -> Result<InodeAttrs> {
        self.inner.read().by_id.get(&id).map(|(_, a)| *a).ok_or(Error::FileNotFound(id))
    }

    /// The path of a file by id.
    pub fn path_of(&self, id: FileId) -> Option<String> {
        self.inner.read().by_id.get(&id).map(|(p, _)| p.clone())
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.inner.read().by_id.len()
    }

    /// Snapshot of all `(id, path, attrs)` rows (brute-force scans and
    /// crawler baselines use this).
    pub fn snapshot(&self) -> Vec<(FileId, String, InodeAttrs)> {
        let inner = self.inner.read();
        let mut rows: Vec<(FileId, String, InodeAttrs)> =
            inner.by_id.iter().map(|(&id, (path, attrs))| (id, path.clone(), *attrs)).collect();
        rows.sort_by_key(|(id, _, _)| *id);
        rows
    }

    /// Bulk-imports `(path, attrs)` rows (snapshot import in Fig. 11's
    /// dynamic-namespace test). Existing paths are overwritten.
    pub fn import<I: IntoIterator<Item = (String, InodeAttrs)>>(&self, rows: I) -> Vec<FileId> {
        rows.into_iter().map(|(path, attrs)| self.upsert(&path, attrs)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::Duration;

    #[test]
    fn create_lookup_stat_delete() {
        let s = SharedStorage::new();
        let id = s.create("/a", InodeAttrs::builder().size(5).build()).unwrap();
        assert_eq!(s.lookup("/a"), Some(id));
        assert_eq!(s.stat(id).unwrap().size, 5);
        assert_eq!(s.path_of(id).as_deref(), Some("/a"));
        s.delete(id).unwrap();
        assert_eq!(s.lookup("/a"), None);
        assert!(matches!(s.stat(id), Err(Error::FileNotFound(_))));
        assert!(s.delete(id).is_err());
    }

    #[test]
    fn duplicate_create_rejected_upsert_allowed() {
        let s = SharedStorage::new();
        s.create("/a", InodeAttrs::default()).unwrap();
        assert!(s.create("/a", InodeAttrs::default()).is_err());
        let id1 = s.lookup("/a").unwrap();
        let id2 = s.upsert("/a", InodeAttrs::builder().size(9).build());
        assert_eq!(id1, id2);
        assert_eq!(s.stat(id1).unwrap().size, 9);
    }

    #[test]
    fn append_touches_size_and_mtime() {
        let s = SharedStorage::new();
        let id = s.create("/log", InodeAttrs::default()).unwrap();
        let t = Timestamp::from_secs(50);
        s.append(id, 1024, t).unwrap();
        s.append(id, 1024, t + Duration::from_secs(1)).unwrap();
        let attrs = s.stat(id).unwrap();
        assert_eq!(attrs.size, 2048);
        assert_eq!(attrs.mtime, t + Duration::from_secs(1));
    }

    #[test]
    fn import_and_snapshot() {
        let s = SharedStorage::new();
        let rows: Vec<(String, InodeAttrs)> = (0..100)
            .map(|i| (format!("/img/f{i}"), InodeAttrs::builder().size(i).build()))
            .collect();
        let ids = s.import(rows);
        assert_eq!(ids.len(), 100);
        assert_eq!(s.file_count(), 100);
        let snap = s.snapshot();
        assert_eq!(snap.len(), 100);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
    }

    #[test]
    fn concurrent_creates_get_unique_ids() {
        let s = std::sync::Arc::new(SharedStorage::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        s.create(&format!("/t{t}/f{i}"), InodeAttrs::default()).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.file_count(), 1000);
        let ids: std::collections::HashSet<FileId> =
            s.snapshot().into_iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids.len(), 1000);
    }
}
