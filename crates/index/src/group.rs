//! The per-ACG index group.
//!
//! Every ACG owns one [`AcgIndexGroup`] on its Index Node (paper §IV): a
//! record store plus a *named index table* mapping user-chosen index names
//! to concrete structures (B+-tree, hash table or K-D tree — "each ACG can
//! have all three types"; a hash table is an equality-only B+-tree). Updates flow through the WAL and the lazy
//! [`IndexCache`]; a commit applies buffered ops to every index. Searches
//! must observe all acknowledged updates, so the owning node commits
//! before serving a search (the paper's consistency rule).
//!
//! ## Durability
//!
//! A group with an in-memory WAL truncates its log at every commit (the
//! historical behaviour — nothing in memory survives a crash anyway). A
//! group with a **file-backed** WAL keeps committed frames in the log
//! until a [`AcgIndexGroup::snapshot`] covers them: the snapshot
//! serializes the committed state stamped with the WAL LSN it reflects,
//! and the log is truncated up to the *previous* retained snapshot's LSN
//! (two-checkpoint retention: a corrupt newest snapshot still recovers
//! fully from the older one plus a longer suffix). Recovery
//! ([`AcgIndexGroup::recover`]) loads the newest valid snapshot and
//! replays only the WAL suffix past its LSN, falling back to older
//! snapshots and ultimately to a full replay when files fail validation.
//! Retention and recovery are the [`crate::durable`] checkpoint-set rules.

use std::collections::HashMap;
use std::ops::{Bound, Deref};
use std::path::PathBuf;
use std::sync::Arc;

use propeller_types::{AcgId, AttrName, Duration, Error, FileId, Result, Timestamp, Value};
use serde::{Deserialize, Serialize};

use crate::btree::{BPlusTree, LeafCursor};
use crate::cache::IndexCache;
use crate::durable;
use crate::inverted::InvertedIndex;
use crate::kdtree::{BoxPoint, KdTree};
use crate::ops::{FileRecord, IndexOp};
use crate::snapshot::{self, SnapshotData};
use crate::wal::Wal;

/// The concrete structure behind a named index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// Ordered B+-tree (range and point queries).
    BTree,
    /// Hash table (point queries).
    Hash,
    /// K-D tree (multi-attribute range queries).
    Kd,
    /// Inverted index over tokenized keywords and text-valued custom
    /// attributes (term search with BM25 ranking).
    Inverted,
}

/// A user-defined index: a globally unique name, a structure kind, and the
/// attribute(s) it covers (one for `BTree`/`Hash`, one or more for `Kd`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexSpec {
    /// Globally unique index name (paper §IV "Workflow").
    pub name: String,
    /// Backing structure.
    pub kind: IndexKind,
    /// Covered attributes.
    pub attrs: Vec<AttrName>,
}

impl IndexSpec {
    /// A B+-tree index over one attribute.
    pub fn btree(name: impl Into<String>, attr: AttrName) -> Self {
        IndexSpec { name: name.into(), kind: IndexKind::BTree, attrs: vec![attr] }
    }

    /// A hash index over one attribute.
    pub fn hash(name: impl Into<String>, attr: AttrName) -> Self {
        IndexSpec { name: name.into(), kind: IndexKind::Hash, attrs: vec![attr] }
    }

    /// A K-D-tree index over several attributes. The planner boxes only
    /// sets of builtin inode attributes: a record missing a custom
    /// attribute, or holding several values of it, has no point in the tree.
    pub fn kd(name: impl Into<String>, attrs: Vec<AttrName>) -> Self {
        IndexSpec { name: name.into(), kind: IndexKind::Kd, attrs }
    }

    /// An inverted text index. It implicitly covers every keyword and
    /// string-valued custom attribute, so it names no attributes.
    pub fn inverted(name: impl Into<String>) -> Self {
        IndexSpec { name: name.into(), kind: IndexKind::Inverted, attrs: Vec::new() }
    }
}

/// Configuration for an [`AcgIndexGroup`].
#[derive(Debug)]
pub struct GroupConfig {
    /// Lazy-commit timeout (paper default: 5 seconds).
    pub commit_timeout: Duration,
    /// Write-ahead log backing this group.
    pub wal: Wal,
    /// Create the paper's default indices (B+-tree on size and mtime, hash
    /// on keyword, K-D tree on (size, mtime)) plus the content inverted
    /// index for ranked term search.
    pub default_indices: bool,
    /// Where [`AcgIndexGroup::snapshot`] writes its checkpoint files and
    /// recovery looks for them. `None` (the default) disables snapshots.
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            commit_timeout: Duration::from_secs(5),
            wal: Wal::in_memory(),
            default_indices: true,
            snapshot_dir: None,
        }
    }
}

/// What [`AcgIndexGroup::recover_with_report`] found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot the recovery was anchored to (`None` = no
    /// usable snapshot; the whole WAL was replayed).
    pub snapshot_lsn: Option<u64>,
    /// Records restored from the snapshot.
    pub snapshot_records: usize,
    /// Ops replayed from the WAL suffix.
    pub replayed_ops: usize,
    /// Snapshot files skipped because they failed validation (torn,
    /// corrupt or mislabeled); recovery fell back past each of them.
    pub snapshots_skipped: usize,
}

/// A sorted posting list of files holding a given attribute value.
type PostingList = Vec<FileId>;

fn posting_insert(list: &mut PostingList, file: FileId) {
    if let Err(pos) = list.binary_search(&file) {
        list.insert(pos, file);
    }
}

fn posting_remove(list: &mut PostingList, file: FileId) {
    if let Ok(pos) = list.binary_search(&file) {
        list.remove(pos);
    }
}

/// The immutable, published read side of an ACG's index group: the
/// committed record store plus every index root as of one commit.
///
/// An epoch is a *persistent* (structurally shared) value: its B+-trees and
/// inverted indices path-copy on mutation and its K-D trees copy only the
/// leaf buckets ops touch, so cloning an epoch is O(#indices) refcount
/// bumps and two epochs share all untouched nodes and leaves.
/// [`AcgIndexGroup::commit`] publishes a new epoch with a single `Arc`
/// swap; readers that pinned the previous epoch (via
/// [`AcgIndexGroup::pin`]) keep reading it unperturbed until their last
/// pin drops, at which point its unshared nodes are freed.
///
/// All search-side accessors live here; [`AcgIndexGroup`] derefs to its
/// current epoch so existing read call sites keep working.
#[derive(Debug, Clone)]
pub struct AcgEpoch {
    id: AcgId,
    /// Publish counter: bumped once per epoch swap (commit with a
    /// non-empty batch, index create/drop, seed install).
    generation: u64,
    records: BPlusTree<FileId, Arc<FileRecord>>,
    specs: Vec<IndexSpec>,
    btrees: HashMap<AttrName, BPlusTree<Value, Arc<PostingList>>>,
    /// Hash-kind indices. They keep the hash index's planner role (point
    /// probes only, preferred over B+-trees for equality) but are
    /// tree-backed: a real bucket table would cost O(buckets) per
    /// copy-on-write clone, while the tree path-copies in O(log n).
    hashes: HashMap<AttrName, BPlusTree<Value, Arc<PostingList>>>,
    kds: HashMap<String, (Vec<AttrName>, KdTree)>,
    inverteds: HashMap<String, InvertedIndex>,
    /// WAL LSN through which ops have been applied into the indices: the
    /// commit watermark a snapshot of this epoch is stamped with.
    applied_lsn: u64,
    ops_applied: u64,
}

impl AcgEpoch {
    fn empty(id: AcgId) -> Self {
        AcgEpoch {
            id,
            generation: 0,
            records: BPlusTree::new(),
            specs: Vec::new(),
            btrees: HashMap::new(),
            hashes: HashMap::new(),
            kds: HashMap::new(),
            inverteds: HashMap::new(),
            applied_lsn: 0,
            ops_applied: 0,
        }
    }

    /// This epoch's ACG id.
    pub fn id(&self) -> AcgId {
        self.id
    }

    /// Publish counter of this epoch (how many swaps preceded it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The WAL LSN through which ops were committed into this epoch.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// Number of operations applied to the indices over the group's life
    /// up to this epoch.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Number of indexed files.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no file is indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The named index table (paper: each ACG has a table mapping index
    /// names to structures).
    pub fn index_specs(&self) -> &[IndexSpec] {
        &self.specs
    }

    fn create_index(&mut self, spec: IndexSpec) -> Result<()> {
        if self.specs.iter().any(|s| s.name == spec.name) {
            return Err(Error::IndexExists(spec.name));
        }
        match spec.kind {
            IndexKind::BTree | IndexKind::Hash => {
                if spec.attrs.len() != 1 {
                    return Err(Error::Config(format!(
                        "index {:?} needs exactly one attribute",
                        spec.name
                    )));
                }
            }
            IndexKind::Kd => {
                if spec.attrs.is_empty() {
                    return Err(Error::Config(format!(
                        "k-d index {:?} needs at least one attribute",
                        spec.name
                    )));
                }
            }
            IndexKind::Inverted => {
                if !spec.attrs.is_empty() {
                    return Err(Error::Config(format!(
                        "inverted index {:?} covers all text implicitly; it takes no attributes",
                        spec.name
                    )));
                }
            }
        }
        match spec.kind {
            IndexKind::BTree | IndexKind::Hash => {
                let attr = spec.attrs[0].clone();
                let mut tree = BPlusTree::new();
                for (_, record) in self.records.iter() {
                    for value in Self::record_values(record, &attr) {
                        match tree.get_mut(&value) {
                            Some(list) => posting_insert(Arc::make_mut(list), record.file),
                            None => {
                                tree.insert(value, Arc::new(vec![record.file]));
                            }
                        }
                    }
                }
                if spec.kind == IndexKind::BTree {
                    self.btrees.insert(attr, tree);
                } else {
                    self.hashes.insert(attr, tree);
                }
            }
            IndexKind::Kd => {
                let attrs = spec.attrs.clone();
                let points: Vec<(Vec<f64>, FileId)> = self
                    .records
                    .iter()
                    .filter_map(|(_, r)| Self::kd_point(r, &attrs).map(|p| (p, r.file)))
                    .collect();
                let tree = KdTree::bulk_load(attrs.len(), points);
                self.kds.insert(spec.name.clone(), (attrs, tree));
            }
            IndexKind::Inverted => {
                let mut inv = InvertedIndex::new();
                for (_, record) in self.records.iter() {
                    inv.insert(record);
                }
                self.inverteds.insert(spec.name.clone(), inv);
            }
        }
        self.specs.push(spec);
        Ok(())
    }

    fn drop_index(&mut self, name: &str) -> Result<()> {
        let pos = self
            .specs
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| Error::IndexNotFound(name.to_owned()))?;
        let spec = self.specs.remove(pos);
        match spec.kind {
            IndexKind::BTree => {
                let attr = &spec.attrs[0];
                if !self
                    .specs
                    .iter()
                    .any(|s| s.kind == IndexKind::BTree && s.attrs.first() == Some(attr))
                {
                    self.btrees.remove(attr);
                }
            }
            IndexKind::Hash => {
                let attr = &spec.attrs[0];
                if !self
                    .specs
                    .iter()
                    .any(|s| s.kind == IndexKind::Hash && s.attrs.first() == Some(attr))
                {
                    self.hashes.remove(attr);
                }
            }
            IndexKind::Kd => {
                self.kds.remove(&spec.name);
            }
            IndexKind::Inverted => {
                self.inverteds.remove(&spec.name);
            }
        }
        Ok(())
    }

    fn apply(&mut self, op: IndexOp) {
        self.ops_applied += 1;
        match op {
            IndexOp::Upsert(record) => {
                if let Some(old) = self.records.remove(&record.file) {
                    self.unindex(&old);
                }
                self.index(&record);
                self.records.insert(record.file, Arc::new(record));
            }
            IndexOp::Remove(file) => {
                if let Some(old) = self.records.remove(&file) {
                    self.unindex(&old);
                }
            }
        }
    }

    fn index(&mut self, record: &FileRecord) {
        for (attr, tree) in self.btrees.iter_mut().chain(self.hashes.iter_mut()) {
            for value in Self::record_values(record, attr) {
                match tree.get_mut(&value) {
                    Some(list) => posting_insert(Arc::make_mut(list), record.file),
                    None => {
                        tree.insert(value, Arc::new(vec![record.file]));
                    }
                }
            }
        }
        for (attrs, tree) in self.kds.values_mut() {
            if let Some(point) = Self::kd_point(record, attrs) {
                tree.insert(&point, record.file);
            }
        }
        for inv in self.inverteds.values_mut() {
            inv.insert(record);
        }
    }

    fn unindex(&mut self, record: &FileRecord) {
        for (attr, tree) in self.btrees.iter_mut().chain(self.hashes.iter_mut()) {
            for value in Self::record_values(record, attr) {
                if let Some(list) = tree.get_mut(&value) {
                    posting_remove(Arc::make_mut(list), record.file);
                }
            }
        }
        for (attrs, tree) in self.kds.values_mut() {
            if let Some(point) = Self::kd_point(record, attrs) {
                tree.remove(&point, record.file);
            }
        }
        for inv in self.inverteds.values_mut() {
            inv.remove(record);
        }
    }

    /// The values a record contributes to an attribute's index.
    fn record_values(record: &FileRecord, attr: &AttrName) -> Vec<Value> {
        match attr {
            AttrName::Keyword => record.keywords.iter().map(|k| Value::from(k.as_str())).collect(),
            AttrName::Custom(name) => {
                record.custom.iter().filter(|(n, _)| n == name).map(|(_, v)| v.clone()).collect()
            }
            builtin => record.attrs.get(builtin).into_iter().collect(),
        }
    }

    /// The K-D point of a record over `attrs`, or `None` when any attribute
    /// is missing or multi-valued.
    fn kd_point(record: &FileRecord, attrs: &[AttrName]) -> Option<Vec<f64>> {
        let mut point = Vec::with_capacity(attrs.len());
        for attr in attrs {
            let values = Self::record_values(record, attr);
            if values.len() != 1 {
                return None;
            }
            point.push(values[0].axis_projection());
        }
        Some(point)
    }

    // --- Search-side accessors (the owning node commits before opening a
    // search, then executes against a pinned epoch) ----------------------

    /// Files with `attr == value`: [`AcgEpoch::posting_list`] copied out,
    /// empty when no index covers `attr`.
    pub fn lookup_eq(&self, attr: &AttrName, value: &Value) -> Vec<FileId> {
        self.posting_list(attr, value).unwrap_or_default().to_vec()
    }

    /// How many files hold `attr == value`: the length of
    /// [`AcgEpoch::posting_list`], read with no record touched. `None` when
    /// no index covers `attr`.
    pub fn eq_count(&self, attr: &AttrName, value: &Value) -> Option<usize> {
        self.posting_list(attr, value).map(<[FileId]>::len)
    }

    /// The posting list of `attr == value` in the hash-kind index over
    /// `attr`, else its B+-tree (empty when nothing holds the value):
    /// sorted, unique file ids. `None` when neither index exists.
    pub fn posting_list(&self, attr: &AttrName, value: &Value) -> Option<&[FileId]> {
        let tree = self.hashes.get(attr).or_else(|| self.btrees.get(attr))?;
        Some(tree.get(value).map_or(&[], |list| list.as_slice()))
    }

    /// Files with `attr` in the given bounds, sorted and unique, off the
    /// B+-tree over `attr`; empty when there is none.
    pub fn lookup_range(&self, attr: &AttrName, lo: Bound<Value>, hi: Bound<Value>) -> Vec<FileId> {
        let Some(tree) = self.btrees.get(attr) else { return Vec::new() };
        let mut out: Vec<FileId> =
            tree.range((lo, hi)).flat_map(|(_, list)| list.iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    // --- Index walks --------------------------------------------------------
    //
    // What the executor streams candidates from: index entries, never
    // records. A candidate's record is resolved through
    // `AcgEpoch::record_cursor` only when the search reads it.

    /// A point-lookup cursor over the record store. Posting lists and
    /// sorted K-D boxes are in file-id order and so is the store, so a run
    /// of ids costs one root-to-leaf descent per store leaf it touches,
    /// not one per id; a run starting over at a smaller id merely
    /// re-descends.
    pub fn record_cursor(&self) -> LeafCursor<'_, FileId, Arc<FileRecord>> {
        self.records.cursor()
    }

    /// Walks the B+-tree over `attr` within the bounds: its entries
    /// `(value, file)` in `attr` order (ascending or descending), equal
    /// values by ascending file id, with no record touched. `None` when no
    /// B+-tree covers `attr`.
    ///
    /// For a single-valued builtin attribute the entry's value *is* the
    /// record's value (`index` inserts exactly `record.attrs.get(attr)`),
    /// so the walk is in exact result order for a sort over `attr` and
    /// carries every hit's sort key. A multi-valued attribute yields a
    /// file once per in-range value.
    pub fn entries<'a>(
        &'a self,
        attr: &AttrName,
        lo: Bound<Value>,
        hi: Bound<Value>,
        descending: bool,
    ) -> Option<Box<dyn Iterator<Item = (&'a Value, FileId)> + 'a>> {
        let tree = self.btrees.get(attr)?;
        let entry = |(value, list): (&'a Value, &'a Arc<PostingList>)| {
            list.iter().map(move |&file| (value, file))
        };
        Some(if descending {
            Box::new(tree.range_rev((lo, hi)).flat_map(entry))
        } else {
            Box::new(tree.range((lo, hi)).flat_map(entry))
        })
    }

    /// The points inside a K-D box query ([`KdTree::range_iter`]), sorted
    /// by file id, each flagged [`BoxPoint::interior`] when it lies
    /// strictly inside the box, with no record touched. `None` when no K-D
    /// index covers exactly these attributes. Files are unique (one point
    /// per file per index).
    pub fn candidates_kd(
        &self,
        attrs: &[AttrName],
        lo: &[f64],
        hi: &[f64],
    ) -> Option<Vec<BoxPoint>> {
        let (_, tree) = self.kds.values().find(|(kd_attrs, _)| kd_attrs == attrs)?;
        let mut points: Vec<BoxPoint> = tree.range_iter(lo, hi).collect();
        points.sort_unstable_by_key(|p| p.id);
        Some(points)
    }

    /// Full scan with a predicate (the executor's fallback path). Results
    /// come out sorted (the record store iterates in file-id order).
    pub fn scan<F: Fn(&FileRecord) -> bool>(&self, pred: F) -> Vec<FileId> {
        self.records.iter().filter(|(_, r)| pred(r)).map(|(f, _)| *f).collect()
    }

    /// The indexed record for `file`, if any.
    pub fn record(&self, file: FileId) -> Option<&FileRecord> {
        self.records.get(&file).map(|r| &**r)
    }

    /// Iterates over all indexed records (in file-id order).
    pub fn records(&self) -> impl Iterator<Item = &FileRecord> {
        self.records.iter().map(|(_, r)| &**r)
    }

    /// Files currently indexed (sorted).
    pub fn files(&self) -> Vec<FileId> {
        self.records.iter().map(|(f, _)| *f).collect()
    }

    /// The epoch's inverted text index, if one exists (several specs would
    /// hold identical structures, so the executor takes any).
    pub fn inverted(&self) -> Option<&InvertedIndex> {
        self.inverteds.values().next()
    }
}

/// A snapshot write prepared by [`AcgIndexGroup::begin_snapshot`]: the
/// pinned epoch plus everything needed to serialize it. The write runs on
/// any thread — the group (and its actor) keeps committing while the
/// pinned epoch is streamed to disk.
#[derive(Debug, Clone)]
pub struct EpochSnapshotJob {
    dir: PathBuf,
    /// The LSN the snapshot will be stamped with (the pinned epoch's
    /// applied LSN).
    pub lsn: u64,
    /// The pinned epoch being serialized.
    pub epoch: Arc<AcgEpoch>,
}

impl EpochSnapshotJob {
    /// Serializes the pinned epoch to the snapshot directory. Safe to call
    /// off the owning thread.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failures.
    pub fn write(&self) -> Result<PathBuf> {
        snapshot::write_snapshot(
            &self.dir,
            self.epoch.id(),
            self.lsn,
            self.epoch.index_specs(),
            self.epoch.records(),
        )
    }
}

/// The index group of one ACG: the mutable *build side* (WAL + lazy
/// cache + snapshot bookkeeping) wrapped around the currently published
/// [`AcgEpoch`].
///
/// The group derefs to its current epoch, so all search-side accessors
/// ([`AcgEpoch::lookup_eq`], [`AcgEpoch::entries`], …) are
/// callable directly on the group. Concurrent readers call
/// [`AcgIndexGroup::pin`] to hold the epoch across a whole search or
/// paginated session; [`AcgIndexGroup::commit`] publishes the next epoch
/// without disturbing them.
///
/// # Examples
///
/// ```
/// use propeller_index::{AcgIndexGroup, FileRecord, GroupConfig, IndexOp};
/// use propeller_types::{AcgId, AttrName, FileId, InodeAttrs, Timestamp, Value};
///
/// let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
/// let t = Timestamp::from_secs(1);
/// let record = FileRecord::new(
///     FileId::new(7),
///     InodeAttrs::builder().size(32 << 20).build(),
/// );
/// group.enqueue(IndexOp::Upsert(record), t).unwrap();
/// group.commit(t).unwrap();
///
/// let hits = group.lookup_range(
///     &AttrName::Size,
///     std::ops::Bound::Included(Value::U64(16 << 20)),
///     std::ops::Bound::Unbounded,
/// );
/// assert_eq!(hits, vec![FileId::new(7)]);
/// ```
#[derive(Debug)]
pub struct AcgIndexGroup {
    /// The published epoch. Mutations go through `Arc::make_mut`: while
    /// nothing else pins the epoch this is an in-place edit; once a reader
    /// pins it, the first mutation clones the epoch head (cheap — all
    /// index roots are structurally shared) and edits the copy, which the
    /// next publish swaps in.
    epoch: Arc<AcgEpoch>,
    wal: Wal,
    cache: IndexCache,
    /// Where snapshots live (`None` = snapshots disabled).
    snapshot_dir: Option<PathBuf>,
    /// LSN of the newest snapshot written or recovered from (`None` before
    /// the first).
    snapshot_lsn: Option<u64>,
    /// Ops logged since the last snapshot — the trigger metric an Index
    /// Node compares against its snapshot thresholds (approximate by
    /// design; it resets on snapshot and recovery).
    wal_ops: u64,
    /// Frame bytes logged since the last snapshot (same trigger role as
    /// `wal_ops`; the raw retained log size would keep re-firing the
    /// bytes threshold, because two-checkpoint retention deliberately
    /// keeps the previous inter-checkpoint window in the log).
    wal_trigger_bytes: u64,
    /// Whether a [`begin_snapshot`](AcgIndexGroup::begin_snapshot) job is
    /// outstanding (at most one at a time).
    snapshot_in_flight: bool,
}

impl Deref for AcgIndexGroup {
    type Target = AcgEpoch;

    fn deref(&self) -> &AcgEpoch {
        &self.epoch
    }
}

impl AcgIndexGroup {
    /// Creates an empty group.
    pub fn new(id: AcgId, config: GroupConfig) -> Self {
        let mut group = AcgIndexGroup {
            epoch: Arc::new(AcgEpoch::empty(id)),
            wal: config.wal,
            cache: IndexCache::new(config.commit_timeout),
            snapshot_dir: config.snapshot_dir,
            snapshot_lsn: None,
            wal_ops: 0,
            wal_trigger_bytes: 0,
            snapshot_in_flight: false,
        };
        if config.default_indices {
            for spec in [
                IndexSpec::btree("size_btree", AttrName::Size),
                IndexSpec::btree("mtime_btree", AttrName::Mtime),
                IndexSpec::hash("keyword_hash", AttrName::Keyword),
                IndexSpec::kd("inode_kd", vec![AttrName::Size, AttrName::Mtime]),
                IndexSpec::inverted("content_inverted"),
            ] {
                group.create_index(spec).expect("default index names are unique");
            }
        }
        group
    }

    /// Rebuilds a group from a decoded snapshot: records are installed
    /// directly and every index from the snapshot's named-index table is
    /// re-created and backfilled (the K-D trees bulk-load balanced).
    fn from_snapshot(data: SnapshotData, config: GroupConfig) -> Result<Self> {
        let mut epoch = AcgEpoch::empty(data.acg);
        epoch.applied_lsn = data.lsn;
        epoch.ops_applied = data.records.len() as u64;
        for record in data.records {
            epoch.records.insert(record.file, Arc::new(record));
        }
        for spec in data.specs {
            epoch.create_index(spec)?;
        }
        Ok(AcgIndexGroup {
            epoch: Arc::new(epoch),
            wal: config.wal,
            cache: IndexCache::new(config.commit_timeout),
            snapshot_dir: config.snapshot_dir,
            snapshot_lsn: Some(data.lsn),
            wal_ops: 0,
            wal_trigger_bytes: 0,
            snapshot_in_flight: false,
        })
    }

    /// Recovers a group from its durable state: the newest **valid**
    /// snapshot (when a snapshot directory is configured) plus the WAL
    /// suffix past that snapshot's LSN. Snapshot files that fail
    /// validation are skipped — recovery falls back to the next older one
    /// and, while the log is still complete (never checkpoint-truncated),
    /// to a full WAL replay. Returns the group and the number of WAL ops
    /// replayed.
    ///
    /// The WAL is left intact on the file backend (it is still the only
    /// durable record of the replayed suffix until the next snapshot); the
    /// in-memory backend truncates as before.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if a logged op fails to decode (frames
    /// with bad CRCs were already dropped by WAL replay), **or when no
    /// snapshot validates and the WAL was already truncated past its first
    /// frame** — the pre-checkpoint state is provably unrecoverable and a
    /// silently partial group must not come back as whole. [`Error::Io`]
    /// surfaces WAL I/O failures.
    pub fn recover(id: AcgId, config: GroupConfig) -> Result<(Self, usize)> {
        let (group, report) = Self::recover_with_report(id, config)?;
        Ok((group, report.replayed_ops))
    }

    /// [`AcgIndexGroup::recover`] with the full [`RecoveryReport`]
    /// (snapshot anchor, records restored, ops replayed, files skipped).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AcgIndexGroup::recover`].
    pub fn recover_with_report(
        id: AcgId,
        mut config: GroupConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let mut base: Option<SnapshotData> = None;
        if let Some(dir) = &config.snapshot_dir {
            let parse = snapshot::snapshot_lsn_parser(id);
            let (found, skipped) =
                durable::load_newest(dir, parse, &config.wal, snapshot::read_snapshot)?;
            base = found.map(|(_, data)| data);
            report.snapshots_skipped = skipped;
        }
        let snap_lsn = base.as_ref().map_or(0, |d| d.lsn);
        let frames = config.wal.replay_from(snap_lsn)?;
        let mut group = match base {
            Some(data) => {
                report.snapshot_lsn = Some(data.lsn);
                report.snapshot_records = data.records.len();
                Self::from_snapshot(data, config)?
            }
            None => AcgIndexGroup::new(id, config),
        };
        let mut last_lsn = snap_lsn;
        let mut suffix_bytes = 0u64;
        {
            let epoch = Arc::make_mut(&mut group.epoch);
            for (lsn, frame) in frames {
                // A frame is either one classic single-op record or a
                // group-committed batch; recovery replays both.
                for op in IndexOp::decode_frame(&frame)? {
                    epoch.apply(op);
                    report.replayed_ops += 1;
                }
                suffix_bytes += frame.len() as u64 + 8;
                last_lsn = lsn;
            }
            epoch.applied_lsn = last_lsn;
        }
        group.wal_ops = report.replayed_ops as u64;
        group.wal_trigger_bytes = suffix_bytes;
        if !group.wal.is_durable() {
            group.wal.truncate()?;
        }
        Ok((group, report))
    }

    /// Pins the currently published epoch: the returned handle keeps
    /// reading a consistent committed state no matter how many commits,
    /// index changes or snapshots happen afterwards. Memory is reclaimed
    /// when the last pin of an epoch drops (unshared index nodes free with
    /// it).
    pub fn pin(&self) -> Arc<AcgEpoch> {
        Arc::clone(&self.epoch)
    }

    /// Starts an off-thread snapshot: pins the current epoch and returns a
    /// job that serializes it on **any** thread while this group keeps
    /// committing. Returns `None` when snapshots are disabled, when the
    /// applied state is already covered by the newest snapshot, or while a
    /// previous job is still outstanding (at most one at a time).
    ///
    /// The caller must complete the job with
    /// [`AcgIndexGroup::finish_snapshot`] on success or
    /// [`AcgIndexGroup::abort_snapshot`] on failure.
    pub fn begin_snapshot(&mut self) -> Option<EpochSnapshotJob> {
        let dir = self.snapshot_dir.clone()?;
        if self.snapshot_in_flight {
            return None;
        }
        let lsn = self.epoch.applied_lsn;
        if self.snapshot_lsn == Some(lsn) {
            return None; // nothing committed since the last one
        }
        self.snapshot_in_flight = true;
        Some(EpochSnapshotJob { dir, lsn, epoch: self.pin() })
    }

    /// Installs a snapshot completed off-thread (written by
    /// [`EpochSnapshotJob::write`]): truncates the WAL up to the previous
    /// retained snapshot's LSN, prunes files older than that
    /// (two-checkpoint retention) and resets the snapshot trigger metrics.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the WAL truncation fails; the snapshot
    /// file itself is already safely on disk in that case.
    pub fn finish_snapshot(&mut self, lsn: u64) -> Result<()> {
        self.snapshot_in_flight = false;
        if let Some(dir) = &self.snapshot_dir {
            let parse = snapshot::snapshot_lsn_parser(self.epoch.id);
            durable::retire(dir, parse, &mut self.wal, self.snapshot_lsn)?;
        }
        self.snapshot_lsn = Some(lsn);
        self.wal_ops = self.cache.len() as u64;
        self.wal_trigger_bytes = 0;
        Ok(())
    }

    /// Clears the in-flight marker after a failed off-thread snapshot
    /// write; the previous snapshot set stays intact and the triggers stay
    /// armed, so the next maintenance pass retries.
    pub fn abort_snapshot(&mut self) {
        self.snapshot_in_flight = false;
    }

    /// Whether an off-thread snapshot job is outstanding.
    pub fn snapshot_in_flight(&self) -> bool {
        self.snapshot_in_flight
    }

    /// Writes a snapshot of the **committed** state (stamped with the
    /// current applied LSN) synchronously on the calling thread, then
    /// truncates the WAL up to the previous retained snapshot's LSN and
    /// prunes snapshot files older than that. Pending (logged but
    /// uncommitted) ops have LSNs past the stamp, so they survive in the
    /// log — snapshotting never requires a commit. This is
    /// [`AcgIndexGroup::begin_snapshot`] + [`EpochSnapshotJob::write`] +
    /// [`AcgIndexGroup::finish_snapshot`] in one call; Index Nodes use the
    /// split form to keep the write off their actor thread.
    ///
    /// Two checkpoints are retained: should the newest file be torn or
    /// corrupted on disk, recovery still reassembles the full state from
    /// the previous one plus the longer WAL suffix.
    ///
    /// Returns the covered LSN, or `None` when no snapshot directory is
    /// configured.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on snapshot-write or WAL-truncation failures;
    /// the previous snapshot set stays intact in that case.
    pub fn snapshot(&mut self) -> Result<Option<u64>> {
        if self.snapshot_dir.is_none() {
            return Ok(None);
        }
        let Some(job) = self.begin_snapshot() else {
            // Already covered (or a background job holds the slot): the
            // applied state is what the newest stamp reflects.
            return Ok(Some(self.epoch.applied_lsn));
        };
        let lsn = job.lsn;
        match job.write() {
            Ok(_) => {
                self.finish_snapshot(lsn)?;
                Ok(Some(lsn))
            }
            Err(e) => {
                self.abort_snapshot();
                Err(e)
            }
        }
    }

    /// Number of currently buffered (uncommitted) operations.
    pub fn pending_ops(&self) -> usize {
        self.cache.len()
    }

    /// The file count this group will hold once its buffered ops commit:
    /// [`AcgEpoch::len`] plus the *net* effect of the pending batch.
    /// A pending upsert only counts when the file is not already indexed
    /// (re-upserts replace in place), a pending remove only when it is;
    /// several pending ops on one file collapse to the last one. This is
    /// the scale an Index Node heartbeats to the Master — raw
    /// `len + pending_ops` over-counted re-upsert-heavy ACGs and could
    /// trigger spurious splits.
    pub fn projected_len(&self) -> usize {
        let mut delta: i64 = 0;
        // Tracks each touched file's projected presence as the pending
        // batch replays over the committed state.
        let mut projected: HashMap<FileId, bool> = HashMap::new();
        for op in self.cache.pending() {
            let file = op.file();
            let before = projected
                .get(&file)
                .copied()
                .unwrap_or_else(|| self.epoch.records.contains_key(&file));
            let after = matches!(op, IndexOp::Upsert(_));
            match (before, after) {
                (false, true) => delta += 1,
                (true, false) => delta -= 1,
                _ => {}
            }
            projected.insert(file, after);
        }
        (self.epoch.len() as i64 + delta).max(0) as usize
    }

    /// Creates a user-defined index, backfills it from existing records
    /// and publishes the resulting epoch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexExists`] for duplicate names and
    /// [`Error::Config`] for invalid attribute arity.
    pub fn create_index(&mut self, spec: IndexSpec) -> Result<()> {
        let epoch = Arc::make_mut(&mut self.epoch);
        epoch.create_index(spec)?;
        epoch.generation += 1;
        Ok(())
    }

    /// Drops a user-defined index by name and publishes the resulting
    /// epoch. The backing structure is freed unless another spec still
    /// uses it (B+-tree/hash structures are shared per attribute).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexNotFound`] for unknown names.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let epoch = Arc::make_mut(&mut self.epoch);
        epoch.drop_index(name)?;
        epoch.generation += 1;
        Ok(())
    }

    /// Appends an op to the WAL and buffers it in the cache; commits
    /// automatically if the cache has timed out. Returns `true` if a
    /// commit happened.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the WAL append fails; the op is *not*
    /// buffered in that case (no acknowledged-but-unlogged state).
    pub fn enqueue(&mut self, op: IndexOp, now: Timestamp) -> Result<bool> {
        let before = self.wal.byte_size();
        self.wal.append(&op.encode())?;
        self.wal_ops += 1;
        self.wal_trigger_bytes += self.wal.byte_size() - before;
        self.cache.push(op, now);
        if self.cache.timed_out(now) {
            self.commit(now)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Appends a whole batch to the WAL as **one** group-committed frame
    /// and buffers every op — one framed write (one syscall on the file
    /// backend) instead of one per op. Single-op batches keep the classic
    /// per-op frame, so logs stay readable by pre-batch recovery. Commits
    /// automatically if the cache has timed out; returns `true` if a
    /// commit happened.
    ///
    /// The batch is all-or-nothing: if the WAL append fails, *no* op is
    /// buffered (no acknowledged-but-unlogged state).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the WAL append fails.
    pub fn enqueue_batch(&mut self, ops: Vec<IndexOp>, now: Timestamp) -> Result<bool> {
        match ops.len() {
            0 => Ok(false),
            1 => self.enqueue(ops.into_iter().next().expect("len checked"), now),
            _ => {
                let before = self.wal.byte_size();
                self.wal.append(&IndexOp::encode_batch(&ops))?;
                self.wal_ops += ops.len() as u64;
                self.wal_trigger_bytes += self.wal.byte_size() - before;
                self.cache.push_batch(ops, now);
                if self.cache.timed_out(now) {
                    self.commit(now)?;
                    return Ok(true);
                }
                Ok(false)
            }
        }
    }

    /// Commits all buffered ops and **publishes a new epoch**: the batch
    /// is applied to a (structurally shared) successor of the current
    /// epoch, the applied-LSN watermark advances, the generation bumps and
    /// the `Arc` swaps — readers pinned on the previous epoch are never
    /// disturbed. While nothing pins the current epoch the "copy" is an
    /// in-place edit (`Arc::make_mut` sees a unique reference).
    ///
    /// An in-memory WAL is truncated here (its log buys no durability, so
    /// there is no reason to retain it); a file-backed WAL keeps the
    /// committed frames until a snapshot covers them — that log suffix is
    /// what lets a crashed node restore its committed state. Returns the
    /// number of ops applied.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the WAL truncate fails.
    pub fn commit(&mut self, now: Timestamp) -> Result<usize> {
        let batch = self.cache.drain(now);
        let n = batch.len();
        if n > 0 {
            let last_lsn = self.wal.last_lsn();
            let epoch = Arc::make_mut(&mut self.epoch);
            for op in batch {
                epoch.apply(op);
            }
            epoch.applied_lsn = last_lsn;
            epoch.generation += 1;
            if !self.wal.is_durable() {
                self.wal.truncate()?;
            }
        }
        Ok(n)
    }

    /// Forces the WAL to stable storage (no-op for the memory backend) —
    /// the Index Node calls this before acknowledging a durable batch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if `fsync` fails.
    pub fn sync_wal(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Whether this group's WAL survives a process crash (file backend).
    pub fn is_durable(&self) -> bool {
        self.wal.is_durable()
    }

    /// LSN of the newest snapshot written or recovered from, if any.
    pub fn snapshot_lsn(&self) -> Option<u64> {
        self.snapshot_lsn
    }

    /// Ops logged since the last snapshot (the Index Node's snapshot
    /// trigger metric).
    pub fn wal_ops(&self) -> u64 {
        self.wal_ops
    }

    /// Frame bytes logged since the last snapshot — the Index Node's
    /// bytes-threshold trigger metric. Unlike the WAL's retained size it
    /// resets at every snapshot, so one oversized checkpoint window
    /// cannot re-fire the trigger into back-to-back full-group snapshots.
    pub fn wal_bytes_since_snapshot(&self) -> u64 {
        self.wal_trigger_bytes
    }

    /// Whether the cache is due for a background commit.
    pub fn commit_due(&self, now: Timestamp) -> bool {
        self.cache.timed_out(now)
    }

    /// LSN of the most recent frame this group has logged — the group's
    /// **replication position**. A follower whose `last_lsn` equals its
    /// primary's holds every acknowledged op; the difference bounds its
    /// staleness in frames.
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// Whether every frame past `after_lsn` is still retained in the WAL,
    /// i.e. whether [`AcgIndexGroup::wal_frames_after`] can bring a
    /// follower at `after_lsn` fully current without a snapshot seed.
    pub fn can_ship_frames_after(&self, after_lsn: u64) -> bool {
        after_lsn + 1 >= self.wal.first_lsn()
    }

    /// The retained WAL frames with LSN strictly greater than `after_lsn`,
    /// paired with their LSNs — what a primary ships to a trailing
    /// follower. Callers should check
    /// [`AcgIndexGroup::can_ship_frames_after`] first: when the log was
    /// already truncated past `after_lsn` the returned suffix silently
    /// starts later and replaying it alone would leave a gap.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file backend cannot be read.
    pub fn wal_frames_after(&mut self, after_lsn: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.wal.replay_from(after_lsn)
    }

    /// Replaces this group's contents wholesale with a snapshot shipped
    /// from its primary, aligning the WAL so the next replicated frame is
    /// assigned LSN `lsn + 1` — the seed path for a brand-new or
    /// hopelessly trailing follower. Pending ops are discarded (they are
    /// part of the history the seed supersedes) and the seeded state
    /// publishes as a new epoch.
    ///
    /// When snapshots are configured the disk changes in the one order
    /// where every crash point recovers: the seed snapshot is written
    /// first, then every other checkpoint is deleted, then the WAL is
    /// re-based. A crash right after the seed recovers to the seeded state
    /// rather than to a checkpoint from the pre-seed LSN sequence.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on snapshot-write or WAL-reset failures; a
    /// failed snapshot write leaves the group and its files untouched.
    pub fn install_seed(
        &mut self,
        records: Vec<FileRecord>,
        lsn: u64,
        now: Timestamp,
    ) -> Result<()> {
        let id = self.epoch.id;
        if let Some(dir) = &self.snapshot_dir {
            snapshot::write_snapshot(dir, id, lsn, &self.epoch.specs, records.iter())?;
            for (_, path) in snapshot::list_snapshots(dir, id).into_iter().filter(|s| s.0 != lsn) {
                let _ = std::fs::remove_file(path);
            }
        }
        self.wal.reset_to(lsn)?;
        self.snapshot_lsn = self.snapshot_dir.as_ref().map(|_| lsn);
        self.wal_ops = 0;
        self.wal_trigger_bytes = 0;
        let _ = self.cache.drain(now);
        let epoch = Arc::make_mut(&mut self.epoch);
        for file in epoch.files() {
            epoch.apply(IndexOp::Remove(file));
        }
        for record in records {
            epoch.apply(IndexOp::Upsert(record));
        }
        epoch.applied_lsn = lsn;
        epoch.generation += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::InodeAttrs;

    fn group() -> AcgIndexGroup {
        AcgIndexGroup::new(AcgId::new(1), GroupConfig::default())
    }

    fn record(file: u64, size: u64, mtime_s: u64) -> FileRecord {
        FileRecord::new(
            FileId::new(file),
            InodeAttrs::builder().size(size).mtime(Timestamp::from_secs(mtime_s)).build(),
        )
    }

    fn t(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn pinned_epochs_are_isolated_from_later_commits() {
        let mut g = group();
        for i in 0..100u64 {
            g.enqueue(IndexOp::Upsert(record(i, i * 10, i)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        let pinned = g.pin();
        let gen_before = pinned.generation();

        // Churn heavily after the pin: removals, re-upserts, new files.
        for i in 0..50u64 {
            g.enqueue(IndexOp::Remove(FileId::new(i)), t(1)).unwrap();
        }
        for i in 100..200u64 {
            g.enqueue(IndexOp::Upsert(record(i, i * 10, i)), t(1)).unwrap();
        }
        g.commit(t(1)).unwrap();

        // The pinned epoch still reads the first commit, exactly.
        assert_eq!(pinned.len(), 100);
        assert_eq!(pinned.generation(), gen_before);
        assert_eq!(
            pinned.lookup_range(&AttrName::Size, Bound::Unbounded, Bound::Unbounded),
            (0..100).map(FileId::new).collect::<Vec<_>>(),
        );
        assert!(pinned.record(FileId::new(0)).is_some());
        assert!(pinned.record(FileId::new(150)).is_none());

        // The live group reads the second commit and a higher generation.
        assert_eq!(g.len(), 150);
        assert!(g.generation() > gen_before);
        assert!(g.record(FileId::new(0)).is_none());
        assert!(g.record(FileId::new(150)).is_some());
    }

    #[test]
    fn a_one_op_commit_shares_all_but_one_kd_leaf_with_the_pinned_epoch() {
        let mut g = group();
        for i in 0..5_000u64 {
            g.enqueue(IndexOp::Upsert(record(i, i * 7919 % 100_000, i)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        for i in 5_000..5_040u64 {
            let pinned = g.pin();
            g.enqueue(IndexOp::Upsert(record(i, i * 31 % 100_000, i % 5_000)), t(1)).unwrap();
            g.commit(t(1)).unwrap();
            let (before, after) = (&pinned.kds["inode_kd"].1, &g.epoch.kds["inode_kd"].1);
            let (shared, leaves) = crate::kdtree::tests::shared_leaves(before, after);
            assert!(
                shared + 1 >= leaves,
                "commit {i} copied {} of {leaves} leaves",
                leaves - shared
            );
            assert_eq!(after.len(), before.len() + 1);
        }
    }

    #[test]
    fn snapshot_job_serializes_the_pinned_epoch_despite_later_commits() {
        let dir = std::env::temp_dir().join(format!("propeller-epoch-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut g = AcgIndexGroup::new(
            AcgId::new(9),
            GroupConfig { snapshot_dir: Some(dir.clone()), ..Default::default() },
        );
        for i in 0..20u64 {
            g.enqueue(IndexOp::Upsert(record(i, i, 0)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();

        let job = g.begin_snapshot().expect("dirty group with a snapshot dir");
        assert!(g.snapshot_in_flight());
        assert!(g.begin_snapshot().is_none(), "one job at a time");

        // Commit *between* begin and write: the job still serializes the
        // pinned 20-record epoch, not the live 21-record one.
        g.enqueue(IndexOp::Upsert(record(99, 99, 0)), t(1)).unwrap();
        g.commit(t(1)).unwrap();
        let lsn = job.lsn;
        let path = job.write().unwrap();
        g.finish_snapshot(lsn).unwrap();
        assert!(!g.snapshot_in_flight());
        assert_eq!(g.snapshot_lsn(), Some(lsn));

        let data = snapshot::read_snapshot(&path).unwrap();
        assert_eq!(data.lsn, lsn);
        assert_eq!(data.records.len(), 20, "snapshot reflects the pinned epoch");
    }

    #[test]
    fn wal_frames_ship_to_an_aligned_follower() {
        let mut primary = group();
        let mut follower = group();
        for i in 0..3u64 {
            primary
                .enqueue_batch(
                    vec![
                        IndexOp::Upsert(record(i, i * 10 + 1, 0)),
                        IndexOp::Upsert(record(i + 10, i * 10 + 2, 0)),
                    ],
                    t(0),
                )
                .unwrap();
        }
        assert!(primary.can_ship_frames_after(0));
        let frames = primary.wal_frames_after(0).unwrap();
        assert_eq!(frames.len(), 3, "one frame per replicated batch");
        for (lsn, payload) in frames {
            assert_eq!(lsn, follower.last_lsn() + 1, "shipped frames stay contiguous");
            let ops = IndexOp::decode_frame(&payload).unwrap();
            follower.enqueue_batch(ops, t(0)).unwrap();
            follower.commit(t(0)).unwrap();
            assert_eq!(follower.last_lsn(), lsn, "follower assigns the primary's LSN");
        }
        primary.commit(t(0)).unwrap();
        assert_eq!(follower.len(), primary.len());
        assert_eq!(follower.last_lsn(), primary.last_lsn());
    }

    #[test]
    fn committed_in_memory_frames_cannot_be_shipped() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 1, 0)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        assert!(!g.can_ship_frames_after(0), "in-memory commits truncate the log");
        assert!(g.can_ship_frames_after(g.last_lsn()), "a current follower needs nothing");
    }

    #[test]
    fn install_seed_replaces_state_and_aligns_the_lsn() {
        let mut primary = group();
        for i in 0..5u64 {
            primary.enqueue(IndexOp::Upsert(record(i, i * 10 + 1, 0)), t(0)).unwrap();
        }
        primary.commit(t(0)).unwrap();
        let mut follower = group();
        // Divergent junk: one committed record and one pending op, both of
        // which the seed must supersede.
        follower.enqueue(IndexOp::Upsert(record(99, 7, 0)), t(0)).unwrap();
        follower.commit(t(0)).unwrap();
        follower.enqueue(IndexOp::Upsert(record(98, 8, 0)), t(0)).unwrap();
        let seed: Vec<FileRecord> = primary.records().cloned().collect();
        follower.install_seed(seed, primary.last_lsn(), t(0)).unwrap();
        assert_eq!(follower.len(), 5);
        assert_eq!(follower.pending_ops(), 0);
        assert!(follower.lookup_eq(&AttrName::Size, &Value::U64(7)).is_empty());
        assert_eq!(follower.last_lsn(), primary.last_lsn());
        // The next replicated frame continues the primary's sequence.
        follower.enqueue(IndexOp::Upsert(record(50, 1, 0)), t(0)).unwrap();
        assert_eq!(follower.last_lsn(), primary.last_lsn() + 1);
    }

    #[test]
    fn seeded_follower_recovers_to_the_seed() {
        let dir = std::env::temp_dir().join(format!("propeller-seed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = || GroupConfig {
            wal: Wal::open(dir.join("seed.wal")).unwrap(),
            snapshot_dir: Some(dir.clone()),
            ..GroupConfig::default()
        };
        {
            let mut f = AcgIndexGroup::new(AcgId::new(9), cfg());
            f.enqueue(IndexOp::Upsert(record(1, 11, 0)), t(0)).unwrap();
            f.commit(t(0)).unwrap();
            f.install_seed(vec![record(2, 22, 0), record(3, 33, 0)], 40, t(0)).unwrap();
            f.sync_wal().unwrap();
        }
        // A crash right after the seed must come back as the seed: the WAL
        // was re-based to the primary's sequence and the stale pre-seed
        // checkpoints are gone, so recovery anchors to the seed snapshot.
        let (g, report) = AcgIndexGroup::recover_with_report(AcgId::new(9), cfg()).unwrap();
        assert_eq!(report.snapshot_lsn, Some(40));
        assert_eq!(g.len(), 2);
        assert_eq!(g.last_lsn(), 40);
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(11)).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_seed_write_leaves_the_group_recoverable() {
        let dir = std::env::temp_dir().join(format!("propeller-seed-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = || GroupConfig {
            wal: Wal::open(dir.join("acg-9.wal")).unwrap(),
            snapshot_dir: Some(dir.clone()),
            ..GroupConfig::default()
        };
        {
            let mut f = AcgIndexGroup::new(AcgId::new(9), cfg());
            f.enqueue(IndexOp::Upsert(record(1, 11, 0)), t(0)).unwrap();
            f.commit(t(0)).unwrap();
            f.snapshot().unwrap();
            // Block the seed snapshot's temp path: its write fails.
            std::fs::create_dir_all(dir.join("acg-9-40.snap.tmp")).unwrap();
            assert!(f.install_seed(vec![record(2, 22, 0)], 40, t(0)).is_err());
            assert!(f.record(FileId::new(1)).is_some(), "a failed seed changes nothing");
            assert_eq!(f.last_lsn(), 1);
        }
        // The node must reopen with its pre-seed state, so the seed can
        // simply be retried; re-basing the WAL before the write made this
        // a "refusing partial recovery" error.
        let (g, report) = AcgIndexGroup::recover_with_report(AcgId::new(9), cfg()).unwrap();
        assert_eq!(report.snapshot_lsn, Some(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(11)).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upsert_then_range_lookup() {
        let mut g = group();
        for i in 0..100 {
            g.enqueue(IndexOp::Upsert(record(i, i * 1024, i)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        let hits = g.lookup_range(
            &AttrName::Size,
            Bound::Included(Value::U64(50 * 1024)),
            Bound::Unbounded,
        );
        assert_eq!(hits.len(), 50);
        assert!(hits.contains(&FileId::new(99)));
    }

    #[test]
    fn uncommitted_ops_are_invisible_until_commit() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 100, 0)), t(0)).unwrap();
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(100)).is_empty());
        g.commit(t(1)).unwrap();
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(100)), vec![FileId::new(1)]);
    }

    #[test]
    fn timeout_triggers_auto_commit() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 1, 0)), t(0)).unwrap();
        // 6 seconds later (past the 5s default), the next enqueue commits.
        let committed = g.enqueue(IndexOp::Upsert(record(2, 2, 0)), t(6)).unwrap();
        assert!(committed);
        assert_eq!(g.len(), 2);
        assert_eq!(g.pending_ops(), 0);
    }

    #[test]
    fn upsert_replaces_old_attribute_values() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 100, 0)), t(0)).unwrap();
        g.enqueue(IndexOp::Upsert(record(1, 999, 0)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(100)).is_empty());
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(999)), vec![FileId::new(1)]);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn remove_clears_all_indices() {
        let mut g = group();
        let rec = record(5, 4096, 10);
        g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
        g.enqueue(IndexOp::Remove(FileId::new(5)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(4096)).is_empty());
        assert!(g
            .candidates_kd(&[AttrName::Size, AttrName::Mtime], &[0.0, 0.0], &[1e18, 1e18])
            .unwrap()
            .is_empty());
        assert!(g.is_empty());
    }

    #[test]
    fn keyword_hash_lookup() {
        let mut g = group();
        let rec = record(1, 10, 0).with_keyword("firefox").with_keyword("cache");
        g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        assert_eq!(g.lookup_eq(&AttrName::Keyword, &Value::from("firefox")), vec![FileId::new(1)]);
        assert_eq!(g.lookup_eq(&AttrName::Keyword, &Value::from("cache")), vec![FileId::new(1)]);
        assert!(g.lookup_eq(&AttrName::Keyword, &Value::from("chrome")).is_empty());
    }

    #[test]
    fn kd_box_query_matches_scan() {
        let mut g = group();
        for i in 0..200 {
            g.enqueue(IndexOp::Upsert(record(i, (i * 13) % 997, (i * 7) % 91)), t(0)).unwrap();
        }
        // Two points on the box's bounds: size = lo, mtime = hi.
        g.enqueue(IndexOp::Upsert(record(200, 100, 30)), t(0)).unwrap();
        g.enqueue(IndexOp::Upsert(record(201, 300, 60)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        let kd = g
            .candidates_kd(
                &[AttrName::Size, AttrName::Mtime],
                &[100.0, 10.0 * 1e6],
                &[500.0, 60.0 * 1e6],
            )
            .unwrap();
        // Candidates arrive in file-id order, like the scan's.
        let scan = g.scan(|r| {
            (100..=500).contains(&r.attrs.size)
                && (Timestamp::from_secs(10)..=Timestamp::from_secs(60)).contains(&r.attrs.mtime)
        });
        assert_eq!(kd.iter().copied().collect::<Vec<FileId>>(), scan);
        assert!(!kd.is_empty());
        // A point is interior exactly when it ties no bound of the box
        // (sizes are whole bytes, mtimes whole seconds).
        let interior = g.scan(|r| {
            (101..500).contains(&r.attrs.size)
                && (Timestamp::from_secs(11)..Timestamp::from_secs(60)).contains(&r.attrs.mtime)
        });
        let flagged: Vec<FileId> = kd.iter().filter(|p| p.interior).map(|p| p.id).collect();
        assert_eq!(flagged, interior);
        assert_eq!(flagged.len() + 2, kd.len());
    }

    #[test]
    fn custom_attribute_index() {
        let mut g = group();
        g.create_index(IndexSpec::btree("energy_idx", AttrName::custom("energy"))).unwrap();
        for i in 0..10 {
            let rec = record(i, 1, 0).with_custom("energy", Value::F64(i as f64 * -1.5));
            g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        let hits = g.lookup_range(
            &AttrName::custom("energy"),
            Bound::Included(Value::F64(-5.0)),
            Bound::Included(Value::F64(-2.0)),
        );
        assert_eq!(hits.len(), 2); // -3.0 and -4.5
    }

    #[test]
    fn create_index_backfills_existing_records() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 77, 0)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        g.create_index(IndexSpec::hash("size_hash", AttrName::Size)).unwrap();
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(77)), vec![FileId::new(1)]);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut g = group();
        let err = g.create_index(IndexSpec::btree("size_btree", AttrName::Size));
        assert!(matches!(err, Err(Error::IndexExists(_))));
    }

    #[test]
    fn drop_index_frees_structure_unless_shared() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 77, 0)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        // A second B+-tree spec over size shares the size structure.
        g.create_index(IndexSpec::btree("size_btree2", AttrName::Size)).unwrap();
        g.drop_index("size_btree2").unwrap();
        // The default size_btree still answers.
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(77)), vec![FileId::new(1)]);
        // Dropping the last spec over the attribute frees it; the name is
        // reusable and re-creation backfills.
        g.drop_index("size_btree").unwrap();
        assert!(!g.index_specs().iter().any(|s| s.name == "size_btree"));
        g.create_index(IndexSpec::btree("size_btree", AttrName::Size)).unwrap();
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(77)), vec![FileId::new(1)]);
        // Unknown names are typed errors.
        assert!(matches!(g.drop_index("nope"), Err(Error::IndexNotFound(_))));
    }

    #[test]
    fn invalid_index_arity_rejected() {
        let mut g = group();
        let bad = IndexSpec {
            name: "bad".into(),
            kind: IndexKind::BTree,
            attrs: vec![AttrName::Size, AttrName::Uid],
        };
        assert!(matches!(g.create_index(bad), Err(Error::Config(_))));
        let empty_kd = IndexSpec { name: "kd0".into(), kind: IndexKind::Kd, attrs: vec![] };
        assert!(matches!(g.create_index(empty_kd), Err(Error::Config(_))));
    }

    #[test]
    fn enqueue_batch_logs_one_frame_for_the_whole_batch() {
        let mut g = group();
        let ops: Vec<IndexOp> = (0..50).map(|i| IndexOp::Upsert(record(i, i, 0))).collect();
        g.enqueue_batch(ops, t(0)).unwrap();
        assert_eq!(g.wal.entry_count(), 1, "group commit: one frame, not 50");
        assert_eq!(g.pending_ops(), 50);
        g.commit(t(0)).unwrap();
        assert_eq!(g.len(), 50);
        // A single-op batch keeps the classic per-op frame.
        g.enqueue_batch(vec![IndexOp::Remove(FileId::new(0))], t(1)).unwrap();
        assert_eq!(g.wal.entry_count(), 1);
        // Timed-out caches still auto-commit through the batch path.
        let committed = g.enqueue_batch(
            vec![IndexOp::Upsert(record(100, 1, 0)), IndexOp::Upsert(record(101, 1, 0))],
            t(100),
        );
        assert!(committed.unwrap());
        assert_eq!(g.pending_ops(), 0);
        assert_eq!(g.len(), 51);
    }

    #[test]
    fn recovery_replays_mixed_single_and_batch_frames() {
        let mut wal = Wal::in_memory();
        // A classic single-op frame, then a group-committed batch, then
        // another single frame — the shape of a log written across the
        // format transition.
        wal.append(&IndexOp::Upsert(record(1, 10, 0)).encode()).unwrap();
        let batch: Vec<IndexOp> = (2..6).map(|i| IndexOp::Upsert(record(i, i * 10, 0))).collect();
        wal.append(&IndexOp::encode_batch(&batch)).unwrap();
        wal.append(&IndexOp::Remove(FileId::new(1)).encode()).unwrap();
        let config = GroupConfig { wal, ..GroupConfig::default() };
        let (g, recovered) = AcgIndexGroup::recover(AcgId::new(9), config).unwrap();
        assert_eq!(recovered, 6);
        assert_eq!(g.len(), 4);
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(10)).is_empty());
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(40)), vec![FileId::new(4)]);
    }

    #[test]
    fn recovery_replays_acknowledged_ops() {
        let mut wal = Wal::in_memory();
        for i in 0..5 {
            wal.append(&IndexOp::Upsert(record(i, i * 10, 0)).encode()).unwrap();
        }
        wal.append(&IndexOp::Remove(FileId::new(0)).encode()).unwrap();
        let config = GroupConfig { wal, ..GroupConfig::default() };
        let (g, recovered) = AcgIndexGroup::recover(AcgId::new(9), config).unwrap();
        assert_eq!(recovered, 6);
        assert_eq!(g.len(), 4);
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(0)).is_empty());
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(40)), vec![FileId::new(4)]);
    }

    #[test]
    fn ops_counters_track_work() {
        let mut g = group();
        for i in 0..10 {
            g.enqueue(IndexOp::Upsert(record(i, i, 0)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        assert_eq!(g.ops_applied(), 10);
        let (commits, drained) = (g.cache.commit_count(), g.cache.drained_ops());
        assert_eq!(commits, 1);
        assert_eq!(drained, 10);
    }

    #[test]
    fn lookups_over_an_unindexed_attr_are_empty() {
        let mut g = group();
        g.enqueue(
            IndexOp::Upsert(record(1, 1, 0).with_custom("owner_tag", Value::from("alice"))),
            t(0),
        )
        .unwrap();
        g.commit(t(0)).unwrap();
        // No index over "owner_tag": the lookups read indexes only (the
        // planner sends a predicate over an unindexed attribute to a scan).
        let owner = AttrName::custom("owner_tag");
        assert!(g.lookup_eq(&owner, &Value::from("alice")).is_empty());
        assert!(g.lookup_range(&owner, Bound::Unbounded, Bound::Unbounded).is_empty());
        assert_eq!(g.scan(|r| r.custom.iter().any(|(n, _)| n == "owner_tag")), [FileId::new(1)]);
    }

    #[test]
    fn streaming_candidates_agree_with_materializing_lookups() {
        let mut g = group();
        for i in 0..300 {
            let rec = record(i, (i * 13) % 997, (i * 7) % 91).with_keyword(if i % 3 == 0 {
                "fizz"
            } else {
                "buzz"
            });
            g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();

        let eq = g.posting_list(&AttrName::Keyword, &Value::from("fizz")).unwrap();
        assert_eq!(eq, g.lookup_eq(&AttrName::Keyword, &Value::from("fizz")));

        let (lo, hi) = (Bound::Included(Value::U64(100)), Bound::Excluded(Value::U64(500)));
        let mut range: Vec<FileId> = g
            .entries(&AttrName::Size, lo.clone(), hi.clone(), false)
            .unwrap()
            .map(|(_, file)| file)
            .collect();
        range.sort_unstable();
        assert_eq!(range, g.lookup_range(&AttrName::Size, lo, hi));

        let attrs = [AttrName::Size, AttrName::Mtime];
        let (klo, khi) = ([100.0, 10.0 * 1e6], [500.0, 60.0 * 1e6]);
        let kd: Vec<FileId> = g.candidates_kd(&attrs, &klo, &khi).unwrap().into_iter().collect();
        let in_box = |r: &FileRecord| {
            (100..=500).contains(&r.attrs.size)
                && (Timestamp::from_secs(10)..=Timestamp::from_secs(60)).contains(&r.attrs.mtime)
        };
        assert_eq!(kd, g.scan(in_box));
        assert!(!kd.is_empty());

        // No covering index => None, so the executor can fall back.
        assert!(g.posting_list(&AttrName::custom("nope"), &Value::U64(1)).is_none());
        assert!(g
            .entries(&AttrName::custom("nope"), Bound::Unbounded, Bound::Unbounded, false)
            .is_none());
        assert!(g.candidates_kd(&[AttrName::Uid], &[0.0], &[1.0]).is_none());
    }

    #[test]
    fn entries_walk_in_sort_order_both_ways() {
        let mut g = group();
        for i in 0..100 {
            // Duplicate sizes exercise the file-id tie-break.
            g.enqueue(IndexOp::Upsert(record(i, (i % 10) * 64, 0)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        let walk = |lo, hi, descending| -> Vec<(u64, FileId)> {
            let entries = g.entries(&AttrName::Size, lo, hi, descending).unwrap();
            entries
                .map(|(value, file)| {
                    // The entry carries the record's own value: the sort key.
                    assert_eq!(
                        Some(value.clone()),
                        g.record(file).unwrap().attrs.get(&AttrName::Size)
                    );
                    (value.as_u64().unwrap(), file)
                })
                .collect()
        };
        let asc = walk(Bound::Unbounded, Bound::Unbounded, false);
        assert_eq!(asc.len(), 100);
        assert!(asc.windows(2).all(|w| w[0] <= w[1]), "ascending (size, file) order");
        let desc = walk(Bound::Unbounded, Bound::Unbounded, true);
        assert_eq!(desc.len(), 100);
        // Descending by size, ascending file id within equal sizes.
        assert!(desc.windows(2).all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
        let (lo, hi) = (Bound::Included(Value::U64(128)), Bound::Excluded(Value::U64(320)));
        let bounded = walk(lo.clone(), hi.clone(), false);
        assert!(bounded.iter().all(|&(s, _)| (128..320).contains(&s)));
        assert_eq!(bounded.len(), 30, "sizes 128, 192, 256 x 10 files each");
        let mut reversed = walk(lo, hi, true);
        reversed.sort_unstable();
        assert_eq!(reversed, bounded, "both directions walk the same entries");
    }

    #[test]
    fn projected_len_nets_out_pending_ops() {
        let mut g = group();
        for i in 0..10 {
            g.enqueue(IndexOp::Upsert(record(i, i, 0)), t(0)).unwrap();
        }
        g.commit(t(0)).unwrap();
        assert_eq!(g.projected_len(), 10, "no pending ops: projected == len");
        // Re-upserts of indexed files change nothing.
        for i in 0..10 {
            g.enqueue(IndexOp::Upsert(record(i, i + 100, 0)), t(1)).unwrap();
        }
        assert_eq!(g.pending_ops(), 10);
        assert_eq!(g.projected_len(), 10, "re-upserts must not inflate scale");
        // Net adds and removes count once each.
        g.enqueue(IndexOp::Upsert(record(50, 1, 0)), t(1)).unwrap();
        g.enqueue(IndexOp::Remove(FileId::new(3)), t(1)).unwrap();
        assert_eq!(g.projected_len(), 10, "one add, one remove");
        // Several ops on one file collapse to the last: remove then
        // re-add of file 3, add-then-remove of a brand new file.
        g.enqueue(IndexOp::Upsert(record(3, 9, 0)), t(1)).unwrap();
        g.enqueue(IndexOp::Upsert(record(60, 1, 0)), t(1)).unwrap();
        g.enqueue(IndexOp::Remove(FileId::new(60)), t(1)).unwrap();
        assert_eq!(g.projected_len(), 11, "files 0..10 plus file 50");
        g.commit(t(2)).unwrap();
        assert_eq!(g.len(), 11, "commit agrees with the projection");
        assert_eq!(g.projected_len(), 11);
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("propeller-group-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config(dir: &std::path::Path, acg: u64) -> GroupConfig {
        GroupConfig {
            wal: Wal::open(dir.join(format!("acg-{acg}.wal"))).unwrap(),
            snapshot_dir: Some(dir.to_path_buf()),
            ..GroupConfig::default()
        }
    }

    #[test]
    fn snapshot_plus_wal_suffix_restores_committed_and_pending_state() {
        let dir = temp_dir("snap-suffix");
        let acg = AcgId::new(3);
        {
            let mut g = AcgIndexGroup::new(acg, durable_config(&dir, 3));
            for i in 0..60 {
                g.enqueue(IndexOp::Upsert(record(i, i * 10, i)), t(0)).unwrap();
            }
            g.commit(t(0)).unwrap();
            let covered = g.snapshot().unwrap().expect("snapshot dir configured");
            assert_eq!(covered, g.applied_lsn());
            assert_eq!(g.snapshot_lsn(), Some(covered));
            // Post-snapshot: more committed ops and a pending tail.
            g.enqueue(IndexOp::Remove(FileId::new(0)), t(1)).unwrap();
            g.enqueue(IndexOp::Upsert(record(100, 7, 0)), t(1)).unwrap();
            g.commit(t(1)).unwrap();
            g.enqueue(IndexOp::Upsert(record(101, 7, 0)), t(2)).unwrap();
            g.sync_wal().unwrap();
            // Crash.
        }
        let (g, report) = AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 3)).unwrap();
        assert!(report.snapshot_lsn.is_some(), "recovery anchored to the snapshot");
        assert_eq!(report.snapshot_records, 60);
        assert_eq!(report.replayed_ops, 3, "only the suffix replays");
        assert_eq!(g.len(), 61, "60 - 1 removed + 2 added");
        assert_eq!(g.lookup_eq(&AttrName::Size, &Value::U64(7)).len(), 2);
        assert!(g.lookup_eq(&AttrName::Size, &Value::U64(0)).is_empty(), "remove replayed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_the_wal_with_two_checkpoint_retention() {
        let dir = temp_dir("retention");
        let acg = AcgId::new(4);
        let mut g = AcgIndexGroup::new(acg, durable_config(&dir, 4));
        let mut lsns = Vec::new();
        for round in 0..3u64 {
            for i in 0..20 {
                g.enqueue(IndexOp::Upsert(record(round * 100 + i, i, 0)), t(round)).unwrap();
            }
            g.commit(t(round)).unwrap();
            lsns.push(g.snapshot().unwrap().unwrap());
        }
        // Keep-2: the newest two snapshot files survive, older are pruned.
        let listed: Vec<u64> =
            crate::snapshot::list_snapshots(&dir, acg).into_iter().map(|(lsn, _)| lsn).collect();
        assert_eq!(listed, vec![lsns[2], lsns[1]]);
        // The log is truncated at the *previous* snapshot's LSN: frames the
        // older retained checkpoint still needs survive, everything before
        // it is gone.
        assert_eq!(g.wal.first_lsn(), lsns[1] + 1);
        assert!(g.wal.entry_count() < 60, "log bounded: {} frames", g.wal.entry_count());
        // A corrupt NEWEST snapshot falls back to the previous one plus
        // the longer suffix and still restores everything.
        let (_, newest) = crate::snapshot::list_snapshots(&dir, acg)[0].clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let ix = bytes.len() - 9;
        bytes[ix] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let (recovered, report) =
            AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 4)).unwrap();
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.snapshot_lsn, Some(lsns[1]));
        assert_eq!(recovered.len(), 60, "all three rounds restored");
        // With BOTH retained snapshots corrupt, the truncated WAL alone
        // cannot reassemble the pre-checkpoint state: recovery must
        // refuse loudly instead of serving a silently partial group.
        let (_, previous) = crate::snapshot::list_snapshots(&dir, acg)[1].clone();
        std::fs::write(&previous, b"PSNPgarbage").unwrap();
        let err = AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 4));
        assert!(
            matches!(err, Err(Error::Corrupt(_))),
            "partial recovery must be refused, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_only_snapshot_falls_back_to_full_wal_replay() {
        let dir = temp_dir("full-fallback");
        let acg = AcgId::new(5);
        {
            let mut g = AcgIndexGroup::new(acg, durable_config(&dir, 5));
            for i in 0..30 {
                g.enqueue(IndexOp::Upsert(record(i, i, 0)), t(0)).unwrap();
            }
            g.commit(t(0)).unwrap();
            g.snapshot().unwrap().unwrap();
            g.sync_wal().unwrap();
        }
        // The first snapshot never truncates the log (there is no previous
        // checkpoint to anchor a shorter suffix to), so corrupting it must
        // degrade recovery to a complete WAL replay — not data loss.
        let (_, path) = crate::snapshot::list_snapshots(&dir, acg)[0].clone();
        std::fs::write(&path, b"PSNPgarbage").unwrap();
        let (g, report) = AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 5)).unwrap();
        assert_eq!(report.snapshot_lsn, None);
        assert_eq!(report.snapshots_skipped, 1);
        assert_eq!(report.replayed_ops, 30);
        assert_eq!(g.len(), 30);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_restores_custom_index_table() {
        let dir = temp_dir("specs");
        let acg = AcgId::new(6);
        {
            let mut g = AcgIndexGroup::new(acg, durable_config(&dir, 6));
            g.create_index(IndexSpec::btree("energy_idx", AttrName::custom("energy"))).unwrap();
            for i in 0..10 {
                let rec = record(i, 1, 0).with_custom("energy", Value::F64(i as f64));
                g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
            }
            g.commit(t(0)).unwrap();
            g.snapshot().unwrap().unwrap();
        }
        let (g, _) = AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 6)).unwrap();
        assert!(g.index_specs().iter().any(|s| s.name == "energy_idx"));
        let hits = g.lookup_range(
            &AttrName::custom("energy"),
            Bound::Included(Value::F64(3.0)),
            Bound::Included(Value::F64(5.0)),
        );
        assert_eq!(hits.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inverted_index_tracks_upserts_and_removes() {
        let mut g = group();
        let rec1 = record(1, 10, 0).with_keyword("annual report").with_content("sales figures");
        let rec2 = record(2, 20, 0).with_keyword("memo").with_content("sales memo");
        g.enqueue(IndexOp::Upsert(rec1), t(0)).unwrap();
        g.enqueue(IndexOp::Upsert(rec2), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        let inv = g.inverted().expect("default inverted index exists");
        assert_eq!(inv.df("sales"), 2);
        assert_eq!(inv.df("report"), 1);
        assert_eq!(inv.doc_count(), 2);
        // An upsert replaces the old token set.
        g.enqueue(IndexOp::Upsert(record(1, 10, 0).with_keyword("draft")), t(1)).unwrap();
        g.commit(t(1)).unwrap();
        let inv = g.inverted().unwrap();
        assert_eq!(inv.df("report"), 0);
        assert_eq!(inv.df("draft"), 1);
        assert_eq!(inv.df("sales"), 1);
        // A remove clears the document entirely.
        g.enqueue(IndexOp::Remove(FileId::new(2)), t(2)).unwrap();
        g.commit(t(2)).unwrap();
        let inv = g.inverted().unwrap();
        assert_eq!(inv.df("sales"), 0);
        assert_eq!(inv.doc_count(), 1);
    }

    #[test]
    fn inverted_index_create_drop_symmetry() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(1, 10, 0).with_keyword("alpha")), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        // Dropping the default frees the structure; re-creation backfills.
        g.drop_index("content_inverted").unwrap();
        assert!(g.inverted().is_none());
        g.create_index(IndexSpec::inverted("content_inverted")).unwrap();
        assert_eq!(g.inverted().unwrap().df("alpha"), 1);
        // The arity rule: an inverted spec names no attributes.
        let bad = IndexSpec {
            name: "bad".into(),
            kind: IndexKind::Inverted,
            attrs: vec![AttrName::Size],
        };
        assert!(matches!(g.create_index(bad), Err(Error::Config(_))));
    }

    #[test]
    fn snapshot_restores_inverted_postings_and_df() {
        let dir = temp_dir("inverted");
        let acg = AcgId::new(7);
        let fingerprint = {
            let mut g = AcgIndexGroup::new(acg, durable_config(&dir, 7));
            for i in 0..40 {
                let rec = record(i, i, 0)
                    .with_keyword(format!("file{i}.log"))
                    .with_content(format!("entry {} common", i % 5));
                g.enqueue(IndexOp::Upsert(rec), t(0)).unwrap();
            }
            g.commit(t(0)).unwrap();
            g.snapshot().unwrap().unwrap();
            // Post-snapshot suffix: one more upsert and one remove.
            g.enqueue(IndexOp::Upsert(record(100, 1, 0).with_keyword("tail")), t(1)).unwrap();
            g.enqueue(IndexOp::Remove(FileId::new(0)), t(1)).unwrap();
            g.commit(t(1)).unwrap();
            g.sync_wal().unwrap();
            g.inverted().unwrap().fingerprint()
        };
        let (g, report) = AcgIndexGroup::recover_with_report(acg, durable_config(&dir, 7)).unwrap();
        assert!(report.snapshot_lsn.is_some());
        assert_eq!(report.replayed_ops, 2);
        let inv = g.inverted().expect("inverted index recovered from the spec table");
        assert_eq!(inv.fingerprint(), fingerprint, "identical postings and df tables");
        assert_eq!(inv.df("common"), 39, "40 docs minus the removed one");
        assert_eq!(inv.df("tail"), 1, "wal suffix replayed into the postings");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_and_records_accessors() {
        let mut g = group();
        g.enqueue(IndexOp::Upsert(record(3, 1, 0)), t(0)).unwrap();
        g.enqueue(IndexOp::Upsert(record(1, 1, 0)), t(0)).unwrap();
        g.commit(t(0)).unwrap();
        assert_eq!(g.files(), vec![FileId::new(1), FileId::new(3)]);
        assert!(g.record(FileId::new(3)).is_some());
        assert!(g.record(FileId::new(9)).is_none());
        assert_eq!(g.records().count(), 2);
    }
}
