//! Control-plane durability: the Master's WAL codec and checkpoints.
//!
//! The Master is a state machine over a small set of typed transitions —
//! file placement, ACG creation, split/migration commits, replica
//! adoption, index-spec registry changes. This module gives those
//! transitions the same durability discipline the data plane already has
//! (`propeller_index::{Wal, snapshot}`): every transition is encoded as a
//! CRC-framed WAL record and fsynced **before** the Master acks it, and a
//! periodic checksummed snapshot of the full metadata image bounds replay
//! to an O(delta) WAL suffix.
//!
//! ## On-disk layout (under `<data_dir>/master/`)
//!
//! ```text
//! meta.wal          the control-plane WAL: one encoded MetaOp per frame
//! meta-<lsn>.snap := durable::seal("PMET", 2, MetaImage)
//! ```
//!
//! Both payloads are `propeller_index::durable::Codec` values: a `MetaOp`
//! is its `u8` tag and then its fields, and a `MetaImage` is its fields in
//! declaration order, each map as its `(key, value)` pairs in key order.
//!
//! The checkpoints and the WAL form a `propeller_index::durable`
//! checkpoint set, exactly like an ACG's snapshots: the newest valid
//! checkpoint wins, two are kept with the WAL truncated to the older, so a
//! torn newest checkpoint still recovers from the previous one plus
//! replay, and losing every checkpoint of a truncated WAL is refused.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use propeller_index::durable::{self, Codec};
use propeller_index::{codec_struct, IndexSpec, Wal};
use propeller_types::{AcgId, Error, FileId, NodeId, Result};

/// Envelope magic and version of a Master metadata checkpoint.
const MAGIC: [u8; 4] = *b"PMET";
const VERSION: u32 = 2;

/// One durable Master state transition. Every mutation of hard Master
/// state is expressed as (a batch of) these, logged before the ack; soft
/// state — liveness, heartbeat freshness, split *pressure* — is never
/// logged because a restarted Master re-learns it from the next heartbeat
/// round.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaOp {
    /// Files were placed into ACGs (fresh `resolve` assignments and
    /// explicit `BindFiles` calls).
    PlaceFiles {
        /// `(file, acg)` pairs, already deduplicated by the caller.
        placements: Vec<(FileId, AcgId)>,
    },
    /// A new ACG id was minted and bound to a replica set. `open` marks it
    /// as the Master's current fill target.
    CreateAcg {
        /// The new group.
        acg: AcgId,
        /// Its replica set (primary first).
        replicas: Vec<NodeId>,
        /// Whether this group became the open fill target.
        open: bool,
    },
    /// A split/migration finished: `moved` files now live in `new_acg` on
    /// `targets`, and the routing generation advanced by one.
    CommitSplit {
        /// The source group.
        acg: AcgId,
        /// The group the moved files now live in.
        new_acg: AcgId,
        /// The files that moved.
        moved: Vec<FileId>,
        /// Replica set of the new group.
        targets: Vec<NodeId>,
    },
    /// A heartbeat revealed a recovered replica of `acg` on `node` that
    /// the placement map did not know about (node-local recovery).
    AdoptReplica {
        /// The adopted group.
        acg: AcgId,
        /// The node that reported hosting it.
        node: NodeId,
    },
    /// A cluster-wide named index was registered.
    CreateIndexSpec {
        /// The spec, exactly as broadcast to Index Nodes.
        spec: IndexSpec,
    },
    /// A cluster-wide named index was dropped.
    DropIndexSpec {
        /// The dropped index's name.
        name: String,
    },
    /// Phase one of a migration: `moved` files of `source` are bound for
    /// the freshly minted (but not yet routable) `new_acg` on `targets`.
    BeginMigration {
        /// The source group being carved.
        source: AcgId,
        /// The reserved id of the new group.
        new_acg: AcgId,
        /// The files being carved out.
        moved: Vec<FileId>,
        /// The replica set the part is being installed on.
        targets: Vec<NodeId>,
    },
    /// Every target durably installed the part of migration `new_acg`;
    /// the source's copy may now be removed.
    InstallAcked {
        /// The migration's new-group id.
        new_acg: AcgId,
    },
}

/// An in-flight two-phase migration, exactly as the Master persists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// The group the part is being carved out of.
    pub source: AcgId,
    /// The reserved id of the new group (not routable until commit).
    pub new_acg: AcgId,
    /// The files being moved.
    pub moved: Vec<FileId>,
    /// The replica set the part is installed on.
    pub targets: Vec<NodeId>,
    /// Whether every target's Install was durably acked — once true, the
    /// source's retained copy may be removed; until then it must not be.
    pub installed: bool,
}

/// A full image of the Master's hard state: the live Master keeps its
/// hard state as exactly one of these, and a checkpoint encodes it, so
/// recovery is snapshot + O(delta) suffix replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaImage {
    /// The next ACG id to mint.
    pub next_acg: u64,
    /// The routing generation: committed splits so far, which clients sync
    /// their route caches against (monotone across restarts).
    pub routing_gen: u64,
    /// The current open fill target, if any.
    pub open_acg: Option<AcgId>,
    /// The authoritative `file → acg` map.
    pub file_to_acg: HashMap<FileId, AcgId>,
    /// Placement: each ACG's replica set (primary first). Splits and
    /// migrations replace a whole set, never one node of it silently, so
    /// clients can cache `(acg, replicas)` rows.
    pub acg_replicas: HashMap<AcgId, Vec<NodeId>>,
    /// The cluster-wide named-index registry.
    pub specs: Vec<IndexSpec>,
    /// The recent-splits log backing `RouteHints` (gen, moved files).
    pub split_log: VecDeque<(u64, Vec<FileId>)>,
    /// In-flight two-phase migrations keyed by `new_acg`. A migration's new
    /// group is not routable (absent from `acg_replicas`, shielded from
    /// heartbeat adoption) until it commits.
    pub migrations: HashMap<AcgId, Migration>,
}

codec_struct!(Migration { source, new_acg, moved, targets, installed });
codec_struct!(MetaImage {
    next_acg,
    routing_gen,
    open_acg,
    file_to_acg,
    acg_replicas,
    specs,
    split_log,
    migrations,
});

/// `[tag u8]` then the variant's fields in declaration order.
impl Codec for MetaOp {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            MetaOp::PlaceFiles { placements } => {
                1u8.put(buf);
                placements.put(buf);
            }
            MetaOp::CreateAcg { acg, replicas, open } => {
                (2u8, *acg).put(buf);
                replicas.put(buf);
                open.put(buf);
            }
            MetaOp::CommitSplit { acg, new_acg, moved, targets } => {
                (3u8, *acg, *new_acg).put(buf);
                moved.put(buf);
                targets.put(buf);
            }
            MetaOp::AdoptReplica { acg, node } => (4u8, *acg, *node).put(buf),
            MetaOp::CreateIndexSpec { spec } => {
                5u8.put(buf);
                spec.put(buf);
            }
            MetaOp::DropIndexSpec { name } => {
                6u8.put(buf);
                name.put(buf);
            }
            MetaOp::BeginMigration { source, new_acg, moved, targets } => {
                (7u8, *source, *new_acg).put(buf);
                moved.put(buf);
                targets.put(buf);
            }
            MetaOp::InstallAcked { new_acg } => (8u8, *new_acg).put(buf),
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        Ok(match u8::take(data)? {
            1 => MetaOp::PlaceFiles { placements: Codec::take(data)? },
            2 => MetaOp::CreateAcg {
                acg: Codec::take(data)?,
                replicas: Codec::take(data)?,
                open: Codec::take(data)?,
            },
            3 => MetaOp::CommitSplit {
                acg: Codec::take(data)?,
                new_acg: Codec::take(data)?,
                moved: Codec::take(data)?,
                targets: Codec::take(data)?,
            },
            4 => MetaOp::AdoptReplica { acg: Codec::take(data)?, node: Codec::take(data)? },
            5 => MetaOp::CreateIndexSpec { spec: Codec::take(data)? },
            6 => MetaOp::DropIndexSpec { name: Codec::take(data)? },
            7 => MetaOp::BeginMigration {
                source: Codec::take(data)?,
                new_acg: Codec::take(data)?,
                moved: Codec::take(data)?,
                targets: Codec::take(data)?,
            },
            8 => MetaOp::InstallAcked { new_acg: Codec::take(data)? },
            tag => return Err(durable::unknown_tag("meta op", tag)),
        })
    }
}

// ------------------------------------------------------------- the store --

/// The canonical file name of a Master metadata checkpoint covering `lsn`.
fn meta_snapshot_name(lsn: u64) -> String {
    format!("meta-{lsn}.snap")
}

fn parse_meta_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("meta-")?.strip_suffix(".snap")?.parse().ok()
}

fn read_meta_snapshot(path: &Path) -> Result<MetaImage> {
    let raw = fs::read(path)?;
    durable::unseal(MAGIC, VERSION, &raw).and_then(MetaImage::decode).map_err(|e| {
        Error::SnapshotCorrupt { path: path.display().to_string(), reason: e.to_string() }
    })
}

/// What recovery found on disk: the newest valid checkpoint image (if
/// any) plus the WAL suffix to replay on top of it, in LSN order.
#[derive(Debug, Default)]
pub(crate) struct MetaRecovery {
    /// The checkpoint image, or `None` for a full-WAL replay.
    pub image: Option<MetaImage>,
    /// Ops after the checkpoint, to apply in order.
    pub suffix: Vec<MetaOp>,
}

/// The Master's durable metadata store: a control-plane WAL plus
/// two-checkpoint snapshot retention under `<data_dir>/master/`.
#[derive(Debug)]
pub(crate) struct MetaStore {
    dir: PathBuf,
    wal: Wal,
    /// LSN of the newest checkpoint written or recovered from.
    checkpoint_lsn: Option<u64>,
    /// Ops appended since the last checkpoint; drives `checkpoint_due`.
    ops_since_snapshot: usize,
    /// Checkpoint after this many logged ops.
    snapshot_every: usize,
}

impl MetaStore {
    /// Opens (or creates) the store under `dir` and recovers whatever the
    /// previous incarnation persisted: the newest **valid** checkpoint —
    /// corrupt ones are skipped, falling back to older files or a full
    /// replay — plus the decoded WAL suffix after it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the directory or WAL cannot be opened
    /// and [`Error::Corrupt`] when a WAL suffix frame fails to decode or
    /// when no checkpoint validates but the WAL was already truncated
    /// behind one (the file→ACG map would silently come back partial).
    pub(crate) fn open(dir: &Path, snapshot_every: usize) -> Result<(Self, MetaRecovery)> {
        fs::create_dir_all(dir)?;
        let mut wal = Wal::open(dir.join("meta.wal"))?;
        let (found, _) =
            durable::load_newest(dir, parse_meta_snapshot_name, &wal, read_meta_snapshot)?;
        let (checkpoint_lsn, image) = found.unzip();
        let mut suffix = Vec::new();
        for (_, frame) in wal.replay_from(checkpoint_lsn.unwrap_or(0))? {
            suffix.push(MetaOp::decode(&frame)?);
        }
        let store = MetaStore {
            dir: dir.to_path_buf(),
            wal,
            checkpoint_lsn,
            ops_since_snapshot: suffix.len(),
            snapshot_every,
        };
        Ok((store, MetaRecovery { image, suffix }))
    }

    /// Appends `ops` as individual frames and makes them durable. The
    /// caller applies `ops` only after this returns `Ok`, so an unlogged
    /// transition is never observed, let alone acked.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the append or fsync fails.
    pub(crate) fn log(&mut self, ops: &[MetaOp]) -> Result<()> {
        for op in ops {
            self.wal.append(&op.encode())?;
        }
        self.wal.sync()?;
        self.ops_since_snapshot += ops.len();
        Ok(())
    }

    /// Whether enough ops accumulated since the last checkpoint that the
    /// Master should cut a new one.
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.ops_since_snapshot >= self.snapshot_every
    }

    /// Writes a checkpoint of `image` covering every logged op and retires
    /// what it supersedes: the previous checkpoint stays, the WAL is
    /// truncated to it, and older checkpoints and stale temp files go.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on file-system failure; recovery is unaffected
    /// in that case — the WAL still reaches back to a valid checkpoint.
    pub(crate) fn checkpoint(&mut self, image: &MetaImage) -> Result<()> {
        let lsn = self.wal.last_lsn();
        if self.checkpoint_lsn == Some(lsn) {
            return Ok(());
        }
        let path = self.dir.join(meta_snapshot_name(lsn));
        durable::replace(&path, &durable::seal(MAGIC, VERSION, &image.encode()))?;
        self.ops_since_snapshot = 0;
        let older = self.checkpoint_lsn.replace(lsn);
        durable::retire(&self.dir, parse_meta_snapshot_name, &mut self.wal, older)?;
        Ok(())
    }

    /// The number of live frames in the control-plane WAL (diagnostics).
    #[cfg(test)]
    pub(crate) fn entry_count(&self) -> u64 {
        self.wal.entry_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_index::IndexKind;
    use propeller_types::AttrName;

    /// Checkpoints retained after a second one: the newest, plus the older
    /// one the WAL is truncated to.
    const KEEP_SNAPSHOTS: usize = 2;

    fn list_meta_snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
        durable::list_checkpoints(dir, parse_meta_snapshot_name)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("propeller-meta-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ops() -> Vec<MetaOp> {
        vec![
            MetaOp::CreateAcg {
                acg: AcgId::new(1),
                replicas: vec![NodeId::new(1), NodeId::new(2)],
                open: true,
            },
            MetaOp::PlaceFiles {
                placements: vec![(FileId::new(7), AcgId::new(1)), (FileId::new(8), AcgId::new(1))],
            },
            MetaOp::CreateIndexSpec {
                spec: IndexSpec {
                    name: "by-uid".into(),
                    kind: IndexKind::Hash,
                    attrs: vec![AttrName::Uid],
                },
            },
            MetaOp::BeginMigration {
                source: AcgId::new(1),
                new_acg: AcgId::new(2),
                moved: vec![FileId::new(8)],
                targets: vec![NodeId::new(2)],
            },
            MetaOp::InstallAcked { new_acg: AcgId::new(2) },
            MetaOp::CommitSplit {
                acg: AcgId::new(1),
                new_acg: AcgId::new(2),
                moved: vec![FileId::new(8)],
                targets: vec![NodeId::new(2)],
            },
            MetaOp::AdoptReplica { acg: AcgId::new(2), node: NodeId::new(3) },
            MetaOp::DropIndexSpec { name: "by-uid".into() },
        ]
    }

    #[test]
    fn meta_ops_round_trip() {
        for op in sample_ops() {
            let bytes = op.encode();
            assert_eq!(MetaOp::decode(&bytes).unwrap(), op, "round-trip of {op:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag_and_trailing_bytes() {
        assert!(MetaOp::decode(&[99]).is_err());
        let mut bytes = MetaOp::InstallAcked { new_acg: AcgId::new(1) }.encode();
        bytes.push(0);
        assert!(MetaOp::decode(&bytes).is_err());
    }

    fn sample_image() -> MetaImage {
        MetaImage {
            next_acg: 5,
            routing_gen: 3,
            open_acg: Some(AcgId::new(4)),
            file_to_acg: [(FileId::new(1), AcgId::new(1)), (FileId::new(2), AcgId::new(4))].into(),
            acg_replicas: [
                (AcgId::new(1), vec![NodeId::new(1), NodeId::new(2)]),
                (AcgId::new(4), vec![NodeId::new(2)]),
            ]
            .into(),
            specs: vec![IndexSpec {
                name: "kw".into(),
                kind: IndexKind::Inverted,
                attrs: vec![AttrName::Keyword],
            }],
            split_log: [(1, vec![FileId::new(2)]), (2, vec![])].into(),
            migrations: [(
                AcgId::new(5),
                Migration {
                    source: AcgId::new(1),
                    new_acg: AcgId::new(5),
                    moved: vec![FileId::new(1)],
                    targets: vec![NodeId::new(3)],
                    installed: false,
                },
            )]
            .into(),
        }
    }

    #[test]
    fn image_round_trips() {
        let image = sample_image();
        let decoded = MetaImage::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image);
        // Maps encode in key order: equal state, equal bytes.
        let map = |keys: &mut dyn Iterator<Item = u64>| -> HashMap<FileId, AcgId> {
            keys.map(|i| (FileId::new(i), AcgId::new(i))).collect()
        };
        assert_eq!(map(&mut (0..64)).encode(), map(&mut (0..64).rev()).encode());
    }

    #[test]
    fn version_1_checkpoint_is_refused() {
        let dir = temp_dir("version-1");
        let path = dir.join(meta_snapshot_name(1));
        fs::write(&path, durable::seal(MAGIC, 1, &sample_image().encode())).unwrap();
        assert!(matches!(read_meta_snapshot(&path), Err(Error::SnapshotCorrupt { .. })));
        fs::write(&path, durable::seal(MAGIC, VERSION, &sample_image().encode())).unwrap();
        assert_eq!(read_meta_snapshot(&path).unwrap(), sample_image());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_recovers_logged_suffix_without_checkpoint() {
        let dir = temp_dir("suffix");
        {
            let (mut store, rec) = MetaStore::open(&dir, 1000).unwrap();
            assert!(rec.image.is_none() && rec.suffix.is_empty());
            store.log(&sample_ops()).unwrap();
        }
        let (_, rec) = MetaStore::open(&dir, 1000).unwrap();
        assert!(rec.image.is_none());
        assert_eq!(rec.suffix, sample_ops());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_prunes() {
        let dir = temp_dir("ckpt");
        let image = MetaImage { next_acg: 9, routing_gen: 2, ..Default::default() };
        {
            let (mut store, _) = MetaStore::open(&dir, 2).unwrap();
            store.log(&sample_ops()).unwrap();
            assert!(store.checkpoint_due());
            store.checkpoint(&image).unwrap();
            // Ops after the checkpoint become the replay suffix.
            store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(7) }]).unwrap();
            store.checkpoint(&image).unwrap();
            store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(8) }]).unwrap();
        }
        assert_eq!(list_meta_snapshots(&dir).len(), KEEP_SNAPSHOTS);
        let (store, rec) = MetaStore::open(&dir, 2).unwrap();
        assert_eq!(rec.image, Some(image));
        assert_eq!(rec.suffix, vec![MetaOp::InstallAcked { new_acg: AcgId::new(8) }]);
        // The WAL was truncated to the suffix after the older checkpoint.
        assert!(store.entry_count() <= 2, "wal holds {} frames", store.entry_count());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let dir = temp_dir("torn");
        let good = MetaImage { next_acg: 3, ..Default::default() };
        {
            let (mut store, _) = MetaStore::open(&dir, 1).unwrap();
            store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(1) }]).unwrap();
            store.checkpoint(&good).unwrap();
            store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(2) }]).unwrap();
            store.checkpoint(&MetaImage { next_acg: 4, ..Default::default() }).unwrap();
        }
        let newest = list_meta_snapshots(&dir).remove(0).1;
        fs::write(&newest, b"PMETgarbage").unwrap();
        let (_, rec) = MetaStore::open(&dir, 1).unwrap();
        assert_eq!(rec.image, Some(good));
        assert_eq!(rec.suffix, vec![MetaOp::InstallAcked { new_acg: AcgId::new(2) }]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn losing_every_checkpoint_of_a_truncated_wal_is_refused() {
        let dir = temp_dir("all-corrupt");
        {
            let (mut store, _) = MetaStore::open(&dir, 1).unwrap();
            for acg in 1..=2 {
                store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(acg) }]).unwrap();
                store.checkpoint(&MetaImage { next_acg: acg + 1, ..Default::default() }).unwrap();
            }
            store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(3) }]).unwrap();
        }
        for (_, path) in list_meta_snapshots(&dir) {
            fs::write(&path, b"PMETgarbage").unwrap();
        }
        // The WAL no longer holds op 1, so replaying it alone would bring
        // the Master back with a silently emptied file->ACG map.
        let opened = MetaStore::open(&dir, 1).map(|(_, rec)| rec.suffix);
        assert!(matches!(opened, Err(Error::Corrupt(_))), "got {opened:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_temp_file_is_swept_by_the_next_checkpoint() {
        let dir = temp_dir("stale-tmp");
        let (mut store, _) = MetaStore::open(&dir, 1).unwrap();
        // The residue of a crash between a checkpoint's write and rename.
        let stale = dir.join("meta-7.snap.tmp");
        fs::write(&stale, b"torn").unwrap();
        store.log(&[MetaOp::InstallAcked { new_acg: AcgId::new(1) }]).unwrap();
        store.checkpoint(&MetaImage::default()).unwrap();
        assert!(!stale.exists(), "stale temp file survived a checkpoint");
        assert_eq!(list_meta_snapshots(&dir).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
