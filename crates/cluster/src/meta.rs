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
//! meta.wal            the control-plane WAL (propeller_index::Wal framing)
//! meta-<lsn>.snap := durable::seal("PMET", 1, MetaImage::encode())
//! ```
//!
//! The checkpoints and the WAL form a `propeller_index::durable`
//! checkpoint set, exactly like an ACG's snapshots: the newest valid
//! checkpoint wins, two are kept with the WAL truncated to the older, so a
//! torn newest checkpoint still recovers from the previous one plus
//! replay, and losing every checkpoint of a truncated WAL is refused.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use propeller_index::snapshot::{decode_spec_from, encode_spec_into};
use propeller_index::{durable, put_str, take_str, take_u32, take_u64, take_u8, IndexSpec, Wal};
use propeller_types::{AcgId, Error, FileId, NodeId, Result};

/// Envelope magic and version of a Master metadata checkpoint.
const MAGIC: [u8; 4] = *b"PMET";
const VERSION: u32 = 1;

/// One durable Master state transition. Every mutation of hard Master
/// state is expressed as (a batch of) these, logged before the ack; soft
/// state — liveness, heartbeat freshness, split *pressure* — is never
/// logged because a restarted Master re-learns it from the next heartbeat
/// round.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetaOp {
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
pub(crate) struct Migration {
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

/// A full image of the Master's hard state — everything a checkpoint must
/// capture for recovery to be snapshot + O(delta) suffix replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MetaImage {
    /// The next ACG id to mint.
    pub next_acg: u64,
    /// The routing generation (monotone across restarts — satellite fix).
    pub routing_gen: u64,
    /// The current open fill target, if any.
    pub open_acg: Option<AcgId>,
    /// The authoritative `file → acg` map.
    pub file_to_acg: Vec<(FileId, AcgId)>,
    /// Placement: each ACG's replica set (primary first).
    pub acg_replicas: Vec<(AcgId, Vec<NodeId>)>,
    /// The cluster-wide named-index registry.
    pub specs: Vec<IndexSpec>,
    /// The recent-splits log backing `RouteHints` (gen, moved files).
    pub split_log: Vec<(u64, Vec<FileId>)>,
    /// In-flight two-phase migrations keyed implicitly by `new_acg`.
    pub migrations: Vec<Migration>,
}

// ---------------------------------------------------------------- codec --

fn put_files(buf: &mut BytesMut, files: &[FileId]) {
    buf.put_u32_le(files.len() as u32);
    for f in files {
        buf.put_u64_le(f.raw());
    }
}

fn take_files(data: &mut &[u8]) -> Result<Vec<FileId>> {
    let n = take_u32(data)? as usize;
    let mut files = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        files.push(FileId::new(take_u64(data)?));
    }
    Ok(files)
}

fn put_nodes(buf: &mut BytesMut, nodes: &[NodeId]) {
    buf.put_u32_le(nodes.len() as u32);
    for n in nodes {
        buf.put_u32_le(n.raw());
    }
}

fn take_nodes(data: &mut &[u8]) -> Result<Vec<NodeId>> {
    let n = take_u32(data)? as usize;
    let mut nodes = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        nodes.push(NodeId::new(take_u32(data)?));
    }
    Ok(nodes)
}

impl MetaOp {
    /// Encodes the op as one WAL frame payload (the WAL adds LSN + CRC).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            MetaOp::PlaceFiles { placements } => {
                buf.put_u8(1);
                buf.put_u32_le(placements.len() as u32);
                for (file, acg) in placements {
                    buf.put_u64_le(file.raw());
                    buf.put_u64_le(acg.raw());
                }
            }
            MetaOp::CreateAcg { acg, replicas, open } => {
                buf.put_u8(2);
                buf.put_u64_le(acg.raw());
                buf.put_u8(u8::from(*open));
                put_nodes(&mut buf, replicas);
            }
            MetaOp::CommitSplit { acg, new_acg, moved, targets } => {
                buf.put_u8(3);
                buf.put_u64_le(acg.raw());
                buf.put_u64_le(new_acg.raw());
                put_nodes(&mut buf, targets);
                put_files(&mut buf, moved);
            }
            MetaOp::AdoptReplica { acg, node } => {
                buf.put_u8(4);
                buf.put_u64_le(acg.raw());
                buf.put_u32_le(node.raw());
            }
            MetaOp::CreateIndexSpec { spec } => {
                buf.put_u8(5);
                encode_spec_into(&mut buf, spec);
            }
            MetaOp::DropIndexSpec { name } => {
                buf.put_u8(6);
                put_str(&mut buf, name);
            }
            MetaOp::BeginMigration { source, new_acg, moved, targets } => {
                buf.put_u8(7);
                buf.put_u64_le(source.raw());
                buf.put_u64_le(new_acg.raw());
                put_nodes(&mut buf, targets);
                put_files(&mut buf, moved);
            }
            MetaOp::InstallAcked { new_acg } => {
                buf.put_u8(8);
                buf.put_u64_le(new_acg.raw());
            }
        }
        buf.to_vec()
    }

    /// Decodes a frame written by [`MetaOp::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on an unknown tag, truncation, or
    /// trailing bytes.
    pub(crate) fn decode(mut data: &[u8]) -> Result<Self> {
        let cursor = &mut data;
        let op = match take_u8(cursor)? {
            1 => {
                let n = take_u32(cursor)? as usize;
                let mut placements = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let file = FileId::new(take_u64(cursor)?);
                    let acg = AcgId::new(take_u64(cursor)?);
                    placements.push((file, acg));
                }
                MetaOp::PlaceFiles { placements }
            }
            2 => {
                let acg = AcgId::new(take_u64(cursor)?);
                let open = take_u8(cursor)? != 0;
                let replicas = take_nodes(cursor)?;
                MetaOp::CreateAcg { acg, replicas, open }
            }
            3 => {
                let acg = AcgId::new(take_u64(cursor)?);
                let new_acg = AcgId::new(take_u64(cursor)?);
                let targets = take_nodes(cursor)?;
                let moved = take_files(cursor)?;
                MetaOp::CommitSplit { acg, new_acg, moved, targets }
            }
            4 => {
                let acg = AcgId::new(take_u64(cursor)?);
                let node = NodeId::new(take_u32(cursor)?);
                MetaOp::AdoptReplica { acg, node }
            }
            5 => MetaOp::CreateIndexSpec { spec: decode_spec_from(cursor)? },
            6 => MetaOp::DropIndexSpec { name: take_str(cursor)? },
            7 => {
                let source = AcgId::new(take_u64(cursor)?);
                let new_acg = AcgId::new(take_u64(cursor)?);
                let targets = take_nodes(cursor)?;
                let moved = take_files(cursor)?;
                MetaOp::BeginMigration { source, new_acg, moved, targets }
            }
            8 => MetaOp::InstallAcked { new_acg: AcgId::new(take_u64(cursor)?) },
            other => return Err(Error::Corrupt(format!("unknown meta op tag {other}"))),
        };
        if !cursor.is_empty() {
            return Err(Error::Corrupt(format!("{} trailing bytes in meta frame", cursor.len())));
        }
        Ok(op)
    }
}

impl MetaImage {
    fn encode(&self) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u64_le(self.next_acg);
        buf.put_u64_le(self.routing_gen);
        buf.put_u64_le(self.open_acg.map_or(0, |a| a.raw()));
        buf.put_u64_le(self.file_to_acg.len() as u64);
        for (file, acg) in &self.file_to_acg {
            buf.put_u64_le(file.raw());
            buf.put_u64_le(acg.raw());
        }
        buf.put_u32_le(self.acg_replicas.len() as u32);
        for (acg, replicas) in &self.acg_replicas {
            buf.put_u64_le(acg.raw());
            put_nodes(&mut buf, replicas);
        }
        buf.put_u32_le(self.specs.len() as u32);
        for spec in &self.specs {
            encode_spec_into(&mut buf, spec);
        }
        buf.put_u32_le(self.split_log.len() as u32);
        for (gen, moved) in &self.split_log {
            buf.put_u64_le(*gen);
            put_files(&mut buf, moved);
        }
        buf.put_u32_le(self.migrations.len() as u32);
        for m in &self.migrations {
            buf.put_u64_le(m.source.raw());
            buf.put_u64_le(m.new_acg.raw());
            buf.put_u8(u8::from(m.installed));
            put_nodes(&mut buf, &m.targets);
            put_files(&mut buf, &m.moved);
        }
        buf
    }

    fn decode(mut data: &[u8]) -> Result<Self> {
        let cursor = &mut data;
        let next_acg = take_u64(cursor)?;
        let routing_gen = take_u64(cursor)?;
        let open_raw = take_u64(cursor)?;
        let open_acg = if open_raw == 0 { None } else { Some(AcgId::new(open_raw)) };
        let nfiles = take_u64(cursor)? as usize;
        let mut file_to_acg = Vec::with_capacity(nfiles.min(1 << 20));
        for _ in 0..nfiles {
            let file = FileId::new(take_u64(cursor)?);
            let acg = AcgId::new(take_u64(cursor)?);
            file_to_acg.push((file, acg));
        }
        let nacgs = take_u32(cursor)? as usize;
        let mut acg_replicas = Vec::with_capacity(nacgs.min(1 << 16));
        for _ in 0..nacgs {
            let acg = AcgId::new(take_u64(cursor)?);
            acg_replicas.push((acg, take_nodes(cursor)?));
        }
        let nspecs = take_u32(cursor)? as usize;
        let mut specs = Vec::with_capacity(nspecs.min(256));
        for _ in 0..nspecs {
            specs.push(decode_spec_from(cursor)?);
        }
        let nsplits = take_u32(cursor)? as usize;
        let mut split_log = Vec::with_capacity(nsplits.min(1 << 12));
        for _ in 0..nsplits {
            let gen = take_u64(cursor)?;
            split_log.push((gen, take_files(cursor)?));
        }
        let nmig = take_u32(cursor)? as usize;
        let mut migrations = Vec::with_capacity(nmig.min(1 << 10));
        for _ in 0..nmig {
            let source = AcgId::new(take_u64(cursor)?);
            let new_acg = AcgId::new(take_u64(cursor)?);
            let installed = take_u8(cursor)? != 0;
            let targets = take_nodes(cursor)?;
            let moved = take_files(cursor)?;
            migrations.push(Migration { source, new_acg, moved, targets, installed });
        }
        if !cursor.is_empty() {
            return Err(Error::Corrupt(format!("{} trailing bytes in meta image", cursor.len())));
        }
        Ok(MetaImage {
            next_acg,
            routing_gen,
            open_acg,
            file_to_acg,
            acg_replicas,
            specs,
            split_log,
            migrations,
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

    /// An ephemeral store for memory-only Masters: logging is a no-op-cost
    /// in-memory append and checkpoints never trigger.
    pub(crate) fn in_memory() -> Self {
        MetaStore {
            dir: PathBuf::new(),
            wal: Wal::in_memory(),
            checkpoint_lsn: None,
            ops_since_snapshot: 0,
            snapshot_every: usize::MAX,
        }
    }

    /// Appends `ops` as individual frames and makes them durable. The
    /// caller must **roll back** its in-memory mutation if this errors —
    /// an unlogged transition must not be acked.
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
        self.ops_since_snapshot >= self.snapshot_every && self.wal.is_durable()
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
        if !self.wal.is_durable() || self.checkpoint_lsn == Some(lsn) {
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

/// Builds a `BTreeMap` view of `pairs` — a convenience for callers that
/// snapshot `HashMap` state into the deterministic image encoding.
pub(crate) fn sorted_pairs<K: Ord + Copy, V: Clone>(
    map: &std::collections::HashMap<K, V>,
) -> Vec<(K, V)> {
    let ordered: BTreeMap<K, V> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
    ordered.into_iter().collect()
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

    #[test]
    fn image_round_trips() {
        let image = MetaImage {
            next_acg: 5,
            routing_gen: 3,
            open_acg: Some(AcgId::new(4)),
            file_to_acg: vec![(FileId::new(1), AcgId::new(1)), (FileId::new(2), AcgId::new(4))],
            acg_replicas: vec![
                (AcgId::new(1), vec![NodeId::new(1), NodeId::new(2)]),
                (AcgId::new(4), vec![NodeId::new(2)]),
            ],
            specs: vec![IndexSpec {
                name: "kw".into(),
                kind: IndexKind::Inverted,
                attrs: vec![AttrName::Keyword],
            }],
            split_log: vec![(1, vec![FileId::new(2)]), (2, vec![])],
            migrations: vec![Migration {
                source: AcgId::new(1),
                new_acg: AcgId::new(5),
                moved: vec![FileId::new(1)],
                targets: vec![NodeId::new(3)],
                installed: false,
            }],
        };
        let decoded = MetaImage::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image);
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
