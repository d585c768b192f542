//! Durable ACG snapshots — the checkpoint half of the durability layer.
//!
//! A snapshot serializes one ACG's **committed** state (its records plus
//! the named-index table; the hash / B+-tree / K-D structures are rebuilt
//! from those on load) into one file stamped with the WAL LSN it covers.
//! The file is a [`crate::durable`] envelope written by atomic replace, so
//! a crash mid-snapshot leaves the previous snapshot set or the new one,
//! and a torn payload fails its CRC; the snapshots of one ACG form a
//! durable checkpoint set over its WAL.
//!
//! ## File layout
//!
//! ```text
//! acg-<acg>-<lsn>.snap := durable::seal("PSNP", 2, SnapshotData)
//!   SnapshotData :=
//!     [acg u64][lsn u64]
//!     [nspecs u32] { [name str][kind u8][nattrs u32] { attr }... }...
//!     [nrecords u32] { record }...          // the ops.rs record bytes
//!   attr := [tag u8 0..=7] | [8 u8] str     // builtin | custom name
//! ```
//!
//! The LSN in the *name* is what recovery sorts by (newest first); the LSN
//! in the *payload* is the authoritative anchor — a renamed or copied file
//! cannot silently claim coverage it does not have, because the two are
//! cross-checked on load.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use propeller_types::{AcgId, Error, Result};

use crate::codec_struct;
use crate::durable::{self, Codec};
use crate::group::{IndexKind, IndexSpec};
use crate::ops::FileRecord;

/// Envelope magic and version of a snapshot file.
const MAGIC: [u8; 4] = *b"PSNP";
const VERSION: u32 = 2;

/// A decoded snapshot: everything needed to rebuild an
/// [`crate::AcgIndexGroup`]'s committed state. Its [`Codec`] bytes are
/// the snapshot payload.
#[derive(Debug, PartialEq)]
pub struct SnapshotData {
    /// The ACG this snapshot belongs to.
    pub acg: AcgId,
    /// The WAL LSN this snapshot covers: every frame with LSN `≤ lsn` is
    /// reflected in `records`; recovery replays only the suffix.
    pub lsn: u64,
    /// The named-index table at snapshot time (defaults included).
    pub specs: Vec<IndexSpec>,
    /// Every committed record.
    pub records: Vec<FileRecord>,
}

/// The canonical file name of a snapshot of `acg` covering `lsn`.
pub fn snapshot_file_name(acg: AcgId, lsn: u64) -> String {
    format!("acg-{}-{}.snap", acg.raw(), lsn)
}

/// Parses a snapshot file name back into `(acg, lsn)`; `None` for files
/// that are not snapshots (temp files included).
pub fn parse_snapshot_name(name: &str) -> Option<(AcgId, u64)> {
    let rest = name.strip_prefix("acg-")?.strip_suffix(".snap")?;
    let (acg, lsn) = rest.rsplit_once('-')?;
    Some((AcgId::new(acg.parse().ok()?), lsn.parse().ok()?))
}

/// The canonical file name of an ACG's WAL, kept beside the snapshot
/// naming so the writer ([`crate::Wal::open`] callers) and the discovery
/// scan parse one format.
pub fn wal_file_name(acg: AcgId) -> String {
    format!("acg-{}.wal", acg.raw())
}

/// Parses a WAL file name back into its ACG; `None` for non-WAL files
/// (the `.wal.tmp` staging files of a WAL rewrite included).
pub fn parse_wal_name(name: &str) -> Option<AcgId> {
    let raw = name.strip_prefix("acg-")?.strip_suffix(".wal")?;
    Some(AcgId::new(raw.parse().ok()?))
}

/// The name parser of `acg`'s checkpoint set: the LSN of each of its
/// snapshot files, `None` for every other file.
pub(crate) fn snapshot_lsn_parser(acg: AcgId) -> impl Fn(&str) -> Option<u64> {
    move |name| parse_snapshot_name(name).filter(|&(of, _)| of == acg).map(|(_, lsn)| lsn)
}

/// Lists the snapshot files of `acg` under `dir`, newest (highest LSN)
/// first. Unreadable directories list as empty — recovery then falls back
/// to a full WAL replay.
pub fn list_snapshots(dir: &Path, acg: AcgId) -> Vec<(u64, PathBuf)> {
    durable::list_checkpoints(dir, snapshot_lsn_parser(acg))
}

/// The ACG ids that have at least one snapshot file under `dir`.
pub fn snapshot_acgs(dir: &Path) -> Vec<AcgId> {
    let mut acgs: Vec<AcgId> = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else { return acgs };
    for entry in entries.flatten() {
        if let Some((acg, _)) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            acgs.push(acg);
        }
    }
    acgs.sort_unstable();
    acgs.dedup();
    acgs
}

/// Each kind is encoded as its index here.
const KINDS: [IndexKind; 4] =
    [IndexKind::BTree, IndexKind::Hash, IndexKind::Kd, IndexKind::Inverted];

impl Codec for IndexKind {
    fn put(&self, buf: &mut BytesMut) {
        (KINDS.iter().position(|k| k == self).expect("every kind is listed") as u8).put(buf);
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        let tag = u8::take(data)?;
        KINDS.get(tag as usize).copied().ok_or_else(|| durable::unknown_tag("index kind", tag))
    }
}

// The Master's index-spec registry persists specs with these same bytes.
codec_struct!(IndexSpec { name, kind, attrs });
codec_struct!(SnapshotData { acg, lsn, specs, records });

/// Writes a snapshot of `acg` covering `lsn` to `dir` by
/// [`durable::replace`], returning the final path.
///
/// # Errors
///
/// Returns [`Error::Io`] on any file-system failure; no file under the
/// canonical name is touched in that case.
pub fn write_snapshot<'a>(
    dir: &Path,
    acg: AcgId,
    lsn: u64,
    specs: &[IndexSpec],
    records: impl Iterator<Item = &'a FileRecord>,
) -> Result<PathBuf> {
    fs::create_dir_all(dir)?;
    // The bytes of the `SnapshotData` that `read_snapshot` decodes, with
    // the records streamed rather than collected.
    let mut payload = BytesMut::new();
    (acg, lsn).put(&mut payload);
    durable::put_iter(&mut payload, specs);
    durable::put_iter(&mut payload, records);
    let path = dir.join(snapshot_file_name(acg, lsn));
    durable::replace(&path, &durable::seal(MAGIC, VERSION, &payload))?;
    Ok(path)
}

/// Reads and validates a snapshot file.
///
/// # Errors
///
/// Returns [`Error::SnapshotCorrupt`] when the file fails any validation
/// (magic, version, CRC, truncated or trailing payload, or an LSN/ACG that
/// contradicts the file name) and [`Error::Io`] when it cannot be read at
/// all. Callers treat both as "skip this file and fall back".
pub fn read_snapshot(path: &Path) -> Result<SnapshotData> {
    let corrupt =
        |reason: String| Error::SnapshotCorrupt { path: path.display().to_string(), reason };
    let raw = fs::read(path)?;
    (|| -> Result<SnapshotData> {
        let data = SnapshotData::decode(durable::unseal(MAGIC, VERSION, &raw)?)?;
        if let Some((name_acg, name_lsn)) =
            path.file_name().and_then(|n| n.to_str()).and_then(parse_snapshot_name)
        {
            if name_acg != data.acg || name_lsn != data.lsn {
                return Err(Error::Corrupt(format!(
                    "file name claims acg {} lsn {}, payload says acg {} lsn {}",
                    name_acg.raw(),
                    name_lsn,
                    data.acg.raw(),
                    data.lsn
                )));
            }
        }
        Ok(data)
    })()
    .map_err(|e| match e {
        Error::SnapshotCorrupt { .. } => e,
        other => corrupt(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::{AttrName, FileId, InodeAttrs, Value};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("propeller-snap-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records(n: u64) -> Vec<FileRecord> {
        (0..n)
            .map(|i| {
                FileRecord::new(FileId::new(i), InodeAttrs::builder().size(i * 7).build())
                    .with_keyword(format!("kw{}", i % 3))
                    .with_custom("energy", Value::F64(i as f64 * -0.5))
            })
            .collect()
    }

    fn sample_specs() -> Vec<IndexSpec> {
        vec![
            IndexSpec::btree("size_btree", AttrName::Size),
            IndexSpec::hash("keyword_hash", AttrName::Keyword),
            IndexSpec::kd("inode_kd", vec![AttrName::Size, AttrName::Mtime]),
            IndexSpec::btree("shadow_size", AttrName::custom("size")),
        ]
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir("round-trip");
        let records = sample_records(50);
        let specs = sample_specs();
        let path = write_snapshot(&dir, AcgId::new(7), 42, &specs, records.iter()).unwrap();
        let data = read_snapshot(&path).unwrap();
        assert_eq!(data.acg, AcgId::new(7));
        assert_eq!(data.lsn, 42);
        assert_eq!(data.specs, specs);
        assert_eq!(data.records, records);
        // The custom attr shadowing a builtin name survived as custom.
        assert_eq!(data.specs[3].attrs[0], AttrName::custom("size"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_parse_and_list_newest_first() {
        let dir = temp_dir("names");
        assert_eq!(parse_snapshot_name("acg-3-99.snap"), Some((AcgId::new(3), 99)));
        assert_eq!(parse_snapshot_name("acg-3-99.snap.tmp"), None);
        assert_eq!(parse_snapshot_name("acg-3.wal"), None);
        assert_eq!(parse_wal_name(&wal_file_name(AcgId::new(3))), Some(AcgId::new(3)));
        assert_eq!(parse_wal_name("acg-3.wal.tmp"), None);
        assert_eq!(parse_wal_name("acg-3-99.snap"), None);
        for lsn in [5u64, 30, 12] {
            write_snapshot(&dir, AcgId::new(1), lsn, &[], [].iter()).unwrap();
        }
        write_snapshot(&dir, AcgId::new(2), 100, &[], [].iter()).unwrap();
        let listed: Vec<u64> =
            list_snapshots(&dir, AcgId::new(1)).into_iter().map(|(l, _)| l).collect();
        assert_eq!(listed, vec![30, 12, 5]);
        assert_eq!(snapshot_acgs(&dir), vec![AcgId::new(1), AcgId::new(2)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = temp_dir("corrupt");
        let records = sample_records(20);
        let path = write_snapshot(&dir, AcgId::new(1), 9, &sample_specs(), records.iter()).unwrap();
        let good = fs::read(&path).unwrap();
        // Truncated payload.
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(read_snapshot(&path), Err(Error::SnapshotCorrupt { .. })));
        // Flipped payload byte.
        let mut flipped = good.clone();
        let ix = flipped.len() - 5;
        flipped[ix] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_snapshot(&path), Err(Error::SnapshotCorrupt { .. })));
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(read_snapshot(&path), Err(Error::SnapshotCorrupt { .. })));
        // A renamed file claiming a different LSN is rejected too.
        fs::write(&path, &good).unwrap();
        let lie = dir.join(snapshot_file_name(AcgId::new(1), 999));
        fs::rename(&path, &lie).unwrap();
        assert!(matches!(read_snapshot(&lie), Err(Error::SnapshotCorrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_snapshot_is_refused() {
        let dir = temp_dir("version-1");
        let path = write_snapshot(&dir, AcgId::new(1), 3, &sample_specs(), [].iter()).unwrap();
        let payload = read_snapshot(&path).unwrap().encode();
        fs::write(&path, durable::seal(MAGIC, 1, &payload)).unwrap();
        assert!(matches!(read_snapshot(&path), Err(Error::SnapshotCorrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_retained_window() {
        let dir = temp_dir("prune");
        for lsn in [10u64, 20, 30] {
            write_snapshot(&dir, AcgId::new(1), lsn, &[], [].iter()).unwrap();
        }
        fs::write(dir.join("acg-1-99.snap.tmp"), b"stale").unwrap();
        let removed = durable::prune(&dir, snapshot_lsn_parser(AcgId::new(1)), 20);
        assert_eq!(removed, 1, "only the lsn-10 file falls outside the window");
        let listed: Vec<u64> =
            list_snapshots(&dir, AcgId::new(1)).into_iter().map(|(l, _)| l).collect();
        assert_eq!(listed, vec![30, 20]);
        assert!(!dir.join("acg-1-99.snap.tmp").exists(), "stale temp files are swept");
        let _ = fs::remove_dir_all(&dir);
    }
}
