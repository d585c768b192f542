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
//! acg-<acg>-<lsn>.snap := durable::seal("PSNP", 1, payload)
//!   payload :=
//!     [acg u64][lsn u64]
//!     [nspecs u32] { [name str][kind u8][nattrs u32][attr]... }
//!     [nrecords u64] { record }...          // the ops.rs record codec
//! ```
//!
//! The LSN in the *name* is what recovery sorts by (newest first); the LSN
//! in the *payload* is the authoritative anchor — a renamed or copied file
//! cannot silently claim coverage it does not have, because the two are
//! cross-checked on load.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use propeller_types::{AcgId, AttrName, Error, Result};

use crate::durable;
use crate::group::{IndexKind, IndexSpec};
use crate::ops::FileRecord;
use crate::ops::{
    decode_record, encode_record_into, put_str, take_str, take_u32, take_u64, take_u8,
};

/// Envelope magic and version of a snapshot file.
const MAGIC: [u8; 4] = *b"PSNP";
const VERSION: u32 = 1;

/// A decoded snapshot: everything needed to rebuild an
/// [`crate::AcgIndexGroup`]'s committed state.
#[derive(Debug)]
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

fn encode_attr(buf: &mut BytesMut, attr: &AttrName) {
    // A tagged encoding rather than the display string: a custom attribute
    // whose name collides with a builtin ("size") must round-trip as
    // custom, which string parsing cannot guarantee.
    match attr {
        AttrName::Size => buf.put_u8(0),
        AttrName::Mtime => buf.put_u8(1),
        AttrName::Ctime => buf.put_u8(2),
        AttrName::Uid => buf.put_u8(3),
        AttrName::Gid => buf.put_u8(4),
        AttrName::Mode => buf.put_u8(5),
        AttrName::Nlink => buf.put_u8(6),
        AttrName::Keyword => buf.put_u8(7),
        AttrName::Custom(name) => {
            buf.put_u8(8);
            put_str(buf, name);
        }
    }
}

fn decode_attr(data: &mut &[u8]) -> Result<AttrName> {
    Ok(match take_u8(data)? {
        0 => AttrName::Size,
        1 => AttrName::Mtime,
        2 => AttrName::Ctime,
        3 => AttrName::Uid,
        4 => AttrName::Gid,
        5 => AttrName::Mode,
        6 => AttrName::Nlink,
        7 => AttrName::Keyword,
        8 => AttrName::Custom(take_str(data)?),
        other => return Err(Error::Corrupt(format!("unknown attr tag {other}"))),
    })
}

fn encode_spec(buf: &mut BytesMut, spec: &IndexSpec) {
    put_str(buf, &spec.name);
    buf.put_u8(match spec.kind {
        IndexKind::BTree => 0,
        IndexKind::Hash => 1,
        IndexKind::Kd => 2,
        IndexKind::Inverted => 3,
    });
    buf.put_u32_le(spec.attrs.len() as u32);
    for attr in &spec.attrs {
        encode_attr(buf, attr);
    }
}

fn decode_spec(data: &mut &[u8]) -> Result<IndexSpec> {
    let name = take_str(data)?;
    let kind = match take_u8(data)? {
        0 => IndexKind::BTree,
        1 => IndexKind::Hash,
        2 => IndexKind::Kd,
        3 => IndexKind::Inverted,
        other => return Err(Error::Corrupt(format!("unknown index kind tag {other}"))),
    };
    let nattrs = take_u32(data)? as usize;
    let mut attrs = Vec::with_capacity(nattrs.min(64));
    for _ in 0..nattrs {
        attrs.push(decode_attr(data)?);
    }
    Ok(IndexSpec { name, kind, attrs })
}

/// Encodes a named-index spec with the snapshot codec. Public so the
/// cluster control plane can persist its index-spec registry with the
/// exact bytes the data-plane snapshot files use.
pub fn encode_spec_into(buf: &mut BytesMut, spec: &IndexSpec) {
    encode_spec(buf, spec);
}

/// Decodes a spec written by [`encode_spec_into`] (or found inside a
/// snapshot payload), advancing the cursor past it.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a truncated or mistagged spec.
pub fn decode_spec_from(data: &mut &[u8]) -> Result<IndexSpec> {
    decode_spec(data)
}

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
    let mut payload = BytesMut::new();
    payload.put_u64_le(acg.raw());
    payload.put_u64_le(lsn);
    payload.put_u32_le(specs.len() as u32);
    for spec in specs {
        encode_spec(&mut payload, spec);
    }
    let count_pos = payload.len();
    payload.put_u64_le(0); // record count, patched below
    let mut count: u64 = 0;
    for record in records {
        encode_record_into(&mut payload, record);
        count += 1;
    }
    payload[count_pos..count_pos + 8].copy_from_slice(&count.to_le_bytes());
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
        let mut cursor = durable::unseal(MAGIC, VERSION, &raw)?;
        let acg = AcgId::new(take_u64(&mut cursor)?);
        let lsn = take_u64(&mut cursor)?;
        let nspecs = take_u32(&mut cursor)? as usize;
        let mut specs = Vec::with_capacity(nspecs.min(256));
        for _ in 0..nspecs {
            specs.push(decode_spec(&mut cursor)?);
        }
        let nrecords = take_u64(&mut cursor)? as usize;
        let mut records = Vec::with_capacity(nrecords.min(1 << 20));
        for _ in 0..nrecords {
            records.push(decode_record(&mut cursor)?);
        }
        if !cursor.is_empty() {
            return Err(Error::Corrupt(format!("{} trailing payload bytes", cursor.len())));
        }
        if let Some((name_acg, name_lsn)) =
            path.file_name().and_then(|n| n.to_str()).and_then(parse_snapshot_name)
        {
            if name_acg != acg || name_lsn != lsn {
                return Err(Error::Corrupt(format!(
                    "file name claims acg {} lsn {}, payload says acg {} lsn {}",
                    name_acg.raw(),
                    name_lsn,
                    acg.raw(),
                    lsn
                )));
            }
        }
        Ok(SnapshotData { acg, lsn, specs, records })
    })()
    .map_err(|e| match e {
        Error::SnapshotCorrupt { .. } => e,
        other => corrupt(other.to_string()),
    })
}

/// Removes snapshot files of `acg` older than `keep_from_lsn` (exclusive),
/// plus its stale temp files ([`durable::prune`]). Returns how many
/// snapshots were removed.
pub fn prune_snapshots(dir: &Path, acg: AcgId, keep_from_lsn: u64) -> usize {
    durable::prune(dir, snapshot_lsn_parser(acg), keep_from_lsn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::{FileId, InodeAttrs, Value};

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
    fn prune_keeps_the_retained_window() {
        let dir = temp_dir("prune");
        for lsn in [10u64, 20, 30] {
            write_snapshot(&dir, AcgId::new(1), lsn, &[], [].iter()).unwrap();
        }
        fs::write(dir.join("acg-1-99.snap.tmp"), b"stale").unwrap();
        let removed = prune_snapshots(&dir, AcgId::new(1), 20);
        assert_eq!(removed, 1, "only the lsn-10 file falls outside the window");
        let listed: Vec<u64> =
            list_snapshots(&dir, AcgId::new(1)).into_iter().map(|(l, _)| l).collect();
        assert_eq!(listed, vec![30, 20]);
        assert!(!dir.join("acg-1-99.snap.tmp").exists(), "stale temp files are swept");
        let _ = fs::remove_dir_all(&dir);
    }
}
