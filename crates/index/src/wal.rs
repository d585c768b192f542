//! Write-ahead log with CRC-protected framing and real log sequence
//! numbers.
//!
//! Index Nodes append every file-indexing request to a WAL before caching
//! it in memory (paper §IV "Index Node"), so acknowledged updates survive a
//! crash. Frames are `[len: u32 LE][crc32: u32 LE][payload]`; replay stops
//! at the first torn or corrupt frame, which models the standard
//! "valid prefix" recovery contract.
//!
//! Every frame carries an implicit **log sequence number**: the `i`-th
//! frame of a log whose base LSN is `b` has LSN `b + i`, LSNs start at 1,
//! and the base survives restarts through a small CRC-protected file
//! header. LSNs are what anchor snapshots to the log: a snapshot stamped
//! with LSN `s` covers every frame with LSN `≤ s`, recovery replays only
//! the suffix (`> s`), and [`Wal::truncate_upto`] discards the covered
//! prefix so the log stays bounded without ever renumbering the frames
//! that remain.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};
use propeller_types::{Error, Result};

use crate::durable;

/// CRC-32 (IEEE 802.3, reflected) computed bytewise with a generated table.
pub fn crc32(data: &[u8]) -> u32 {
    const fn make_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = make_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Magic prefix of a headered WAL file.
const MAGIC: [u8; 4] = *b"PWAL";
/// On-disk format version: 2 since every frame became one encoded
/// `Vec<IndexOp>` (or one Master op); a log in another version is refused.
const VERSION: u32 = 2;
/// Header layout: `[magic 4][version u32][base_lsn u64][crc32 u32]` where
/// the CRC covers the version and base LSN bytes.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

fn encode_header(base_lsn: u64) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
    buf[8..16].copy_from_slice(&base_lsn.to_le_bytes());
    let crc = crc32(&buf[4..16]);
    buf[16..20].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// The base LSN of a log starting with a valid header of this version.
fn decode_header(raw: &[u8]) -> Option<u64> {
    let header = raw.get(..HEADER_LEN)?;
    let crc = u32::from_le_bytes(header[16..20].try_into().ok()?);
    (header[..4] == MAGIC && header[4..8] == VERSION.to_le_bytes() && crc32(&header[4..16]) == crc)
        .then(|| u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")))
}

#[derive(Debug)]
enum Backend {
    Memory(BytesMut),
    File { file: File, path: PathBuf },
}

/// An append-only write-ahead log.
///
/// Two backends: in-memory (for non-durable groups and tests) and a real
/// file (for durability tests and measured mode). Both share the frame
/// format, so recovery code is backend-agnostic. A truncation replaces the
/// memory backend's buffer rather than clearing it, so a group's bulk-load
/// log is freed at its first commit instead of staying resident as spare
/// capacity.
///
/// # Examples
///
/// ```
/// use propeller_index::Wal;
///
/// let mut wal = Wal::in_memory();
/// assert_eq!(wal.append(b"op-1").unwrap(), 1);
/// assert_eq!(wal.append(b"op-2").unwrap(), 2);
/// let frames = wal.replay().unwrap();
/// assert_eq!(frames, vec![b"op-1".to_vec(), b"op-2".to_vec()]);
/// ```
#[derive(Debug)]
pub struct Wal {
    backend: Backend,
    entries: u64,
    /// Frame bytes currently in the log (headers of the frames included,
    /// the file header excluded).
    bytes: u64,
    /// LSN of the first frame currently in the log. LSNs start at 1; the
    /// base only moves forward (truncation), never back.
    base_lsn: u64,
}

impl Wal {
    /// Creates an in-memory WAL.
    pub fn in_memory() -> Self {
        Wal { backend: Backend::Memory(BytesMut::new()), entries: 0, bytes: 0, base_lsn: 1 }
    }

    /// Opens (or creates) a file-backed WAL, counting any existing valid
    /// frames. Any torn or corrupt tail beyond the valid prefix — the
    /// residue of a crash mid-append — is **truncated away**: leaving it
    /// in place would park every later append *behind* the bad frame,
    /// where replay (which stops at the first bad frame) can never reach
    /// it, silently losing acknowledged ops on the next recovery.
    ///
    /// A fresh file gets a CRC-protected header carrying the base LSN. A
    /// file shorter than that header whose bytes begin a fresh one is a
    /// torn first write (nothing can follow a partial header) and resets
    /// to an empty log.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be opened, read or
    /// truncated, and [`Error::Corrupt`] for any other file without a
    /// valid header — a damaged magic or base LSN, or another format
    /// version — which is left on disk untouched rather than mistaken for
    /// an empty log or misread.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let fresh = encode_header(1);
        let base_lsn = if raw.len() < HEADER_LEN && fresh.starts_with(&raw) {
            file.set_len(0)?;
            file.write_all(&fresh)?;
            raw = fresh.to_vec();
            1
        } else {
            decode_header(&raw).ok_or_else(|| {
                Error::Corrupt(format!("{} has no valid wal header", path.display()))
            })?
        };
        let frames = scan_frames(&raw[HEADER_LEN..]);
        let bytes: u64 = frames.iter().map(|f| f.len() as u64 + 8).sum();
        if raw.len() as u64 > HEADER_LEN as u64 + bytes {
            file.set_len(HEADER_LEN as u64 + bytes)?;
        }
        Ok(Wal {
            backend: Backend::File { file, path },
            entries: frames.len() as u64,
            bytes,
            base_lsn,
        })
    }

    /// Appends one payload as a framed record, returning the LSN the frame
    /// was assigned.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on file-backend write failures.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let mut frame = BytesMut::with_capacity(payload.len() + 8);
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(payload));
        frame.put_slice(payload);
        match &mut self.backend {
            Backend::Memory(buf) => buf.extend_from_slice(&frame),
            Backend::File { file, .. } => {
                file.write_all(&frame)?;
            }
        }
        let lsn = self.base_lsn + self.entries;
        self.entries += 1;
        self.bytes += frame.len() as u64;
        Ok(lsn)
    }

    /// Forces buffered data to stable storage (no-op for the memory
    /// backend).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if `fsync` fails.
    pub fn sync(&mut self) -> Result<()> {
        if let Backend::File { file, .. } = &mut self.backend {
            file.sync_data()?;
        }
        Ok(())
    }

    fn raw_frames(&mut self) -> Result<Vec<u8>> {
        Ok(match &mut self.backend {
            Backend::Memory(buf) => buf.to_vec(),
            Backend::File { file, .. } => {
                let mut v = Vec::new();
                file.seek(SeekFrom::Start(0))?;
                file.read_to_end(&mut v)?;
                v.split_off(HEADER_LEN.min(v.len()))
            }
        })
    }

    /// Reads back all valid frames currently in the log. Stops at the
    /// first torn or corrupt frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file backend cannot be read.
    pub fn replay(&mut self) -> Result<Vec<Vec<u8>>> {
        let raw = self.raw_frames()?;
        Ok(scan_frames(&raw))
    }

    /// Reads back the valid frames with LSN strictly greater than
    /// `after_lsn`, paired with their LSNs — the suffix-replay entry point
    /// for snapshot-anchored recovery.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file backend cannot be read.
    pub fn replay_from(&mut self, after_lsn: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let base = self.base_lsn;
        Ok(self
            .replay()?
            .into_iter()
            .enumerate()
            .map(|(i, payload)| (base + i as u64, payload))
            .filter(|&(lsn, _)| lsn > after_lsn)
            .collect())
    }

    /// Discards all log content, advancing the base LSN past every frame
    /// dropped so sequence numbers stay monotone across the truncation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file backend cannot be rewritten.
    pub fn truncate(&mut self) -> Result<()> {
        self.rewrite(self.base_lsn + self.entries, &[], 0)
    }

    /// Discards every frame with LSN `≤ lsn`, keeping the suffix with its
    /// original sequence numbers — called after a snapshot covering `lsn`
    /// has been made durable, so the log holds only what recovery still
    /// needs to replay. LSNs at or below the current base are a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on file-backend failures.
    pub fn truncate_upto(&mut self, lsn: u64) -> Result<()> {
        if lsn < self.base_lsn {
            return Ok(());
        }
        let frames = self.replay()?;
        let drop_n = ((lsn + 1).saturating_sub(self.base_lsn) as usize).min(frames.len());
        let kept = &frames[drop_n..];
        let mut content = BytesMut::new();
        for payload in kept {
            content.put_u32_le(payload.len() as u32);
            content.put_u32_le(crc32(payload));
            content.put_slice(payload);
        }
        self.rewrite(self.base_lsn + drop_n as u64, &content, kept.len() as u64)
    }

    /// Discards all log content and **re-bases** the sequence so the next
    /// appended frame is assigned LSN `last_lsn + 1` — the entry point for
    /// seeding a replica at its primary's replication position. Unlike
    /// [`Wal::truncate`], which can only move the base past frames it
    /// holds, this jumps the base to an arbitrary point so a freshly
    /// seeded follower continues the primary's LSN sequence exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file backend cannot be rewritten, and
    /// the [`Wal::lsn_after`] error for `u64::MAX`.
    pub fn reset_to(&mut self, last_lsn: u64) -> Result<()> {
        self.rewrite(Self::lsn_after(last_lsn)?, &[], 0)
    }

    /// The LSN a frame logged after `lsn` gets; [`Error::Corrupt`] for
    /// `u64::MAX`, which no LSN follows.
    pub fn lsn_after(lsn: u64) -> Result<u64> {
        lsn.checked_add(1).ok_or_else(|| Error::Corrupt(format!("no LSN follows {lsn}")))
    }

    /// Replaces the log with `entries` frames encoded in `frames` under
    /// base LSN `base`. The file backend goes through
    /// [`durable::replace`], so a crash mid-rewrite leaves either the old
    /// or the new log, never a torn hybrid.
    fn rewrite(&mut self, base: u64, frames: &[u8], entries: u64) -> Result<()> {
        match &mut self.backend {
            Backend::Memory(buf) => *buf = BytesMut::from(frames.to_vec()),
            Backend::File { file, path } => {
                durable::replace(path, &[&encode_header(base)[..], frames].concat())?;
                *file = OpenOptions::new().read(true).append(true).open(&*path)?;
            }
        }
        self.base_lsn = base;
        self.entries = entries;
        self.bytes = frames.len() as u64;
        Ok(())
    }

    /// Number of frames currently in the log.
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// LSN of the first frame currently in the log (the next frame to be
    /// appended when the log is empty).
    pub fn first_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// LSN of the most recently appended frame still relevant to the log's
    /// sequence (0 when nothing has ever been appended).
    pub fn last_lsn(&self) -> u64 {
        self.base_lsn + self.entries - 1
    }

    /// The backing file path, or `None` for the in-memory backend.
    pub fn path(&self) -> Option<&Path> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::File { path, .. } => Some(path),
        }
    }

    /// Returns `true` when the log survives a process crash (file backend).
    pub fn is_durable(&self) -> bool {
        matches!(self.backend, Backend::File { .. })
    }

    /// Frame bytes currently in the log (including frame headers).
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Injects raw bytes at the tail (test hook for corruption scenarios).
    #[doc(hidden)]
    pub fn append_raw_for_test(&mut self, raw: &[u8]) -> Result<()> {
        match &mut self.backend {
            Backend::Memory(buf) => buf.extend_from_slice(raw),
            Backend::File { file, .. } => file.write_all(raw).map_err(Error::from)?,
        }
        Ok(())
    }
}

/// Splits raw log bytes into valid frames, stopping at the first torn or
/// corrupt one.
fn scan_frames(mut cursor: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while cursor.len() >= 8 {
        let len = (&cursor[0..4]).get_u32_le() as usize;
        let crc = (&cursor[4..8]).get_u32_le();
        if cursor.len() < 8 + len {
            break; // torn tail
        }
        let payload = &cursor[8..8 + len];
        if crc32(payload) != crc {
            break; // corrupt tail
        }
        frames.push(payload.to_vec());
        cursor = &cursor[8 + len..];
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn memory_append_replay() {
        let mut wal = Wal::in_memory();
        for i in 0..10u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let frames = wal.replay().unwrap();
        assert_eq!(frames.len(), 10);
        assert_eq!(frames[3], 3u32.to_le_bytes());
        assert_eq!(wal.entry_count(), 10);
    }

    #[test]
    fn empty_payloads_are_legal() {
        let mut wal = Wal::in_memory();
        wal.append(b"").unwrap();
        wal.append(b"x").unwrap();
        assert_eq!(wal.replay().unwrap(), vec![b"".to_vec(), b"x".to_vec()]);
    }

    #[test]
    fn truncate_clears_and_advances_the_base() {
        let mut wal = Wal::in_memory();
        wal.append(b"abc").unwrap();
        wal.truncate().unwrap();
        assert!(wal.replay().unwrap().is_empty());
        assert_eq!(wal.entry_count(), 0);
        assert_eq!(wal.byte_size(), 0);
        // LSNs never restart: the next append continues the sequence.
        assert_eq!(wal.append(b"next").unwrap(), 2);
    }

    #[test]
    fn lsns_are_monotone_and_returned_by_append() {
        let mut wal = Wal::in_memory();
        assert_eq!(wal.append(b"a").unwrap(), 1);
        assert_eq!(wal.append(b"b").unwrap(), 2);
        assert_eq!(wal.first_lsn() + wal.entry_count(), 3, "the next lsn");
        assert_eq!(wal.first_lsn(), 1);
        assert_eq!(wal.last_lsn(), 2);
    }

    #[test]
    fn truncate_upto_keeps_the_suffix_with_its_lsns() {
        let mut wal = Wal::in_memory();
        for i in 0..10u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.truncate_upto(6).unwrap();
        assert_eq!(wal.entry_count(), 4);
        assert_eq!(wal.first_lsn(), 7);
        let suffix = wal.replay_from(0).unwrap();
        assert_eq!(
            suffix,
            (7u64..=10)
                .map(|lsn| (lsn, ((lsn - 1) as u32).to_le_bytes().to_vec()))
                .collect::<Vec<_>>()
        );
        // Below-base truncation is a no-op.
        wal.truncate_upto(3).unwrap();
        assert_eq!(wal.entry_count(), 4);
        // Appends continue the sequence.
        assert_eq!(wal.append(b"tail").unwrap(), 11);
    }

    #[test]
    fn reset_to_rebases_the_sequence() {
        let mut wal = Wal::in_memory();
        wal.append(b"old-1").unwrap();
        wal.append(b"old-2").unwrap();
        wal.reset_to(41).unwrap();
        assert!(wal.replay().unwrap().is_empty());
        assert_eq!(wal.first_lsn(), 42);
        assert_eq!(wal.append(b"seeded").unwrap(), 42);
    }

    #[test]
    fn reset_to_survives_file_reopen() {
        let path = temp_path("reset-to");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"pre-seed").unwrap();
            wal.reset_to(99).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.entry_count(), 0);
            assert_eq!(wal.append(b"post-seed").unwrap(), 100);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_from_filters_by_lsn() {
        let mut wal = Wal::in_memory();
        for i in 0..5u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let suffix = wal.replay_from(3).unwrap();
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].0, 4);
        assert_eq!(suffix[1].0, 5);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let mut wal = Wal::in_memory();
        wal.append(b"good").unwrap();
        // A frame header promising 100 bytes with only 3 present.
        let mut torn = Vec::new();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"abc");
        wal.append_raw_for_test(&torn).unwrap();
        assert_eq!(wal.replay().unwrap(), vec![b"good".to_vec()]);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let mut wal = Wal::in_memory();
        wal.append(b"first").unwrap();
        let mut bad = Vec::new();
        bad.extend_from_slice(&5u32.to_le_bytes());
        bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // wrong crc
        bad.extend_from_slice(b"wrong");
        wal.append_raw_for_test(&bad).unwrap();
        wal.append(b"after").unwrap(); // unreachable past corruption
        assert_eq!(wal.replay().unwrap(), vec![b"first".to_vec()]);
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("propeller-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.wal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn file_backend_round_trip() {
        let path = temp_path("round-trip");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"persisted-1").unwrap();
            wal.append(b"persisted-2").unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.entry_count(), 2);
            let frames = wal.replay().unwrap();
            assert_eq!(frames, vec![b"persisted-1".to_vec(), b"persisted-2".to_vec()]);
            wal.truncate().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert!(wal.replay().unwrap().is_empty());
            // The base LSN survived the truncate and the reopen.
            assert_eq!(wal.append(b"x").unwrap(), 3);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn base_lsn_survives_reopen_after_truncate_upto() {
        let path = temp_path("lsn-reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..8u32 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
            wal.truncate_upto(5).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.first_lsn(), 6);
            assert_eq!(wal.entry_count(), 3);
            assert_eq!(
                wal.replay_from(0).unwrap().iter().map(|(l, _)| *l).collect::<Vec<_>>(),
                vec![6, 7, 8]
            );
            assert_eq!(wal.append(b"y").unwrap(), 9);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_after_a_torn_tail_survive_reopen() {
        let path = temp_path("torn-tail");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"acked-1").unwrap();
            wal.append(b"acked-2").unwrap();
            // Crash mid-append: a header promising 64 bytes, 3 present.
            let mut torn = Vec::new();
            torn.extend_from_slice(&64u32.to_le_bytes());
            torn.extend_from_slice(&0u32.to_le_bytes());
            torn.extend_from_slice(b"abc");
            wal.append_raw_for_test(&torn).unwrap();
            wal.sync().unwrap();
        }
        {
            // Recovery: the valid prefix survives, the torn tail is
            // truncated, and new appends land where replay can reach them.
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(wal.entry_count(), 2);
            assert_eq!(wal.append(b"acked-3").unwrap(), 3);
            wal.sync().unwrap();
        }
        {
            // The second recovery must see ALL acknowledged frames. The
            // old `Wal::open` left the torn bytes in place, so "acked-3"
            // sat unreachable behind them and was silently lost here.
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(
                wal.replay().unwrap(),
                vec![b"acked-1".to_vec(), b"acked-2".to_vec(), b"acked-3".to_vec()]
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_tail_is_truncated_on_reopen() {
        let path = temp_path("corrupt-tail");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"good").unwrap();
            let mut bad = Vec::new();
            bad.extend_from_slice(&5u32.to_le_bytes());
            bad.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            bad.extend_from_slice(b"wrong");
            wal.append_raw_for_test(&bad).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(b"after").unwrap();
            assert_eq!(wal.replay().unwrap(), vec![b"good".to_vec(), b"after".to_vec()]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_magic_is_refused_and_left_on_disk() {
        let path = temp_path("bad-magic");
        {
            let mut wal = Wal::open(&path).unwrap();
            for payload in [b"one".as_slice(), b"two", b"three"] {
                wal.append(payload).unwrap();
            }
            wal.sync().unwrap();
        }
        // One flipped bit in the magic must not read as an empty log that
        // the next open truncates: the three frames stay on disk.
        let mut damaged = std::fs::read(&path).unwrap();
        damaged[1] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(Wal::open(&path), Err(Error::Corrupt(_))));
        assert_eq!(std::fs::read(&path).unwrap(), damaged);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn another_version_is_refused_and_left_on_disk() {
        let path = temp_path("version-1");
        // A version-1 log: its header is intact under its own CRC.
        let mut old = encode_header(1).to_vec();
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&old[4..16]);
        old[16..20].copy_from_slice(&crc.to_le_bytes());
        old.extend_from_slice(&[3, 0, 0, 0]);
        old.extend_from_slice(&crc32(b"op1").to_le_bytes());
        old.extend_from_slice(b"op1");
        std::fs::write(&path, &old).unwrap();
        assert!(matches!(Wal::open(&path), Err(Error::Corrupt(_))));
        assert_eq!(std::fs::read(&path).unwrap(), old);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_resets_to_an_empty_log() {
        let path = temp_path("torn-header");
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.entry_count(), 0);
        assert_eq!(wal.append(b"x").unwrap(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let path = temp_path("bad-header");
        let mut header = encode_header(7).to_vec();
        header[9] ^= 0xFF; // flip a base-LSN byte under the CRC
        std::fs::write(&path, header).unwrap();
        assert!(matches!(Wal::open(&path), Err(Error::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_is_idempotent() {
        let mut wal = Wal::in_memory();
        wal.append(b"one").unwrap();
        assert_eq!(wal.replay().unwrap(), wal.replay().unwrap());
    }
}
