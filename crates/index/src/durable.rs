//! Durable files: the one way every file Propeller persists is encoded,
//! written, read back and retired.
//!
//! Four rules, each written once:
//!
//! * **Codec.** Every persisted payload — WAL frames, ACG snapshots, the
//!   Master's log frames and checkpoints, the node tombstone image — is a
//!   value of a [`Codec`] type, encoded by one implementation per type.
//!   Integers and floats are little-endian at their width, a `bool` is one
//!   byte (0 or 1), an enum is a `u8` tag then its fields, a struct or tuple
//!   is its fields in order, an `Option` is a `u8` tag (0 none, 1 some) then
//!   the value, and every string, sequence and map is a `u32` LE count
//!   followed by its UTF-8 bytes or items (maps in key order, so equal
//!   state encodes to equal bytes). [`Codec::decode`] rejects truncation,
//!   unknown tags, invalid UTF-8 and trailing bytes, and no decoder
//!   preallocates more bytes than remain in its input.
//! * **Envelope.** [`seal`] frames a payload as
//!   `[magic 4][version u32 LE][payload_crc u32 LE][payload_len u64 LE][payload]`
//!   and [`unseal`] rejects anything else. ACG snapshots (`PSNP`), Master
//!   checkpoints (`PMET`) and node tombstones (`PTMB`) are sealed files.
//! * **Atomic replace.** [`replace`] stages the bytes in `<name>.tmp`,
//!   fsyncs them, renames them over the target and fsyncs the directory,
//!   so a crash leaves either the old file or the new one.
//! * **Checkpoint set.** LSN-named checkpoint files beside the WAL they
//!   cover: [`list_checkpoints`] finds them newest first,
//!   [`load_newest`] recovers from the newest valid one (and refuses a
//!   provably partial recovery), and [`retire`] keeps two of them,
//!   truncating the WAL to the older.
//!
//! The WAL keeps its own frame format and `PWAL` prefix header
//! ([`crate::Wal`]); its frame payloads are [`Codec`] values and its
//! rewrites go through [`replace`].

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File};
use std::hash::Hash;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use propeller_types::{AcgId, AttrName, Error, FileId, NodeId, Result, Timestamp, Value};

use crate::wal::{crc32, Wal};

/// A type with one byte encoding, shared by every file that persists it
/// (the layout rules are in the [module docs](self)).
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn put(&self, buf: &mut BytesMut);

    /// Reads one value from the front of `data`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on truncation, an unknown tag or invalid
    /// UTF-8.
    fn take(data: &mut &[u8]) -> Result<Self>;

    /// The encoding of `self` as one buffer.
    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.put(&mut buf);
        buf.into()
    }

    /// Decodes a value that must span all of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] where [`Codec::take`] does, and when
    /// bytes are left over after the value.
    fn decode(mut data: &[u8]) -> Result<Self> {
        let value = Self::take(&mut data)?;
        if !data.is_empty() {
            return Err(Error::Corrupt(format!("{} trailing bytes", data.len())));
        }
        Ok(value)
    }
}

/// Implements [`Codec`] for a struct as its fields in the listed order;
/// every field must be listed. The expansion names `bytes` and
/// `propeller_types`, which the implementing crate depends on.
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::durable::Codec for $ty {
            fn put(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::durable::Codec::put(&self.$field, buf);)+
            }

            fn take(data: &mut &[u8]) -> ::propeller_types::Result<Self> {
                Ok(Self { $($field: $crate::durable::Codec::take(data)?),+ })
            }
        }
    };
}

/// Appends `items` as one sequence — a `u32` count, then each item — the
/// encoding of a `Vec` of them, from any iterator (a streamed snapshot's
/// records, a slice of ops).
pub fn put_iter<'a, T: Codec + 'a>(buf: &mut BytesMut, items: impl IntoIterator<Item = &'a T>) {
    let at = buf.len();
    put_len(buf, 0);
    let mut count = 0;
    for item in items {
        item.put(buf);
        count += 1;
    }
    buf[at..at + 4].copy_from_slice(&len_u32(count).to_le_bytes());
}

/// The error for an enum tag no variant uses.
pub fn unknown_tag(what: &str, tag: u8) -> Error {
    Error::Corrupt(format!("unknown {what} tag {tag}"))
}

fn len_u32(len: usize) -> u32 {
    u32::try_from(len).expect("a persisted string or collection holds under 2^32 items")
}

/// The one length rule: a `u32` LE count in front of every string and
/// collection.
fn put_len(buf: &mut BytesMut, len: usize) {
    len_u32(len).put(buf);
}

fn take_bytes<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if data.len() < n {
        return Err(Error::Corrupt(format!("truncated: need {n} bytes, have {}", data.len())));
    }
    let (head, rest) = data.split_at(n);
    *data = rest;
    Ok(head)
}

macro_rules! codec_le {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn put(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn take(data: &mut &[u8]) -> Result<Self> {
                let bytes = take_bytes(data, std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("width checked")))
            }
        }
    )*};
}

codec_le!(u8, u32, u64, i64, f64);

/// Ids and timestamps encode as their raw integer.
macro_rules! codec_newtype {
    ($($ty:ident($raw:ty): $get:ident, $new:path;)*) => {$(
        impl Codec for $ty {
            fn put(&self, buf: &mut BytesMut) {
                self.$get().put(buf);
            }

            fn take(data: &mut &[u8]) -> Result<Self> {
                <$raw>::take(data).map($new)
            }
        }
    )*};
}

codec_newtype! {
    AcgId(u64): raw, AcgId::new;
    FileId(u64): raw, FileId::new;
    NodeId(u32): raw, NodeId::new;
    Timestamp(u64): as_micros, Timestamp::from_micros;
}

impl Codec for bool {
    fn put(&self, buf: &mut BytesMut) {
        u8::from(*self).put(buf);
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        match u8::take(data)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(unknown_tag("bool", tag)),
        }
    }
}

impl Codec for String {
    fn put(&self, buf: &mut BytesMut) {
        put_len(buf, self.len());
        buf.put_slice(self.as_bytes());
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        let len = u32::take(data)? as usize;
        String::from_utf8(take_bytes(data, len)?.to_vec())
            .map_err(|e| Error::Corrupt(format!("invalid utf-8 string: {e}")))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        Ok(if bool::take(data)? { Some(T::take(data)?) } else { None })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        put_iter(buf, self);
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        let n = u32::take(data)? as usize;
        // Preallocate no more bytes than remain in the input, so a forged
        // count in a few bytes cannot make a decoder allocate beyond it.
        let mut items = Vec::with_capacity(n.min(data.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            items.push(T::take(data)?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, buf: &mut BytesMut) {
        put_iter(buf, self);
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        Vec::take(data).map(VecDeque::from)
    }
}

/// A map encodes as the sequence of its `(key, value)` pairs in key order.
impl<K: Codec + Ord + Hash, V: Codec> Codec for HashMap<K, V> {
    fn put(&self, buf: &mut BytesMut) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        put_len(buf, entries.len());
        for (key, value) in entries {
            key.put(buf);
            value.put(buf);
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        Vec::<(K, V)>::take(data).map(|pairs| pairs.into_iter().collect())
    }
}

macro_rules! codec_tuple {
    ($($name:ident),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            #[allow(non_snake_case)]
            fn put(&self, buf: &mut BytesMut) {
                let ($($name,)+) = self;
                $($name.put(buf);)+
            }

            fn take(data: &mut &[u8]) -> Result<Self> {
                Ok(($($name::take(data)?,)+))
            }
        }
    };
}

codec_tuple!(A, B);
codec_tuple!(A, B, C);

impl Codec for Value {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            Value::U64(x) => (0u8, *x).put(buf),
            Value::I64(x) => (1u8, *x).put(buf),
            Value::F64(x) => (2u8, *x).put(buf),
            Value::Str(s) => {
                3u8.put(buf);
                s.put(buf);
            }
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        Ok(match u8::take(data)? {
            0 => Value::U64(Codec::take(data)?),
            1 => Value::I64(Codec::take(data)?),
            2 => Value::F64(Codec::take(data)?),
            3 => Value::Str(Codec::take(data)?),
            tag => return Err(unknown_tag("value", tag)),
        })
    }
}

/// The builtin attributes, each encoded as its index here; a custom name
/// is tag 8 then the name. A tag rather than the display string: a custom
/// attribute whose name collides with a builtin ("size") must round-trip
/// as custom.
const BUILTIN_ATTRS: [AttrName; 8] = [
    AttrName::Size,
    AttrName::Mtime,
    AttrName::Ctime,
    AttrName::Uid,
    AttrName::Gid,
    AttrName::Mode,
    AttrName::Nlink,
    AttrName::Keyword,
];

impl Codec for AttrName {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            AttrName::Custom(name) => {
                8u8.put(buf);
                name.put(buf);
            }
            builtin => {
                let tag = BUILTIN_ATTRS.iter().position(|b| b == builtin).expect("a builtin");
                (tag as u8).put(buf);
            }
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        match u8::take(data)? {
            8 => String::take(data).map(AttrName::Custom),
            tag => BUILTIN_ATTRS.get(tag as usize).cloned().ok_or_else(|| unknown_tag("attr", tag)),
        }
    }
}

/// Envelope header: magic + version + payload CRC + payload length.
const HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Seals `payload` in the envelope under `magic` and `version`.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Opens an envelope written by [`seal`], returning its payload.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a short input, another magic or version,
/// a length that disagrees with the bytes present, or a CRC mismatch.
pub fn unseal(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < HEADER_LEN || bytes[..4] != magic {
        return Err(Error::Corrupt("missing or truncated header".into()));
    }
    let mut header = &bytes[4..HEADER_LEN];
    let found = u32::take(&mut header)?;
    if found != version {
        return Err(Error::Corrupt(format!("unsupported version {found}")));
    }
    let crc = u32::take(&mut header)?;
    let len = u64::take(&mut header)?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(Error::Corrupt(format!(
            "payload is {} bytes, header promised {len}",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(Error::Corrupt("payload crc mismatch".into()));
    }
    Ok(payload)
}

/// Atomically replaces `path` with `bytes`: writes `<name>.tmp`, fsyncs
/// it, renames it over `path` and fsyncs the directory (best-effort — not
/// every platform lets a directory be opened as a file).
///
/// # Errors
///
/// Returns [`Error::Io`] on any file-system failure; the temp file is
/// removed and `path` is left as it was.
pub fn replace(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = (|| -> Result<()> {
        let mut out = File::create(&tmp)?;
        out.write_all(bytes)?;
        out.sync_all()?;
        Ok(fs::rename(&tmp, path)?)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
        return write;
    }
    if let Some(dir) = path.parent().and_then(|dir| File::open(dir).ok()) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// The files under `dir` whose names `parse` maps to an LSN, newest
/// (highest LSN) first. An unreadable directory lists as empty.
pub fn list_checkpoints(dir: &Path, parse: impl Fn(&str) -> Option<u64>) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| Some((parse(entry.file_name().to_str()?)?, entry.path())))
        .collect();
    found.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
    found
}

/// Recovers from the newest checkpoint under `dir` that `read` accepts,
/// falling back past every file it rejects. Returns that checkpoint with
/// its LSN (`None` when none validates: replay the whole WAL) and how many
/// files were skipped.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] when no checkpoint validates but the durable
/// `wal` starts past LSN 1: a checkpoint once covered the dropped prefix,
/// so replaying the WAL alone would bring back a silently partial state.
pub fn load_newest<T>(
    dir: &Path,
    parse: impl Fn(&str) -> Option<u64>,
    wal: &Wal,
    mut read: impl FnMut(&Path) -> Result<T>,
) -> Result<(Option<(u64, T)>, usize)> {
    let listed = list_checkpoints(dir, parse);
    for (skipped, (lsn, path)) in listed.iter().enumerate() {
        if let Ok(found) = read(path) {
            return Ok((Some((*lsn, found)), skipped));
        }
    }
    let first = wal.first_lsn();
    if wal.is_durable() && first > 1 {
        return Err(Error::Corrupt(format!(
            "no valid checkpoint in {} but {} starts at lsn {first}: frames 1..{first} were \
             checkpoint-covered and are gone; refusing partial recovery",
            dir.display(),
            wal.path().unwrap_or(dir).display()
        )));
    }
    Ok((None, listed.len()))
}

/// Retires what a new checkpoint supersedes. Two checkpoints are kept: the
/// new one and `older`, the previous valid one, which stays the fallback
/// should the new file be torn. So the WAL is truncated only up to
/// `older`, and every checkpoint below it is deleted together with the
/// set's stale temp files (see [`prune`]). With no `older` (the first
/// checkpoint) nothing is dropped. Returns how many checkpoints were
/// deleted.
///
/// # Errors
///
/// Returns [`Error::Io`] if the WAL truncation fails; the new checkpoint
/// is already safely on disk in that case.
pub fn retire(
    dir: &Path,
    parse: impl Fn(&str) -> Option<u64>,
    wal: &mut Wal,
    older: Option<u64>,
) -> Result<usize> {
    let keep_from = older.unwrap_or(0);
    wal.truncate_upto(keep_from)?;
    Ok(prune(dir, parse, keep_from))
}

/// Deletes the checkpoints under `dir` with LSN below `keep_from`, plus
/// the set's stale `<checkpoint>.tmp` files (a crash between
/// [`replace`]'s write and its rename). Returns how many checkpoints were
/// deleted.
pub fn prune(dir: &Path, parse: impl Fn(&str) -> Option<u64>, keep_from: u64) -> usize {
    let mut removed = 0;
    for (lsn, path) in list_checkpoints(dir, &parse) {
        if lsn < keep_from && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    for (_, tmp) in list_checkpoints(dir, |name| parse(name.strip_suffix(".tmp")?)) {
        let _ = fs::remove_file(tmp);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("propeller-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn codec_writes_the_documented_layout() {
        let value: (Option<u32>, Vec<String>, bool) = (Some(7), vec!["ab".into()], true);
        let golden = [1, 7, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, b'a', b'b', 1];
        assert_eq!(value.encode(), golden);
        assert_eq!(Codec::decode(&golden).ok(), Some(value));
        let custom = AttrName::Custom("size".into());
        assert_eq!(AttrName::decode(&custom.encode()).unwrap(), custom, "not the builtin");
    }

    #[test]
    fn codec_rejects_what_it_never_writes() {
        let corrupt = |r: Result<()>| matches!(r, Err(Error::Corrupt(_)));
        assert!(corrupt(<(u32, u8)>::decode(&[0; 6]).map(drop)), "trailing bytes");
        assert!(corrupt(u64::decode(&[0; 7]).map(drop)), "truncated integer");
        assert!(corrupt(bool::decode(&[2]).map(drop)), "bool byte");
        assert!(corrupt(String::decode(&[2, 0, 0, 0, 0xFF, 0xFE]).map(drop)), "invalid utf-8");
        assert!(corrupt(String::decode(&[3, 0, 0, 0, b'a']).map(drop)), "truncated string");
        assert!(corrupt(Value::decode(&[4]).map(drop)), "value tag");
        assert!(corrupt(AttrName::decode(&[9]).map(drop)), "attr tag");
    }

    #[test]
    fn seal_keeps_the_envelope_layout_byte_for_byte() {
        // crc32("abc") = 0x352441C2.
        let tail = [1, 0, 0, 0, 0xC2, 0x41, 0x24, 0x35, 3, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', b'c'];
        for magic in [*b"PSNP", *b"PMET", *b"PTMB"] {
            let golden: Vec<u8> = magic.iter().chain(&tail).copied().collect();
            assert_eq!(seal(magic, 1, b"abc"), golden);
            assert_eq!(unseal(magic, 1, &golden).unwrap(), b"abc");
        }
        assert_eq!(unseal(*b"PSNP", 1, &seal(*b"PSNP", 1, b"")).unwrap(), b"");
    }

    #[test]
    fn unseal_rejects_every_damaged_envelope() {
        let good = seal(*b"PSNP", 1, b"payload");
        let rejected = |bytes: &[u8]| matches!(unseal(*b"PSNP", 1, bytes), Err(Error::Corrupt(_)));
        assert!(rejected(&good[..HEADER_LEN - 1]), "short input");
        assert!(rejected(&seal(*b"PMET", 1, b"payload")), "wrong magic");
        assert!(rejected(&seal(*b"PSNP", 2, b"payload")), "wrong version");
        assert!(rejected(&good[..good.len() - 1]), "length mismatch");
        let mut padded = good.clone();
        padded.push(0);
        assert!(rejected(&padded), "trailing bytes are a length mismatch too");
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(rejected(&flipped), "crc mismatch");
    }

    #[test]
    fn replace_swaps_the_file_and_leaves_no_temp() {
        let dir = temp_dir("replace");
        let path = dir.join("state.bin");
        replace(&path, b"old").unwrap();
        replace(&path, b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(!dir.join("state.bin.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn replace_with_a_blocked_temp_path_keeps_the_old_file() {
        let dir = temp_dir("blocked");
        let path = dir.join("state.bin");
        replace(&path, b"old").unwrap();
        // The temp path leads into a directory that does not exist, so
        // staging the new bytes fails before anything is renamed.
        let tmp = dir.join("state.bin.tmp");
        std::os::unix::fs::symlink(dir.join("missing").join("x"), &tmp).unwrap();
        assert!(matches!(replace(&path, b"new"), Err(Error::Io(_))));
        assert_eq!(fs::read(&path).unwrap(), b"old");
        assert!(fs::symlink_metadata(&tmp).is_err(), "the temp path is cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    fn parse(name: &str) -> Option<u64> {
        name.strip_prefix("ck-")?.strip_suffix(".snap")?.parse().ok()
    }

    #[test]
    fn checkpoints_list_newest_first_and_retire_keeps_two() {
        let dir = temp_dir("retire");
        let mut wal = Wal::open(dir.join("ck.wal")).unwrap();
        for i in 0..30u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        for lsn in [10u64, 30, 20] {
            replace(&dir.join(format!("ck-{lsn}.snap")), b"x").unwrap();
        }
        fs::write(dir.join("ck-40.snap.tmp"), b"torn").unwrap();
        fs::write(dir.join("other-5.snap.tmp"), b"not ours").unwrap();
        let lsns = |dir: &Path| -> Vec<u64> {
            list_checkpoints(dir, parse).into_iter().map(|(lsn, _)| lsn).collect()
        };
        assert_eq!(lsns(&dir), vec![30, 20, 10]);
        assert_eq!(retire(&dir, parse, &mut wal, None).unwrap(), 0, "first: nothing dropped");
        assert_eq!(wal.first_lsn(), 1);
        assert_eq!(retire(&dir, parse, &mut wal, Some(20)).unwrap(), 1);
        assert_eq!(lsns(&dir), vec![30, 20]);
        assert_eq!(wal.first_lsn(), 21, "the wal still reaches back to the older checkpoint");
        assert!(!dir.join("ck-40.snap.tmp").exists(), "the set's stale temp file is swept");
        assert!(dir.join("other-5.snap.tmp").exists(), "other sets' files are not touched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_newest_falls_back_and_refuses_a_partial_recovery() {
        let dir = temp_dir("load");
        let mut wal = Wal::open(dir.join("ck.wal")).unwrap();
        for i in 0..5u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        for (lsn, body) in [(2u64, b"good"), (4, b"torn")] {
            replace(&dir.join(format!("ck-{lsn}.snap")), body).unwrap();
        }
        let read = |path: &Path| -> Result<Vec<u8>> {
            let bytes = fs::read(path)?;
            if bytes == b"good" {
                Ok(bytes)
            } else {
                Err(Error::Corrupt("torn".into()))
            }
        };
        let (found, skipped) = load_newest(&dir, parse, &wal, read).unwrap();
        assert_eq!((found, skipped), (Some((2, b"good".to_vec())), 1));
        // A complete log still recovers without any checkpoint...
        fs::write(dir.join("ck-2.snap"), b"torn").unwrap();
        assert_eq!(load_newest(&dir, parse, &wal, read).unwrap(), (None, 2));
        // ...a truncated one does not.
        wal.truncate_upto(2).unwrap();
        assert!(matches!(load_newest(&dir, parse, &wal, read), Err(Error::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
