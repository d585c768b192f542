//! Index operations and their binary codec.
//!
//! [`IndexOp`] is the unit of work an Index Node receives from clients:
//! upsert a file's indexable record or remove a file. Ops are encoded with
//! a compact hand-rolled binary format (length-prefixed, little-endian) for
//! the WAL; the codec is deliberately independent of `serde` so the on-log
//! format is stable and cheap.

use bytes::{Buf, BufMut, BytesMut};
use propeller_types::{Error, FileId, InodeAttrs, Result, Timestamp, Value};
use serde::{Deserialize, Serialize};

/// The full indexable record for one file: inode attributes, extracted
/// keywords and user-defined attributes (paper §IV: Propeller indexes
/// arbitrary user-defined attributes, not just inode metadata).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileRecord {
    /// The file this record describes.
    pub file: FileId,
    /// Standard inode metadata.
    pub attrs: InodeAttrs,
    /// Keywords extracted from the path or content.
    pub keywords: Vec<String>,
    /// User-defined attributes.
    pub custom: Vec<(String, Value)>,
}

impl FileRecord {
    /// A record with only inode attributes.
    pub fn new(file: FileId, attrs: InodeAttrs) -> Self {
        FileRecord { file, attrs, keywords: Vec::new(), custom: Vec::new() }
    }

    /// Adds a keyword (builder style).
    pub fn with_keyword(mut self, kw: impl Into<String>) -> Self {
        self.keywords.push(kw.into());
        self
    }

    /// Adds a custom attribute (builder style).
    pub fn with_custom(mut self, name: impl Into<String>, value: Value) -> Self {
        self.custom.push((name.into(), value));
        self
    }

    /// Adds extracted content text as the conventional `"content"` custom
    /// attribute (builder style). The inverted index tokenizes it along
    /// with the keywords and every other string-valued custom attribute.
    pub fn with_content(mut self, text: impl Into<String>) -> Self {
        self.custom.push(("content".into(), Value::Str(text.into())));
        self
    }
}

/// One indexing operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IndexOp {
    /// Insert or replace a file's record.
    Upsert(FileRecord),
    /// Remove a file's record.
    Remove(FileId),
}

impl IndexOp {
    /// The file this op targets.
    pub fn file(&self) -> FileId {
        match self {
            IndexOp::Upsert(r) => r.file,
            IndexOp::Remove(f) => *f,
        }
    }

    /// Encodes the op for the WAL.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            IndexOp::Upsert(r) => {
                buf.put_u8(1);
                encode_record_into(&mut buf, r);
            }
            IndexOp::Remove(f) => {
                buf.put_u8(2);
                buf.put_u64_le(f.raw());
            }
        }
        buf.to_vec()
    }

    /// Decodes an op from WAL bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the bytes are malformed.
    pub fn decode(mut data: &[u8]) -> Result<IndexOp> {
        let tag = take_u8(&mut data)?;
        match tag {
            1 => Ok(IndexOp::Upsert(decode_record(&mut data)?)),
            2 => Ok(IndexOp::Remove(FileId::new(take_u64(&mut data)?))),
            other => Err(Error::Corrupt(format!("unknown index op tag {other}"))),
        }
    }

    /// Encodes a whole batch of ops as **one** WAL frame payload (tag 3:
    /// `[count][len][op]...`) — the group-commit format. One framed append
    /// (and one syscall on the file backend) covers the entire
    /// `IndexBatch` instead of one frame per op.
    pub fn encode_batch(ops: &[IndexOp]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u8(3);
        buf.put_u32_le(ops.len() as u32);
        for op in ops {
            let bytes = op.encode();
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(&bytes);
        }
        buf.to_vec()
    }

    /// Decodes one WAL frame into its ops: batch frames (tag 3) yield
    /// every member, classic single-op frames yield one — so recovery
    /// reads logs written before group commit unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the bytes are malformed.
    pub fn decode_frame(data: &[u8]) -> Result<Vec<IndexOp>> {
        if data.first() != Some(&3) {
            return Ok(vec![IndexOp::decode(data)?]);
        }
        let mut cursor = &data[1..];
        let n = take_u32(&mut cursor)? as usize;
        let mut ops = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let len = take_u32(&mut cursor)? as usize;
            need(cursor, len)?;
            let (bytes, rest) = cursor.split_at(len);
            ops.push(IndexOp::decode(bytes)?);
            cursor = rest;
        }
        if !cursor.is_empty() {
            return Err(Error::Corrupt(format!("{} trailing bytes after batch", cursor.len())));
        }
        Ok(ops)
    }
}

/// Encodes one record's fields (no tag byte) — shared by the op codec and
/// the snapshot writer, so a snapshot file and a WAL frame describe a
/// record with identical bytes.
pub(crate) fn encode_record_into(buf: &mut BytesMut, r: &FileRecord) {
    buf.put_u64_le(r.file.raw());
    buf.put_u64_le(r.attrs.size);
    buf.put_u64_le(r.attrs.mtime.as_micros());
    buf.put_u64_le(r.attrs.ctime.as_micros());
    buf.put_u32_le(r.attrs.uid);
    buf.put_u32_le(r.attrs.gid);
    buf.put_u32_le(r.attrs.mode);
    buf.put_u32_le(r.attrs.nlink);
    buf.put_u32_le(r.keywords.len() as u32);
    for kw in &r.keywords {
        put_str(buf, kw);
    }
    buf.put_u32_le(r.custom.len() as u32);
    for (name, value) in &r.custom {
        put_str(buf, name);
        put_value(buf, value);
    }
}

/// Decodes one record's fields (no tag byte); the counterpart of
/// [`encode_record_into`].
pub(crate) fn decode_record(data: &mut &[u8]) -> Result<FileRecord> {
    let file = FileId::new(take_u64(data)?);
    let attrs = InodeAttrs {
        size: take_u64(data)?,
        mtime: Timestamp::from_micros(take_u64(data)?),
        ctime: Timestamp::from_micros(take_u64(data)?),
        uid: take_u32(data)?,
        gid: take_u32(data)?,
        mode: take_u32(data)?,
        nlink: take_u32(data)?,
    };
    let nk = take_u32(data)? as usize;
    let mut keywords = Vec::with_capacity(nk.min(1024));
    for _ in 0..nk {
        keywords.push(take_str(data)?);
    }
    let nc = take_u32(data)? as usize;
    let mut custom = Vec::with_capacity(nc.min(1024));
    for _ in 0..nc {
        let name = take_str(data)?;
        let value = take_value(data)?;
        custom.push((name, value));
    }
    Ok(FileRecord { file, attrs, keywords, custom })
}

/// Appends a `u32`-length-prefixed UTF-8 string — with the `take_*`
/// readers, the byte codec every on-disk format shares.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.put_u8(0);
            buf.put_u64_le(*x);
        }
        Value::I64(x) => {
            buf.put_u8(1);
            buf.put_i64_le(*x);
        }
        Value::F64(x) => {
            buf.put_u8(2);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

pub(crate) fn need(data: &[u8], n: usize) -> Result<()> {
    if data.len() < n {
        Err(Error::Corrupt(format!("truncated record: need {n} bytes, have {}", data.len())))
    } else {
        Ok(())
    }
}

/// Reads a `u8`.
pub fn take_u8(data: &mut &[u8]) -> Result<u8> {
    need(data, 1)?;
    Ok(data.get_u8())
}

/// Reads a little-endian `u32`.
pub fn take_u32(data: &mut &[u8]) -> Result<u32> {
    need(data, 4)?;
    Ok(data.get_u32_le())
}

/// Reads a little-endian `u64`.
pub fn take_u64(data: &mut &[u8]) -> Result<u64> {
    need(data, 8)?;
    Ok(data.get_u64_le())
}

/// Reads a string written by [`put_str`].
pub fn take_str(data: &mut &[u8]) -> Result<String> {
    let len = take_u32(data)? as usize;
    need(data, len)?;
    let (s, rest) = data.split_at(len);
    let out = String::from_utf8(s.to_vec())
        .map_err(|e| Error::Corrupt(format!("invalid utf-8 string: {e}")))?;
    *data = rest;
    Ok(out)
}

fn take_value(data: &mut &[u8]) -> Result<Value> {
    let tag = take_u8(data)?;
    Ok(match tag {
        0 => Value::U64(take_u64(data)?),
        1 => {
            need(data, 8)?;
            Value::I64(data.get_i64_le())
        }
        2 => {
            need(data, 8)?;
            Value::F64(data.get_f64_le())
        }
        3 => Value::Str(take_str(data)?),
        other => return Err(Error::Corrupt(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> FileRecord {
        FileRecord::new(
            FileId::new(42),
            InodeAttrs::builder()
                .size(1 << 30)
                .mtime(Timestamp::from_secs(1_000_000))
                .uid(501)
                .gid(20)
                .mode(0o600)
                .nlink(2)
                .build(),
        )
        .with_keyword("firefox")
        .with_keyword("profile")
        .with_custom("energy", Value::F64(-3.25))
        .with_custom("tag", Value::from("docked"))
    }

    #[test]
    fn upsert_round_trip() {
        let op = IndexOp::Upsert(sample_record());
        let decoded = IndexOp::decode(&op.encode()).unwrap();
        assert_eq!(decoded, op);
    }

    #[test]
    fn remove_round_trip() {
        let op = IndexOp::Remove(FileId::new(7));
        assert_eq!(IndexOp::decode(&op.encode()).unwrap(), op);
        assert_eq!(op.file(), FileId::new(7));
    }

    #[test]
    fn empty_record_round_trip() {
        let op = IndexOp::Upsert(FileRecord::new(FileId::new(0), InodeAttrs::default()));
        assert_eq!(IndexOp::decode(&op.encode()).unwrap(), op);
    }

    #[test]
    fn truncated_bytes_rejected() {
        let op = IndexOp::Upsert(sample_record());
        let bytes = op.encode();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = IndexOp::decode(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(IndexOp::decode(&[9, 0, 0]), Err(Error::Corrupt(_))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // Build an op with a keyword, then corrupt the keyword bytes.
        let op = IndexOp::Upsert(
            FileRecord::new(FileId::new(1), InodeAttrs::default()).with_keyword("abcd"),
        );
        let mut bytes = op.encode();
        let pos = bytes.len() - 4 - 4; // start of "abcd" (before custom count)
        bytes[pos] = 0xFF;
        bytes[pos + 1] = 0xFE;
        assert!(IndexOp::decode(&bytes).is_err());
    }

    #[test]
    fn batch_frame_round_trips() {
        let ops = vec![
            IndexOp::Upsert(sample_record()),
            IndexOp::Remove(FileId::new(9)),
            IndexOp::Upsert(FileRecord::new(FileId::new(3), InodeAttrs::default())),
        ];
        let frame = IndexOp::encode_batch(&ops);
        assert_eq!(IndexOp::decode_frame(&frame).unwrap(), ops);
        // Empty batches are legal frames.
        assert!(IndexOp::decode_frame(&IndexOp::encode_batch(&[])).unwrap().is_empty());
    }

    #[test]
    fn decode_frame_reads_classic_single_op_frames() {
        let op = IndexOp::Upsert(sample_record());
        assert_eq!(IndexOp::decode_frame(&op.encode()).unwrap(), vec![op]);
        let op = IndexOp::Remove(FileId::new(7));
        assert_eq!(IndexOp::decode_frame(&op.encode()).unwrap(), vec![op]);
    }

    #[test]
    fn truncated_batch_frame_rejected() {
        let ops = vec![IndexOp::Upsert(sample_record()), IndexOp::Remove(FileId::new(1))];
        let frame = IndexOp::encode_batch(&ops);
        for cut in [1usize, 5, 9, frame.len() / 2, frame.len() - 1] {
            assert!(IndexOp::decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage after the declared members is corruption.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(IndexOp::decode_frame(&padded).is_err());
    }

    #[test]
    fn all_value_kinds_round_trip() {
        let op = IndexOp::Upsert(
            FileRecord::new(FileId::new(5), InodeAttrs::default())
                .with_custom("a", Value::U64(u64::MAX))
                .with_custom("b", Value::I64(i64::MIN))
                .with_custom("c", Value::F64(f64::MIN_POSITIVE))
                .with_custom("d", Value::Str(String::new())),
        );
        assert_eq!(IndexOp::decode(&op.encode()).unwrap(), op);
    }
}
