//! Index operations and their WAL encoding.
//!
//! [`IndexOp`] is the unit of work an Index Node receives from clients:
//! upsert a file's indexable record or remove a file. Ops and records are
//! [`Codec`] values, so the WAL and the snapshot files share one byte
//! format; the codec is deliberately independent of `serde` so the on-log
//! format is stable and cheap.
//!
//! ```text
//! WAL frame := [nops u32] { op }...
//!   op     := [1 u8] record | [2 u8] [file u64]
//!   record := [file u64][size u64][mtime u64][ctime u64]
//!             [uid u32][gid u32][mode u32][nlink u32]
//!             [nkeywords u32] { str }... [ncustom u32] { str value }...
//!   value  := [0 u8][u64] | [1 u8][i64] | [2 u8][f64] | [3 u8] str
//!   str    := [len u32][utf-8 bytes]
//! ```

use bytes::BytesMut;
use propeller_types::{AttrName, FileId, InodeAttrs, Result, Value};
use serde::{Deserialize, Serialize};

use crate::codec_struct;
use crate::durable::{self, Codec};

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

    /// The values this record holds for `attr`: one per keyword or per
    /// same-named custom attribute, at most one for a built-in. What an
    /// index on `attr` keys the record under and what a projection of
    /// `attr` returns.
    pub fn values(&self, attr: &AttrName) -> Vec<Value> {
        match attr {
            AttrName::Keyword => self.keywords.iter().map(|k| Value::from(k.as_str())).collect(),
            AttrName::Custom(name) => {
                self.custom.iter().filter(|(n, _)| n == name).map(|(_, v)| v.clone()).collect()
            }
            builtin => self.attrs.get(builtin).into_iter().collect(),
        }
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

    /// Encodes a batch of ops as **one** WAL frame payload: the
    /// [`Codec`] encoding of a `Vec<IndexOp>`, which
    /// `Vec::<IndexOp>::decode` reads back. Every frame an ACG logs is one
    /// such batch, so one framed append (one syscall on the file backend)
    /// covers a whole `IndexBatch`.
    pub fn encode_batch(ops: &[IndexOp]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        durable::put_iter(&mut buf, ops);
        buf.into()
    }
}

/// `[tag u8]` then the record (tag 1) or the file id (tag 2).
impl Codec for IndexOp {
    fn put(&self, buf: &mut BytesMut) {
        match self {
            IndexOp::Upsert(record) => {
                1u8.put(buf);
                record.put(buf);
            }
            IndexOp::Remove(file) => (2u8, *file).put(buf),
        }
    }

    fn take(data: &mut &[u8]) -> Result<Self> {
        match u8::take(data)? {
            1 => FileRecord::take(data).map(IndexOp::Upsert),
            2 => FileId::take(data).map(IndexOp::Remove),
            tag => Err(durable::unknown_tag("index op", tag)),
        }
    }
}

// A snapshot file and a WAL frame describe a record with identical bytes.
codec_struct!(FileRecord { file, attrs, keywords, custom });
codec_struct!(InodeAttrs { size, mtime, ctime, uid, gid, mode, nlink });

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::{Error, Timestamp};

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
        assert_eq!(frame, ops.encode(), "a frame is the encoded Vec<IndexOp>");
        assert_eq!(Vec::<IndexOp>::decode(&frame).unwrap(), ops);
        // Empty batches are legal frames.
        assert!(Vec::<IndexOp>::decode(&IndexOp::encode_batch(&[])).unwrap().is_empty());
    }

    #[test]
    fn truncated_batch_frame_rejected() {
        let ops = vec![IndexOp::Upsert(sample_record()), IndexOp::Remove(FileId::new(1))];
        let frame = IndexOp::encode_batch(&ops);
        for cut in [1usize, 5, 9, frame.len() / 2, frame.len() - 1] {
            assert!(Vec::<IndexOp>::decode(&frame[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage after the declared members is corruption.
        let mut padded = frame.clone();
        padded.push(0);
        assert!(Vec::<IndexOp>::decode(&padded).is_err());
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
