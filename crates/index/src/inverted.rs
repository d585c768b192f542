//! Inverted index over tokenized file text — the content-search structure.
//!
//! Propeller's paper indexes metadata only; this module adds the fourth
//! index family: term → sorted postings of [`FileId`] with per-posting
//! term frequency (tf) and token positions, per-term document frequency
//! (df), plus the per-document token counts BM25 ranking needs. The
//! structure is maintained incrementally through [`crate::AcgIndexGroup`]
//! ops exactly like the B+-tree/hash/K-D families, so the WAL + snapshot
//! machinery persists it for free (postings are rebuilt deterministically
//! from the records at recovery).
//!
//! ## Tokens and positions
//!
//! A record's indexable text is its keyword list plus every string-valued
//! custom attribute (the `"content"` attribute by convention, see
//! [`crate::FileRecord::with_content`]), each split into lowercase
//! alphanumeric runs by [`tokenize`]. Phrase matching treats every source
//! string as its own field: a phrase must be adjacent *within* one
//! keyword or one custom value, never across two. Positions number the
//! tokens field after field with a gap of one between two fields, so
//! [`phrase_at`] answers a phrase by [`record_contains_phrase`]'s rule.
//!
//! ## Layout
//!
//! A term holds its file-sorted postings and one byte arena of their
//! positions in posting order, each the LEB128 varint of its gap to the
//! one before. A [`Posting`] keeps its arena offset in what was padding,
//! or its position itself when it has only one (and no arena bytes).
//! Every [`BLOCK`]-sized run of postings records its last file id and
//! maximum tf ([`Block`]). A top-k search derives a per-block score upper
//! bound from that max tf ([`bm25_block_bound`]) and skips whole blocks
//! provably below the current top-k floor — the WAND-style pruning the
//! query executor witnesses with its `wand_*` stats counters.

use std::borrow::Cow;
use std::sync::Arc;

use propeller_types::{FileId, Value};

use crate::btree::BPlusTree;
use crate::ops::FileRecord;

/// BM25 `k1`: term-frequency saturation.
pub const BM25_K1: f64 = 1.2;
/// BM25 `b`: document-length normalization strength.
pub const BM25_B: f64 = 0.75;
/// Postings per skip block (one [`Block`] per `BLOCK` postings).
pub const BLOCK: usize = 64;

/// Appends the lowercase alphanumeric runs of `text` to `out`.
///
/// # Examples
///
/// ```
/// let mut out = Vec::new();
/// propeller_index::tokenize_into("Foo-Bar_2/baz.RS", &mut out);
/// assert_eq!(out, ["foo", "bar", "2", "baz", "rs"]);
/// ```
pub fn tokenize_into(text: &str, out: &mut Vec<String>) {
    out.extend(alnum_runs(text).map(|run| token(run).into_owned()));
}

/// The token of one alphanumeric run: the run itself when it is lowercase
/// ASCII already (borrowed), else its `char::to_lowercase` expansion.
fn token(run: &str) -> Cow<'_, str> {
    if run.is_ascii() && !run.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(run)
    } else {
        Cow::Owned(run.chars().flat_map(char::to_lowercase).collect())
    }
}

/// The lowercase alphanumeric tokens of `text`.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    tokenize_into(text, &mut out);
    out
}

/// The source strings a record contributes tokens from: its keywords in
/// order, then its string-valued custom attributes in order. Each source
/// is one *field* for phrase adjacency.
pub fn record_text_fields(record: &FileRecord) -> impl Iterator<Item = &str> {
    record.keywords.iter().map(String::as_str).chain(record.custom.iter().filter_map(|(_, v)| {
        match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }))
}

/// All tokens of a record, across every text field.
pub fn record_tokens(record: &FileRecord) -> Vec<String> {
    let mut out = Vec::new();
    for field in record_text_fields(record) {
        tokenize_into(field, &mut out);
    }
    out
}

/// The maximal alphanumeric runs of `text` — the spans [`tokenize_into`]
/// lowercases into tokens, one token per run — borrowed, not copied.
fn alnum_runs(text: &str) -> impl Iterator<Item = &str> + Clone {
    text.split(|ch: char| !ch.is_alphanumeric()).filter(|run| !run.is_empty())
}

/// Whether the token [`tokenize_into`] makes of `run` equals `term`,
/// compared in place: byte-wise for an ASCII run, otherwise through the
/// same `char::to_lowercase` expansion the tokenizer applies.
fn run_is_term(run: &str, term: &str) -> bool {
    if run.is_ascii() {
        run.len() == term.len()
            && run.bytes().zip(term.bytes()).all(|(r, t)| r.to_ascii_lowercase() == t)
    } else {
        run.chars().flat_map(char::to_lowercase).eq(term.chars())
    }
}

/// Whether any token of the record, across every text field, is `term`.
fn record_has_term(record: &FileRecord, term: &str) -> bool {
    record_text_fields(record).any(|field| alnum_runs(field).any(|run| run_is_term(run, term)))
}

/// Whether a record contains every term in `terms` (tokens anywhere).
pub fn record_contains_all(record: &FileRecord, terms: &[String]) -> bool {
    terms.iter().all(|term| record_has_term(record, term))
}

/// Whether a record contains at least one term of `terms`.
pub fn record_contains_any(record: &FileRecord, terms: &[String]) -> bool {
    terms.iter().any(|term| record_has_term(record, term))
}

/// Whether a record contains `terms` as an adjacent token run inside a
/// single text field. Empty phrases match everything; one-term phrases
/// degrade to a plain contains check.
pub fn record_contains_phrase(record: &FileRecord, terms: &[String]) -> bool {
    if terms.is_empty() {
        return true;
    }
    record_text_fields(record).any(|field| {
        // Slide over the field's runs, matching the phrase from each start.
        let mut runs = alnum_runs(field);
        loop {
            let mut window = runs.clone();
            if terms.iter().all(|term| window.next().is_some_and(|run| run_is_term(run, term))) {
                return true;
            }
            if runs.next().is_none() {
                return false;
            }
        }
    })
}

/// The BM25 inverse document frequency of a term with document frequency
/// `df` in a corpus of `n` documents. Always positive (the `1 +` variant),
/// so partial-match disjunctions never score negative.
pub fn bm25_idf(n: usize, df: usize) -> f64 {
    (1.0 + (n as f64 - df as f64 + 0.5) / (df as f64 + 0.5)).ln()
}

/// The BM25 contribution of one term occurrence: `idf · tf·(k1+1) /
/// (tf + k1·(1 − b + b·len/avgdl))`.
pub fn bm25_score(idf: f64, tf: u32, doc_len: u32, avg_doc_len: f64) -> f64 {
    let tf = tf as f64;
    let norm =
        if avg_doc_len > 0.0 { 1.0 - BM25_B + BM25_B * doc_len as f64 / avg_doc_len } else { 1.0 };
    idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
}

/// An upper bound on any document's BM25 contribution for a term: the
/// `tf → ∞`, `len → 0` limit `idf·(k1+1)`.
pub fn bm25_term_bound(idf: f64) -> f64 {
    idf * (BM25_K1 + 1.0)
}

/// An upper bound on the BM25 contribution of any posting in a block with
/// maximum term frequency `max_tf`: the shortest-possible-document score
/// at that tf.
pub fn bm25_block_bound(idf: f64, max_tf: u32) -> f64 {
    let tf = max_tf as f64;
    idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * (1.0 - BM25_B))
}

/// One entry in a term's posting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub file: FileId,
    /// How many times the term occurs in it: its position count.
    pub tf: u32,
    /// Its one position when `tf` is 1, else its offset in the term's arena.
    at: u32,
}

/// Skip metadata over one [`BLOCK`]-sized run of postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// The last file id in the block (blocks partition the file-sorted
    /// posting list, so a seek binary-searches these).
    pub last_file: FileId,
    /// The largest tf in the block — the block's score-bound input.
    pub max_tf: u32,
}

/// A term's posting list plus its block skip metadata and position arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TermPostings {
    postings: Vec<Posting>,
    blocks: Vec<Block>,
    positions: Vec<u8>,
}

impl TermPostings {
    /// Document frequency: how many files contain the term.
    pub fn df(&self) -> usize {
        self.postings.len()
    }

    /// How many times the term occurs in `file` (0 when it does not).
    pub fn tf(&self, file: FileId) -> u32 {
        self.postings.binary_search_by_key(&file, |p| p.file).map_or(0, |pos| self.postings[pos].tf)
    }

    /// Sets the file's posting to its ascending token `positions`.
    fn insert(&mut self, file: FileId, positions: &[u32]) {
        let pos = self.postings.binary_search_by_key(&file, |p| p.file).unwrap_or_else(|pos| {
            self.postings.insert(pos, Posting { file, tf: 0, at: 0 });
            pos
        });
        self.set_positions(pos, positions);
        self.rebuild_blocks_from(pos / BLOCK);
    }

    /// Removes the file's posting.
    fn remove(&mut self, file: FileId) {
        if let Ok(pos) = self.postings.binary_search_by_key(&file, |p| p.file) {
            self.set_positions(pos, &[]);
            self.postings.remove(pos);
            self.rebuild_blocks_from(pos / BLOCK);
        }
    }

    /// Replaces posting `pos`'s positions: a lone one goes in its `at`,
    /// more into the arena, moving the arena offsets after them.
    fn set_positions(&mut self, pos: usize, positions: &[u32]) {
        let p = self.postings[pos];
        let tf = positions.len() as u32;
        if p.tf < 2 && tf < 2 {
            // At most one position before and after: the arena is untouched.
            let at = positions.first().copied().unwrap_or(0);
            self.postings[pos] = Posting { tf, at, ..p };
            return;
        }
        let (at, old) = if p.tf > 1 {
            let ends =
                self.positions[p.at as usize..].iter().enumerate().filter(|&(_, &b)| b < 0x80);
            (p.at as usize, ends.map(|(i, _)| i + 1).nth(p.tf as usize - 1).expect("tf varints"))
        } else {
            // Where the next arena posting's bytes start.
            let later = self.postings[pos + 1..].iter().find(|p| p.tf > 1);
            (later.map_or(self.positions.len(), |p| p.at as usize), 0)
        };
        self.positions.drain(at..at + old);
        let end = self.positions.len();
        // Two or more: each the LEB128 varint of its gap to the one before.
        let mut last = 0;
        for &position in positions.iter().filter(|_| tf > 1) {
            let mut gap = position - std::mem::replace(&mut last, position);
            while gap >= 0x80 {
                self.positions.push(gap as u8 | 0x80);
                gap >>= 7;
            }
            self.positions.push(gap as u8);
        }
        let new = self.positions.len() - end;
        self.positions[at..].rotate_right(new);
        assert!(u32::try_from(self.positions.len()).is_ok(), "arena offsets are u32");
        for p in self.postings[pos + 1..].iter_mut().filter(|p| p.tf > 1) {
            p.at = (p.at as usize + new - old) as u32;
        }
        let at = if let [only] = positions { *only } else { at as u32 };
        self.postings[pos] = Posting { tf, at, ..p };
    }

    /// Rebuilds the blocks from `first` on. Appends (the common case: file
    /// ids arrive in order) touch only the final partial block, so a bulk
    /// build stays linear instead of rescanning the list per posting.
    fn rebuild_blocks_from(&mut self, first: usize) {
        self.blocks.truncate(first);
        for chunk in self.postings[first * BLOCK..].chunks(BLOCK) {
            self.blocks.push(Block {
                last_file: chunk.last().expect("chunks are non-empty").file,
                max_tf: chunk.iter().map(|p| p.tf).max().expect("chunks are non-empty"),
            });
        }
    }
}

/// A seekable read cursor over one term's postings, exposing the block
/// bounds a WAND-style search prunes with.
#[derive(Debug, Clone)]
pub struct PostingsCursor<'a> {
    term: &'a TermPostings,
    pos: usize,
}

impl<'a> PostingsCursor<'a> {
    /// A cursor at the start of the term's postings.
    pub fn new(term: &'a TermPostings) -> Self {
        PostingsCursor { term, pos: 0 }
    }

    /// The posting under the cursor, or `None` when exhausted.
    pub fn current(&self) -> Option<Posting> {
        self.term.postings.get(self.pos).copied()
    }

    /// Steps to the next posting.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Positions the cursor at the first posting with `file ≥ target`
    /// (binary search over blocks, then within the block) and returns it.
    pub fn seek(&mut self, target: FileId) -> Option<Posting> {
        if let Some(p) = self.current() {
            if p.file >= target {
                return Some(p);
            }
        } else {
            return None;
        }
        // Find the first block whose last file reaches the target…
        let block = self.term.blocks.partition_point(|b| b.last_file < target);
        if block >= self.term.blocks.len() {
            self.pos = self.term.postings.len();
            return None;
        }
        // …then the first posting inside it.
        let start = (block * BLOCK).max(self.pos);
        let end = ((block + 1) * BLOCK).min(self.term.postings.len());
        let within = self.term.postings[start..end].partition_point(|p| p.file < target);
        self.pos = start + within;
        self.current()
    }

    /// The token positions of the posting under the cursor, ascending
    /// (none when exhausted).
    pub fn positions(&self) -> impl Iterator<Item = u32> + 'a {
        let (tf, mut bytes, mut at) = match self.current() {
            Some(p) if p.tf > 1 => (p.tf, &self.term.positions[p.at as usize..], 0),
            // A lone position is the posting's `at`: no bytes to decode.
            Some(p) => (p.tf, &[][..], p.at),
            None => (0, &[][..], 0),
        };
        (0..tf).map(move |_| {
            let len = bytes.iter().position(|&b| b < 0x80).map_or(bytes.len(), |i| i + 1);
            let (varint, rest) = bytes.split_at(len);
            bytes = rest;
            at += varint.iter().rev().fold(0, |gap, &b| gap << 7 | u32::from(b & 0x7F));
            at
        })
    }

    /// The block the cursor is in, if any.
    fn block(&self) -> Option<&'a Block> {
        self.term.blocks.get(self.pos / BLOCK).filter(|_| !self.is_exhausted())
    }

    /// The max-tf of the block the cursor is in (0 when exhausted).
    pub fn block_max_tf(&self) -> u32 {
        self.block().map_or(0, |b| b.max_tf)
    }

    /// The last file id of the cursor's current block, if any.
    pub fn block_last_file(&self) -> Option<FileId> {
        self.block().map(|b| b.last_file)
    }

    /// Whether the cursor has run off the end of the postings.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.term.postings.len()
    }

    /// The cursor's offset into the postings list — position deltas count
    /// the entries a bound-driven seek jumped over.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Postings not yet consumed (including the current one).
    pub fn remaining(&self) -> usize {
        self.term.postings.len().saturating_sub(self.pos)
    }
}

/// Whether a phrase occurs in the document its cursors stand on:
/// `cursors` yields the `j`-th phrase term's cursor `j`-th (a repeated
/// term once per occurrence), and the phrase occurs when some position
/// `p` of the first term has the `j`-th at `p + j`. `starts` is scratch.
pub fn phrase_at<'a, 'c: 'a>(
    mut cursors: impl Iterator<Item = &'a PostingsCursor<'c>>,
    starts: &mut Vec<u32>,
) -> bool {
    starts.clear();
    let Some(first) = cursors.next() else { return true };
    starts.extend(first.positions());
    for (offset, cursor) in (1..).zip(cursors) {
        let mut next = cursor.positions().peekable();
        starts.retain(|&p| {
            while next.next_if(|&q| q < p + offset).is_some() {}
            next.peek() == Some(&(p + offset))
        });
    }
    !starts.is_empty()
}

/// The inverted index of one ACG: term → [`TermPostings`], plus the
/// per-document token counts BM25 length normalization needs.
///
/// # Examples
///
/// ```
/// use propeller_index::{FileRecord, InvertedIndex};
/// use propeller_types::{FileId, InodeAttrs};
///
/// let mut inv = InvertedIndex::new();
/// let rec = FileRecord::new(FileId::new(1), InodeAttrs::default())
///     .with_keyword("report.pdf")
///     .with_content("quarterly sales report");
/// inv.insert(&rec);
/// assert_eq!(inv.df("report"), 1);
/// assert_eq!(inv.doc_len(FileId::new(1)), 5);
/// ```
/// Internally both maps are persistent B+-trees holding [`Arc`]-wrapped
/// values, so cloning the index is O(1) and a mutation path-copies only
/// the touched spine plus the touched term's postings — what lets an
/// epoch publish share every untouched posting list with its predecessor.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    terms: BPlusTree<String, Arc<TermPostings>>,
    doc_len: BPlusTree<FileId, u32>,
    total_tokens: u64,
}

/// Content equality (what the tests' "empty again" style assertions
/// need): the underlying trees may differ structurally after a removal
/// even when they hold identical entries, so equality walks the
/// sorted entry streams instead of deriving off the tree shape.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.total_tokens == other.total_tokens
            && self.terms.len() == other.terms.len()
            && self.doc_len.len() == other.doc_len.len()
            && self.doc_len.iter().eq(other.doc_len.iter())
            && self
                .terms
                .iter()
                .zip(other.terms.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl InvertedIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a record's tokens. The caller removes any previous record
    /// for the same file first (the group's upsert path does).
    pub fn insert(&mut self, record: &FileRecord) {
        // Every token with its position: field `i`'s are shifted by `i`,
        // the gaps that keep a phrase inside one field.
        let mut occurrences = Vec::new();
        for (gap, field) in (0u32..).zip(record_text_fields(record)) {
            let first = occurrences.len() as u32 + gap;
            occurrences.extend(alnum_runs(field).map(token).zip(first..));
        }
        if occurrences.is_empty() {
            return;
        }
        let len = occurrences.len() as u32;
        occurrences.sort_unstable();
        let mut positions = Vec::new();
        for run in occurrences.chunk_by(|a, b| a.0 == b.0) {
            positions.clear();
            positions.extend(run.iter().map(|&(_, p)| p));
            let token = &*run[0].0;
            match self.terms.get_mut(token) {
                Some(postings) => Arc::make_mut(postings).insert(record.file, &positions),
                None => {
                    let mut postings = TermPostings::default();
                    postings.insert(record.file, &positions);
                    self.terms.insert(token.to_owned(), Arc::new(postings));
                }
            }
        }
        if let Some(old) = self.doc_len.insert(record.file, len) {
            self.total_tokens -= old as u64;
        }
        self.total_tokens += len as u64;
    }

    /// Removes a record's tokens (the record as it was indexed).
    pub fn remove(&mut self, record: &FileRecord) {
        let mut tokens = record_tokens(record);
        tokens.sort_unstable();
        tokens.dedup();
        for token in &tokens {
            if let Some(postings) = self.terms.get_mut(token) {
                let postings = Arc::make_mut(postings);
                postings.remove(record.file);
                if postings.df() == 0 {
                    self.terms.remove(token);
                }
            }
        }
        if let Some(len) = self.doc_len.remove(&record.file) {
            self.total_tokens -= len as u64;
        }
    }

    /// The postings of a term, if any document contains it.
    pub fn term(&self, term: &str) -> Option<&TermPostings> {
        self.terms.get(term).map(Arc::as_ref)
    }

    /// Document frequency of a term (0 when absent).
    pub fn df(&self, term: &str) -> usize {
        self.terms.get(term).map_or(0, |p| p.df())
    }

    /// Number of documents with at least one token — BM25's `N`.
    pub fn doc_count(&self) -> usize {
        self.doc_len.len()
    }

    /// Token count of a document (0 when absent or token-free).
    pub fn doc_len(&self, file: FileId) -> u32 {
        self.doc_len.get(&file).copied().unwrap_or(0)
    }

    /// Mean document token count (0 for an empty index).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_len.len() as f64
        }
    }

    /// The BM25 idf of a term against this corpus.
    pub fn idf(&self, term: &str) -> f64 {
        bm25_idf(self.doc_count(), self.df(term))
    }

    /// A BM25 scorer over `terms`, their postings and idf resolved once.
    pub fn scorer(&self, terms: &[String]) -> Bm25Scorer<'_> {
        let n = self.doc_count();
        let terms = terms.iter().map(|t| self.term(t).map(|p| (p, bm25_idf(n, p.df())))).collect();
        Bm25Scorer { inv: self, avg_doc_len: self.avg_doc_len(), terms }
    }

    /// The full BM25 score of a document for a conjunction/disjunction of
    /// terms — the scalar the executor ranks by. Terms the document lacks
    /// contribute zero.
    pub fn score_doc(&self, file: FileId, terms: &[String]) -> f64 {
        self.scorer(terms).score(file)
    }
}

/// BM25 over one index for one fixed list of scoring terms: each term's
/// postings and idf, and the corpus' mean document length, are looked up
/// when the scorer is built ([`InvertedIndex::scorer`]), so scoring a
/// document costs one length lookup plus one tf per term. Every BM25 sum
/// in the system is taken here, in term-list order — which is what keeps
/// scores bit-identical between the postings merge (tfs read off its
/// cursors), the full-scan fallback and [`InvertedIndex::score_doc`].
#[derive(Debug, Clone)]
pub struct Bm25Scorer<'a> {
    inv: &'a InvertedIndex,
    avg_doc_len: f64,
    /// One entry per scoring term, in order; `None` for unknown terms.
    terms: Vec<Option<(&'a TermPostings, f64)>>,
}

impl Bm25Scorer<'_> {
    /// The document's score, looking every tf up in the postings.
    pub fn score(&self, file: FileId) -> f64 {
        self.score_with(file, |_| None)
    }

    /// The document's score with caller-supplied tfs: `tf_of(i)` is the
    /// document's tf for the `i`-th scoring term when the caller already
    /// knows it (a merge cursor standing on the document; 0 = absent), or
    /// `None` to have it binary-searched in the term's postings.
    pub fn score_with(&self, file: FileId, mut tf_of: impl FnMut(usize) -> Option<u32>) -> f64 {
        let len = self.inv.doc_len(file);
        let mut score = 0.0;
        for (i, term) in self.terms.iter().enumerate() {
            let Some((postings, idf)) = term else { continue };
            let tf = tf_of(i).unwrap_or_else(|| postings.tf(file));
            if tf > 0 {
                score += bm25_score(*idf, tf, len, self.avg_doc_len);
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::InodeAttrs;
    use std::collections::BTreeMap;

    fn rec(file: u64, keywords: &[&str], content: Option<&str>) -> FileRecord {
        let mut r = FileRecord::new(FileId::new(file), InodeAttrs::default());
        for kw in keywords {
            r = r.with_keyword(*kw);
        }
        if let Some(c) = content {
            r = r.with_content(c);
        }
        r
    }

    #[test]
    fn tokenize_lowercases_and_splits_on_non_alphanumerics() {
        assert_eq!(tokenize("Hello, World!"), ["hello", "world"]);
        assert_eq!(tokenize("a_b-c.d/e"), ["a", "b", "c", "d", "e"]);
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("x2y"), ["x2y"]);
    }

    /// The positions of the posting for `file` in `term`.
    fn positions_of(term: &TermPostings, file: FileId) -> Vec<u32> {
        let mut cursor = PostingsCursor::new(term);
        cursor
            .seek(file)
            .filter(|p| p.file == file)
            .map_or_else(Vec::new, |_| cursor.positions().collect())
    }

    #[test]
    fn incremental_block_maintenance_matches_a_full_rebuild() {
        // Deterministic pseudo-random interleaving of out-of-order inserts,
        // tf updates and removes; after every mutation the incrementally
        // maintained blocks, arena and offsets must equal a from-scratch
        // build of the same postings, and every posting must decode to the
        // positions it was given.
        let mut term = TermPostings::default();
        let mut model: BTreeMap<FileId, Vec<u32>> = BTreeMap::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let file = FileId::new(state >> 56); // 0..256: collisions force updates
            let tf = ((state >> 48) & 0x7) as u32 + 1;
            if state & 0xF == 0 {
                term.remove(file);
                model.remove(&file);
            } else {
                // Gaps of 1 to ~2^14 exercise one-, two- and three-byte varints.
                let at = (0..tf).map(|i| i * ((state >> 20) as u32 & 0x3FFF | 1) + i).collect();
                term.insert(file, model.entry(file).insert_entry(at).get());
            }
            let mut full = TermPostings::default();
            for (&file, at) in &model {
                full.insert(file, at);
            }
            assert_eq!(term, full, "after mutating file {file}");
            assert_eq!(positions_of(&term, file), model.get(&file).cloned().unwrap_or_default());
        }
        assert!(term.blocks.len() > 1, "corpus must span multiple blocks");
        assert!(term.positions.len() > 2 * term.postings.len(), "multi-byte varints");
    }

    #[test]
    fn a_posting_is_sixteen_bytes_with_its_arena_offset() {
        assert_eq!(std::mem::size_of::<Posting>(), 16);
    }

    #[test]
    fn positions_number_tokens_across_fields_with_a_gap() {
        let mut inv = InvertedIndex::new();
        // Fields: "a b" (0, 1), "b" (3), content "a a b" (5, 6, 7).
        inv.insert(&rec(1, &["a b", "b"], Some("a a b")));
        let at = |term: &str| positions_of(inv.term(term).unwrap(), FileId::new(1));
        assert_eq!(at("a"), [0, 5, 6]);
        assert_eq!(at("b"), [1, 3, 7]);
        assert_eq!(inv.doc_len(FileId::new(1)), 6, "gaps are not tokens");
        let r = rec(1, &["a b", "b"], Some("a a b"));
        let mut starts = Vec::new();
        for phrase in ["a b", "b a", "a a b", "b b", "a b b", "a a", "b", ""] {
            let terms = tokenize(phrase);
            let cursors: Vec<PostingsCursor<'_>> =
                terms.iter().map(|t| PostingsCursor::new(inv.term(t).unwrap())).collect();
            let found = phrase_at(cursors.iter(), &mut starts);
            assert_eq!(found, record_contains_phrase(&r, &terms), "{phrase:?}");
        }
    }

    #[test]
    fn insert_builds_tf_and_df() {
        let mut inv = InvertedIndex::new();
        inv.insert(&rec(1, &["report"], Some("sales report report")));
        inv.insert(&rec(2, &["memo"], Some("sales memo")));
        assert_eq!(inv.df("report"), 1);
        assert_eq!(inv.df("sales"), 2);
        assert_eq!(inv.df("missing"), 0);
        let p = inv.term("report").unwrap();
        assert_eq!(p.postings, &[Posting { file: FileId::new(1), tf: 3, at: 0 }]);
        assert_eq!(inv.doc_len(FileId::new(1)), 4);
        assert_eq!(inv.doc_count(), 2);
        assert!((inv.avg_doc_len() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn remove_clears_postings_and_lengths() {
        let mut inv = InvertedIndex::new();
        let a = rec(1, &["alpha beta"], None);
        let b = rec(2, &["beta gamma"], None);
        inv.insert(&a);
        inv.insert(&b);
        inv.remove(&a);
        assert_eq!(inv.df("alpha"), 0);
        assert_eq!(inv.df("beta"), 1);
        assert_eq!(inv.doc_count(), 1);
        inv.remove(&b);
        assert_eq!(inv, InvertedIndex::new(), "empty again");
        assert!(inv.terms.is_empty());
    }

    #[test]
    fn postings_stay_sorted_under_out_of_order_inserts() {
        let mut inv = InvertedIndex::new();
        for file in [5u64, 1, 9, 3, 7] {
            inv.insert(&rec(file, &["zed"], None));
        }
        let files: Vec<u64> =
            inv.term("zed").unwrap().postings.iter().map(|p| p.file.raw()).collect();
        assert_eq!(files, [1, 3, 5, 7, 9]);
    }

    #[test]
    fn blocks_cover_postings_with_max_tf() {
        let mut inv = InvertedIndex::new();
        for file in 0..150u64 {
            // File 100 repeats the term, so its block carries max_tf 3.
            let content = if file == 100 { "term term term" } else { "term" };
            inv.insert(&rec(file, &[], Some(content)));
        }
        let tp = inv.term("term").unwrap();
        assert_eq!(tp.df(), 150);
        assert_eq!(tp.blocks.len(), 3, "150 postings in 64-blocks");
        assert_eq!(tp.blocks[0].max_tf, 1);
        assert_eq!(tp.blocks[1].max_tf, 3, "file 100 lives in the second block");
        assert_eq!(tp.blocks[2].last_file, FileId::new(149));
    }

    #[test]
    fn cursor_seeks_across_blocks() {
        let mut inv = InvertedIndex::new();
        for file in (0..300u64).map(|i| i * 2) {
            inv.insert(&rec(file, &["even"], None));
        }
        let tp = inv.term("even").unwrap();
        let mut cur = PostingsCursor::new(tp);
        assert_eq!(cur.current().unwrap().file, FileId::new(0));
        assert_eq!(cur.seek(FileId::new(101)).unwrap().file, FileId::new(102));
        assert_eq!(cur.seek(FileId::new(102)).unwrap().file, FileId::new(102), "seek is stable");
        assert_eq!(cur.seek(FileId::new(598)).unwrap().file, FileId::new(598));
        assert!(cur.seek(FileId::new(599)).is_none());
        assert!(cur.is_exhausted());
    }

    #[test]
    fn phrase_matching_is_per_field_adjacent() {
        let r = rec(1, &["annual sales report", "budget"], Some("sales figures"));
        let terms = |s: &str| tokenize(s);
        assert!(record_contains_phrase(&r, &terms("sales report")));
        assert!(record_contains_phrase(&r, &terms("annual sales")));
        assert!(!record_contains_phrase(&r, &terms("report budget")), "never across fields");
        assert!(!record_contains_phrase(&r, &terms("annual report")), "must be adjacent");
        assert!(record_contains_phrase(&r, &terms("budget")));
        assert!(record_contains_phrase(&r, &[]));
        assert!(record_contains_all(&r, &terms("report figures")));
        assert!(!record_contains_all(&r, &terms("report missing")));
        assert!(record_contains_any(&r, &terms("missing figures")));
        assert!(!record_contains_any(&r, &terms("missing absent")));
    }

    #[test]
    fn in_place_matchers_equal_the_tokenize_definitions() {
        // The definitions the allocation-free matchers replaced.
        fn all(r: &FileRecord, terms: &[String]) -> bool {
            let tokens = record_tokens(r);
            terms.iter().all(|t| tokens.contains(t))
        }
        fn any(r: &FileRecord, terms: &[String]) -> bool {
            let tokens = record_tokens(r);
            terms.iter().any(|t| tokens.contains(t))
        }
        fn phrase(r: &FileRecord, terms: &[String]) -> bool {
            terms.is_empty()
                || record_text_fields(r).any(|field| {
                    let tokens = tokenize(field);
                    tokens.len() >= terms.len() && tokens.windows(terms.len()).any(|w| w == terms)
                })
        }
        // Mixed case, digits, non-ASCII, and lowercasings that change the
        // char count ('İ' → "i̇", two chars) or would under full case
        // folding ("STRASSE" must not match "straße").
        let texts = [
            "İstanbul STRASSE Foo-Bar_2",
            "straße ǅ x2y ÉCOLE école",
            "foo bar 2 İ i̇stanbul",
            "Foo",
            "",
            "--__--",
        ];
        let records: Vec<FileRecord> = texts
            .iter()
            .flat_map(|a| texts.iter().map(move |b| rec(1, &[a], Some(b))))
            .chain([rec(2, &["annual sales", "report"], None)])
            .collect();
        let mut vocabulary: Vec<String> = texts.iter().flat_map(|t| tokenize(t)).collect();
        // Untokenized spellings: a term is compared verbatim, so these only
        // match if the tokenizer could have produced them.
        vocabulary.extend(["Foo", "STRASSE", "İstanbul", "i", "missing", ""].map(String::from));
        vocabulary.sort();
        vocabulary.dedup();
        for r in &records {
            for a in &vocabulary {
                for b in &vocabulary {
                    for terms in [vec![a.clone()], vec![a.clone(), b.clone()]] {
                        assert_eq!(record_contains_all(r, &terms), all(r, &terms), "{terms:?}");
                        assert_eq!(record_contains_any(r, &terms), any(r, &terms), "{terms:?}");
                        assert_eq!(
                            record_contains_phrase(r, &terms),
                            phrase(r, &terms),
                            "{terms:?} in {:?}",
                            record_text_fields(r).collect::<Vec<_>>()
                        );
                    }
                }
            }
        }
        let r = rec(1, &["İstanbul STRASSE"], Some("Foo-Bar_2"));
        // 'İ' lowercases to 'i' + U+0307; the mark is not alphanumeric, so
        // only the tokenizer's own expansion — not re-tokenizing it — yields
        // the indexed token.
        let istanbul = "i\u{307}stanbul";
        assert_eq!(tokenize("İstanbul"), [istanbul]);
        assert!(record_contains_all(&r, &[istanbul, "strasse", "bar", "2"].map(String::from)));
        assert!(!record_contains_any(&r, &["straße".into(), "istanbul".into(), "Foo".into()]));
        assert!(record_contains_phrase(&r, &tokenize("foo bar 2")));
        assert!(!record_contains_phrase(&r, &tokenize("strasse foo")), "adjacency is per field");
    }

    #[test]
    fn scorer_with_cursor_tfs_equals_score_doc_bit_for_bit() {
        let mut inv = InvertedIndex::new();
        inv.insert(&rec(1, &["alpha"], Some("alpha beta beta")));
        inv.insert(&rec(2, &[], Some("beta gamma")));
        inv.insert(&rec(3, &[], Some("gamma gamma delta")));
        // An unknown term and a duplicate: both keep their list position.
        let terms: Vec<String> = tokenize("beta nope alpha gamma beta");
        let scorer = inv.scorer(&terms);
        for file in (0..5).map(FileId::new) {
            let fed = scorer.score_with(file, |i| {
                // Hand over every other tf, leave the rest to the lookup.
                (i % 2 == 0).then(|| inv.term(&terms[i]).map_or(0, |p| p.tf(file)))
            });
            assert_eq!(fed.to_bits(), inv.score_doc(file, &terms).to_bits());
            assert_eq!(scorer.score(file).to_bits(), fed.to_bits());
        }
        assert!(scorer.score(FileId::new(1)) > 0.0);
        assert_eq!(scorer.score(FileId::new(4)), 0.0);
    }

    #[test]
    fn bm25_rewards_tf_and_penalizes_df_and_length() {
        let n = 1000;
        let rare = bm25_idf(n, 2);
        let common = bm25_idf(n, 800);
        assert!(rare > common);
        assert!(common > 0.0, "the 1+ variant never goes negative");
        let s1 = bm25_score(rare, 1, 10, 10.0);
        let s3 = bm25_score(rare, 3, 10, 10.0);
        assert!(s3 > s1, "more occurrences score higher");
        let long = bm25_score(rare, 1, 100, 10.0);
        assert!(long < s1, "longer documents score lower");
        assert!(bm25_term_bound(rare) >= bm25_block_bound(rare, 1_000_000));
        assert!(bm25_block_bound(rare, 3) >= s3, "block bound dominates any member score");
        assert!(bm25_block_bound(rare, 1) >= s1);
    }

    #[test]
    fn score_doc_sums_matching_terms_only() {
        let mut inv = InvertedIndex::new();
        inv.insert(&rec(1, &[], Some("alpha beta")));
        inv.insert(&rec(2, &[], Some("alpha")));
        let both = inv.score_doc(FileId::new(1), &tokenize("alpha beta"));
        let one = inv.score_doc(FileId::new(2), &tokenize("alpha beta"));
        assert!(both > one);
        assert_eq!(inv.score_doc(FileId::new(3), &tokenize("alpha")), 0.0);
    }

    #[test]
    fn reinsert_replaces_tf_and_length() {
        let mut inv = InvertedIndex::new();
        inv.insert(&rec(1, &[], Some("a a a b")));
        // The group removes the old record before re-inserting; a direct
        // re-insert must still leave consistent tf/length state.
        inv.insert(&rec(1, &[], Some("a c")));
        assert_eq!(inv.term("a").unwrap().postings[0].tf, 1);
        assert_eq!(inv.doc_len(FileId::new(1)), 2);
        assert_eq!(inv.doc_count(), 1);
        assert!((inv.avg_doc_len() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn insert_order_does_not_change_the_index() {
        let mut a = InvertedIndex::new();
        let mut b = InvertedIndex::new();
        for file in [3u64, 1, 2] {
            a.insert(&rec(file, &["x y"], Some(&"x ".repeat(file as usize))));
        }
        for file in [1u64, 2, 3] {
            b.insert(&rec(file, &["x y"], Some(&"x ".repeat(file as usize))));
        }
        assert_eq!(a, b, "same postings, arena bytes and offsets");
        assert_eq!(a.term("x").unwrap().df(), 3);
        assert_eq!(positions_of(a.term("x").unwrap(), FileId::new(3)), [0, 3, 4, 5]);
    }
}
