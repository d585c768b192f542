//! Property tests for the inverted-index subsystem: random corpora with
//! upserts and removes must keep the postings and their positions
//! equivalent to a brute-force scan oracle, and a crash-recovered group
//! must rebuild an identical index.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use propeller_index::{
    phrase_at, record_contains_all, record_contains_any, record_contains_phrase, record_tokens,
    AcgIndexGroup, FileRecord, GroupConfig, IndexOp, InvertedIndex, PostingsCursor, Wal,
};
use propeller_types::{AcgId, FileId, InodeAttrs, Timestamp};
use proptest::prelude::*;

/// Small vocabulary so random docs collide on terms (df > 1, real
/// intersections) instead of producing disjoint singleton postings.
const VOCAB: &[&str] =
    &["alpha", "beta", "gamma", "delta", "tax", "report", "quick", "brown", "fox", "zebra"];

fn doc_text(words: &[usize]) -> String {
    words.iter().map(|&w| VOCAB[w % VOCAB.len()]).collect::<Vec<_>>().join(" ")
}

fn record(file: u64, words: &[usize]) -> FileRecord {
    FileRecord::new(FileId::new(file), InodeAttrs::default()).with_content(doc_text(words))
}

/// A record with two keyword fields before its content: phrases must not
/// match across any two of the three.
fn multi_field_record(file: u64, (kw1, kw2, content): &Fields) -> FileRecord {
    record(file, content).with_keyword(doc_text(kw1)).with_keyword(doc_text(kw2))
}

type Fields = (Vec<usize>, Vec<usize>, Vec<usize>);

fn terms_of(ids: &[usize]) -> Vec<String> {
    let mut terms: Vec<String> = ids.iter().map(|&w| VOCAB[w % VOCAB.len()].to_string()).collect();
    terms.dedup();
    terms
}

/// Walks one term's postings into a plain file list.
fn postings_files(inv: &InvertedIndex, term: &str) -> Vec<FileId> {
    let Some(postings) = inv.term(term) else { return Vec::new() };
    let mut cursor = PostingsCursor::new(postings);
    let mut out = Vec::new();
    while let Some(p) = cursor.current() {
        out.push(p.file);
        cursor.advance();
    }
    out
}

/// The files holding `terms` as a phrase, answered from the index alone:
/// one cursor per phrase term (a repeated term gets one per occurrence)
/// aligned on each file of the first term's postings, then its positions.
fn phrase_files(inv: &InvertedIndex, terms: &[String]) -> Vec<FileId> {
    let Some(lists) = terms.iter().map(|t| inv.term(t)).collect::<Option<Vec<_>>>() else {
        return Vec::new();
    };
    let mut cursors: Vec<PostingsCursor<'_>> = lists.into_iter().map(PostingsCursor::new).collect();
    let mut starts = Vec::new();
    postings_files(inv, &terms[0])
        .into_iter()
        .filter(|&file| {
            cursors.iter_mut().all(|c| c.seek(file).is_some_and(|p| p.file == file))
                && phrase_at(cursors.iter(), &mut starts)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contains (all / any) and phrase answers derived from the postings
    /// agree with a brute-force scan over the surviving records, and every
    /// df / doc-length statistic matches a from-scratch recount.
    #[test]
    fn inverted_matches_the_brute_force_oracle(
        docs in prop::collection::vec(
            (0u64..48, (
                prop::collection::vec(0usize..VOCAB.len(), 0..3),
                prop::collection::vec(0usize..VOCAB.len(), 0..3),
                prop::collection::vec(0usize..VOCAB.len(), 0..10),
            )),
            1..60,
        ),
        removes in prop::collection::vec(0u64..48, 0..24),
        query in prop::collection::vec(0usize..VOCAB.len(), 1..4),
    ) {
        // Ids arrive in any order, so upserts land mid-list and re-insert
        // or drop postings in front of others' positions.
        let mut inv = InvertedIndex::new();
        let mut live: HashMap<u64, FileRecord> = HashMap::new();
        for (i, (file, fields)) in docs.iter().enumerate() {
            let rec = multi_field_record(*file, fields);
            if let Some(old) = live.insert(*file, rec.clone()) {
                inv.remove(&old);
            }
            inv.insert(&rec);
            if let Some(file) = removes.get(i).filter(|_| i % 3 == 0) {
                if let Some(old) = live.remove(file) {
                    inv.remove(&old);
                }
            }
        }
        for file in &removes {
            if let Some(old) = live.remove(file) {
                inv.remove(&old);
            }
        }

        let terms = terms_of(&query);
        let oracle = |pred: &dyn Fn(&FileRecord) -> bool| -> Vec<FileId> {
            let mut v: Vec<FileId> =
                live.values().filter(|r| pred(r)).map(|r| r.file).collect();
            v.sort_unstable();
            v
        };

        // All-terms conjunction: intersect the postings lists.
        let mut all: Option<Vec<FileId>> = None;
        for term in &terms {
            let files = postings_files(&inv, term);
            all = Some(match all {
                None => files,
                Some(prev) => prev.into_iter().filter(|f| files.binary_search(f).is_ok()).collect(),
            });
        }
        prop_assert_eq!(
            all.unwrap_or_default(),
            oracle(&|r| record_contains_all(r, &terms)),
            "conjunction over {:?}", terms
        );

        // Any-term disjunction: union the postings lists.
        let mut any: Vec<FileId> = terms.iter().flat_map(|t| postings_files(&inv, t)).collect();
        any.sort_unstable();
        any.dedup();
        prop_assert_eq!(any, oracle(&|r| record_contains_any(r, &terms)), "disjunction");

        // Phrases, answered from the positions: the query as drawn (terms
        // may repeat), reversed, and every term doubled.
        let drawn: Vec<String> = query.iter().map(|&w| VOCAB[w].to_string()).collect();
        let reversed: Vec<String> = drawn.iter().rev().cloned().collect();
        let doubled: Vec<String> = drawn.iter().flat_map(|t| [t.clone(), t.clone()]).collect();
        for phrase in [drawn, reversed, doubled] {
            prop_assert_eq!(
                phrase_files(&inv, &phrase),
                oracle(&|r| record_contains_phrase(r, &phrase)),
                "phrase {:?}", phrase
            );
        }

        // Statistics: df, doc count and per-doc lengths match a recount.
        for term in VOCAB {
            let term = (*term).to_string();
            let expected = live
                .values()
                .filter(|r| record_tokens(r).contains(&term))
                .count();
            prop_assert_eq!(inv.df(&term), expected, "df({})", term);
        }
        let tokenised = live.values().filter(|r| !record_tokens(r).is_empty()).count();
        prop_assert_eq!(inv.doc_count(), tokenised, "doc_count counts docs with tokens");
        for rec in live.values() {
            prop_assert_eq!(
                inv.doc_len(rec.file) as usize,
                record_tokens(rec).len(),
                "doc_len({})", rec.file
            );
        }
    }

    /// Crash-recovery round trip: a group rebuilt from its snapshot + WAL
    /// suffix carries an inverted index equal to the live one — postings,
    /// positions, df tables, document lengths and corpus statistics.
    #[test]
    fn crash_recovery_rebuilds_identical_postings(
        batches in prop::collection::vec(
            prop::collection::vec(
                (0u64..32, prop::collection::vec(0usize..VOCAB.len(), 0..8)),
                1..8,
            ),
            1..5,
        ),
        snapshot_after in 0usize..5,
        remove_every in 2u64..5,
    ) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "propeller-inverted-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = || GroupConfig {
            wal: Wal::open(dir.join("acg-1.wal")).unwrap(),
            snapshot_dir: Some(dir.clone()),
            ..GroupConfig::default()
        };

        let mut g = AcgIndexGroup::new(AcgId::new(1), config());
        for (i, batch) in batches.iter().enumerate() {
            let ops: Vec<IndexOp> = batch
                .iter()
                .map(|(file, words)| {
                    // A sprinkling of removes exercises postings deletion
                    // across the snapshot boundary.
                    if *file % remove_every == 0 && words.is_empty() {
                        IndexOp::Remove(FileId::new(*file))
                    } else {
                        IndexOp::Upsert(record(*file, words))
                    }
                })
                .collect();
            g.enqueue_batch(ops, Timestamp::EPOCH).unwrap();
            g.sync_wal().unwrap();
            g.commit(Timestamp::EPOCH).unwrap();
            if i == snapshot_after {
                g.snapshot().unwrap();
            }
        }
        let live = g.inverted().expect("default content index").clone();
        drop(g);

        let (recovered, _report) =
            AcgIndexGroup::recover_with_report(AcgId::new(1), config()).unwrap();
        let rinv = recovered.inverted().expect("recovered content index");
        prop_assert_eq!(rinv, &live, "the index diverged across recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
