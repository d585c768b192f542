//! The correctness oracle: re-derives an op's answer from the generator's
//! own rows, independently of the query crate's planner and executor.

use propeller_index::FileRecord;
use propeller_query::{SearchRequest, SearchResponse, SortKey};
use propeller_types::{AttrName, FileId, Timestamp, Value};

use crate::gen::{Check, Op, TermMode};

const DAY_MICROS: u64 = 86_400 * 1_000_000;

/// Whether `record` satisfies `check` as of `now`.
fn matches(record: &FileRecord, check: &Check, now: Timestamp) -> bool {
    match check {
        Check::Attr { size_gt, size_lt, younger_days, older_days, keyword } => {
            let mtime = record.attrs.mtime.as_micros();
            // `mtime<{d}day` is "age < d days": mtime after now − d days.
            let age_cut = |days: u64| now.as_micros().saturating_sub(days * DAY_MICROS);
            size_gt.is_none_or(|s| record.attrs.size > s)
                && size_lt.is_none_or(|s| record.attrs.size < s)
                && younger_days.is_none_or(|d| mtime > age_cut(d))
                && older_days.is_none_or(|d| mtime < age_cut(d))
                && keyword.as_ref().is_none_or(|k| record.keywords.contains(k))
        }
        Check::Terms { terms, mode, size_gt } => {
            let text = match mode {
                TermMode::All => terms.iter().all(|t| has_word(record, t)),
                TermMode::Any => terms.iter().any(|t| has_word(record, t)),
                TermMode::Phrase => has_phrase(record, terms),
            };
            text && size_gt.is_none_or(|s| record.attrs.size > s)
        }
        Check::Probe(file) => record.file == *file,
    }
}

/// The record's text fields as the generator wrote them: space-separated
/// lowercase words (keywords are single words).
fn fields(record: &FileRecord) -> impl Iterator<Item = &str> {
    record.keywords.iter().map(String::as_str).chain(record.custom.iter().filter_map(|(_, v)| {
        match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }))
}

fn has_word(record: &FileRecord, word: &str) -> bool {
    fields(record).any(|f| f.split(' ').any(|w| w == word))
}

fn has_phrase(record: &FileRecord, terms: &[String]) -> bool {
    fields(record).any(|f| {
        let words: Vec<&str> = f.split(' ').collect();
        words.windows(terms.len()).any(|w| w.iter().zip(terms).all(|(a, b)| a == b))
    })
}

/// Checks one answered op against `rows` (the live records at the time of
/// the search).
///
/// Attribute searches must equal filter → sort → take-k over the rows,
/// ties on ascending [`FileId`] (as `request.rs` documents). Ranked
/// searches are checked for membership, non-increasing score and
/// `min(k, matches)` hits: the BM25 order itself is the program's to
/// define. Probes must return exactly their one file.
///
/// # Errors
///
/// A description of the first discrepancy.
pub fn check<'a>(
    op: &Op,
    response: &SearchResponse,
    rows: impl Iterator<Item = &'a FileRecord>,
    now: Timestamp,
) -> Result<(), String> {
    if !response.complete {
        return Err(format!("{}: incomplete response", op.text));
    }
    let got = response.file_ids();
    let request: &SearchRequest = &op.request;
    match &op.check {
        Check::Probe(file) => {
            if got != [*file] {
                return Err(format!("{}: expected exactly {file}, got {got:?}", op.text));
            }
        }
        Check::Attr { .. } => {
            let mut want: Vec<(Option<u64>, FileId)> = rows
                .filter(|r| matches(r, &op.check, now))
                .map(|r| (sort_value(&request.sort, r), r.file))
                .collect();
            match request.sort {
                SortKey::Descending(_) => want.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1))),
                _ => want.sort(),
            }
            want.truncate(request.limit.unwrap_or(usize::MAX));
            let want: Vec<FileId> = want.into_iter().map(|(_, f)| f).collect();
            if got != want {
                return Err(format!(
                    "{}: {} hits, oracle {} (first difference at {:?})",
                    op.text,
                    got.len(),
                    want.len(),
                    got.iter().zip(&want).position(|(a, b)| a != b)
                ));
            }
        }
        Check::Terms { .. } => {
            let matching: Vec<&FileRecord> = rows.filter(|r| matches(r, &op.check, now)).collect();
            let want = request.limit.unwrap_or(usize::MAX).min(matching.len());
            if got.len() != want {
                return Err(format!(
                    "{}: {} hits, oracle min(k, matches) = {want}",
                    op.text,
                    got.len()
                ));
            }
            if let Some(stray) = got.iter().find(|f| !matching.iter().any(|r| r.file == **f)) {
                return Err(format!("{}: hit {stray} does not match", op.text));
            }
            let scores: Vec<&Value> =
                response.hits.iter().filter_map(|h| h.sort_key.as_ref()).collect();
            if scores.len() != got.len() || scores.windows(2).any(|w| w[0] < w[1]) {
                return Err(format!("{}: scores missing or not non-increasing", op.text));
            }
        }
    }
    Ok(())
}

fn sort_value(sort: &SortKey, record: &FileRecord) -> Option<u64> {
    match sort.attr() {
        Some(AttrName::Size) => Some(record.attrs.size),
        Some(AttrName::Mtime) => Some(record.attrs.mtime.as_micros()),
        _ => None,
    }
}

/// Cheap structural checks for answers whose exact content depends on
/// what a concurrent writer had published: complete, within the limit and
/// in result order.
///
/// # Errors
///
/// A description of the violated property.
pub fn check_shape(op: &Op, response: &SearchResponse) -> Result<(), String> {
    if !response.complete {
        return Err(format!("{}: incomplete response", op.text));
    }
    if op.request.limit.is_some_and(|k| response.hits.len() > k) {
        return Err(format!("{}: more hits than the limit", op.text));
    }
    let sort = &op.request.sort;
    if response.hits.windows(2).any(|w| sort.cmp_hits(&w[0], &w[1]).is_gt()) {
        return Err(format!("{}: hits out of order", op.text));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use propeller_core::{Propeller, PropellerConfig};

    #[test]
    fn oracle_agrees_with_the_service_and_rejects_a_wrong_answer() {
        let corpus = gen::attr_corpus(800, 5);
        let mut service =
            Propeller::new(PropellerConfig { group_capacity: 100, ..Default::default() });
        service.index_batch(corpus.records.clone()).unwrap();
        for op in gen::attr_ops(&corpus, 40, 5) {
            let mut resp = service.search_with(&op.request).unwrap();
            check(&op, &resp, corpus.records.iter(), corpus.now).unwrap();
            check_shape(&op, &resp).unwrap();
            if !resp.hits.is_empty() {
                resp.hits.remove(0);
                assert!(
                    check(&op, &resp, corpus.records.iter(), corpus.now).is_err(),
                    "{}",
                    op.text
                );
            }
        }
    }

    #[test]
    fn ranked_answers_are_checked_for_membership_count_and_order() {
        let corpus = gen::content_corpus(600, 2);
        let mut service =
            Propeller::new(PropellerConfig { group_capacity: 100, ..Default::default() });
        service.index_batch(corpus.records.clone()).unwrap();
        for op in gen::content_ops(&corpus, 50, 2) {
            let mut resp = service.search_with(&op.request).unwrap();
            check(&op, &resp, corpus.records.iter(), corpus.now).unwrap();
            if resp.hits.len() >= 2 {
                resp.hits.swap(0, 1);
                let tied = resp.hits[0].sort_key == resp.hits[1].sort_key;
                assert!(tied || check(&op, &resp, corpus.records.iter(), corpus.now).is_err());
            }
        }
    }

    #[test]
    fn probe_must_be_exactly_one_file() {
        let now = Timestamp::from_secs(0);
        let batch = &gen::fresh_batches(1, 3, now, 1)[0];
        let mut service = Propeller::new(PropellerConfig::default());
        let none = service.search_with(&batch.probe.request).unwrap();
        assert!(check(&batch.probe, &none, batch.records.iter(), now).is_err());
        service.index_batch(batch.records.clone()).unwrap();
        let one = service.search_with(&batch.probe.request).unwrap();
        check(&batch.probe, &one, batch.records.iter(), now).unwrap();
    }
}
