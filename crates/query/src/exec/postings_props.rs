//! Properties of the postings kernel: scores read off the merge cursors
//! are the scores every other scorer computes, bit for bit, and the
//! residual predicate admits exactly what the full predicate admits.

use proptest::prelude::*;

use propeller_index::{AcgIndexGroup, GroupConfig, IndexOp};
use propeller_types::{AcgId, AttrName, FileId, InodeAttrs, Timestamp};

use super::*;
use crate::request::next_cursor;

/// Term picks: skewed so "a" is in most documents and "f" in few — long and
/// short postings lists, several blocks of the former — and "zz" in none.
const WORDS: [&str; 17] =
    ["a", "a", "a", "a", "a", "a", "b", "b", "b", "b", "c", "c", "c", "d", "d", "e", "f"];
const UNKNOWN: &str = "zz";

/// One document: size, then word picks for two keyword fields and the
/// content field (phrases must not match across them).
type Doc = (u64, Vec<usize>, Vec<usize>, Vec<usize>);

fn arb_corpus() -> impl Strategy<Value = Vec<Doc>> {
    let words = |max| prop::collection::vec(0usize..WORDS.len(), 0..max);
    prop::collection::vec((0u64..4096, words(3), words(3), words(8)), 0..220)
}

fn group_of(corpus: &[Doc]) -> AcgIndexGroup {
    let now = Timestamp::from_secs(1);
    let text = |picks: &[usize]| picks.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
    let mut group = AcgIndexGroup::new(AcgId::new(1), GroupConfig::default());
    for (i, (size, kw1, kw2, content)) in corpus.iter().enumerate() {
        let record = FileRecord::new(
            FileId::new(3 * i as u64 + 1),
            InodeAttrs::builder().size(*size).build(),
        )
        .with_keyword(text(kw1))
        .with_keyword(text(kw2))
        .with_content(text(content));
        group.enqueue(IndexOp::Upsert(record), now).unwrap();
    }
    group.commit(now).unwrap();
    group
}

/// The request shapes the kernel must get right, over three term picks.
fn predicates(t: [&str; 3]) -> Vec<(&'static str, Predicate)> {
    use ContainsMode::{All, Any, Phrase};
    let has = |terms: &[&str], mode| Predicate::contains(terms.to_vec(), mode);
    let big = || Predicate::cmp(AttrName::Size, CompareOp::Gt, 1024u64);
    let [a, b, c] = t;
    vec![
        ("conjunctive", has(&[a, b], All)),
        ("disjunctive", has(&[a, b], Any)),
        ("duplicate terms", has(&[a, a, b], All)),
        ("unknown term", has(&[a, UNKNOWN], Any)),
        ("attribute filter", Predicate::And(vec![has(&[a, b], All), big()])),
        ("phrase & contains", Predicate::And(vec![has(&[a, b], Phrase), has(&[c], All)])),
        // Scores b, merges only a: the WAND bounds must stay disarmed.
        (
            "scoring terms beyond the merge",
            Predicate::And(vec![has(&[a], All), Predicate::Or(vec![has(&[b], All), big()])]),
        ),
        // Only the first any-conjunct drives the merge; the second filters.
        ("second contains-any", Predicate::And(vec![has(&[a, b], Any), has(&[b, c], Any)])),
        ("any beside a conjunctive merge", Predicate::And(vec![has(&[a, b], Any), has(&[c], All)])),
        (
            "negated contains",
            Predicate::And(vec![has(&[a], All), Predicate::Not(Box::new(has(&[b], All)))]),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn postings_kernel_equals_the_reference_and_every_scorer(
        corpus in arb_corpus(),
        picks in (0usize..WORDS.len(), 0usize..WORDS.len(), 0usize..WORDS.len()),
        page in 1usize..9,
    ) {
        let group = group_of(&corpus);
        let inv = group.inverted().expect("default groups index content");
        for (shape, predicate) in predicates([WORDS[picks.0], WORDS[picks.1], WORDS[picks.2]]) {
            let terms = relevance_terms(&predicate);
            let brute = RelevanceScorer::brute(group.records(), &terms);
            for sort in [SortKey::Relevance, SortKey::FileId, SortKey::Descending(AttrName::Size)] {
                let base = SearchRequest::new(predicate.clone()).sorted_by(sort.clone());
                let what = format!("{shape} ({predicate}) by {sort:?}");

                // Unlimited: every matching document, so every score the
                // kernel can produce is compared.
                let (full, stats) = execute_request(&group, &base);
                let (reference, _) = execute_request_reference(&group, &base);
                // `Value::F64` equality is `total_cmp`: equal hits are equal bits.
                prop_assert_eq!(&full, &reference, "{}", what);
                if sort == SortKey::Relevance {
                    prop_assert_eq!(stats.access_paths[0].1, AccessPathKind::Postings);
                    for hit in &full {
                        let fed = hit.sort_key.as_ref().and_then(Value::as_f64).unwrap().to_bits();
                        let record = group.record(hit.file).unwrap();
                        prop_assert_eq!(fed, inv.score_doc(hit.file, &terms).to_bits(), "{}", what);
                        prop_assert_eq!(fed, brute.score(record, &terms).to_bits(), "{}", what);
                    }
                }

                // Limits, where the local floor and the WAND bounds prune.
                for limit in [0, 1, page, 1000] {
                    let req = base.clone().with_limit(limit);
                    let (hits, _) = execute_request(&group, &req);
                    let (reference, _) = execute_request_reference(&group, &req);
                    prop_assert_eq!(&hits, &reference, "{} limit {}", what, limit);
                    prop_assert_eq!(&hits[..], &full[..limit.min(full.len())]);
                }

                // Cursor pagination tiles the full result.
                let mut paged = Vec::new();
                let mut cursor = None;
                loop {
                    let mut req = base.clone().with_limit(page);
                    if let Some(c) = cursor.take() {
                        req = req.after(c);
                    }
                    let (hits, _) = execute_request(&group, &req);
                    cursor = next_cursor(&hits, Some(page));
                    paged.extend(hits);
                    if cursor.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(&paged, &full, "{} paged by {}", what, page);
            }
        }
    }
}
