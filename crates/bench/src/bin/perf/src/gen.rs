//! Seeded inputs: corpora and the op sequences replayed against them.
//!
//! Everything the program receives is generated here, up front, from
//! `--seed`. Two things are held fixed across seeds so that a run's cost
//! does not depend on the draw: every mix has *exact* template counts
//! (a binomial draw of a 15 % template moves the mean by several
//! percent), and template parameters are stratified over their range
//! (op `j` of `c` takes the `(j + ½)/c` quantile) so the expensive end of
//! each template — which is what p99 reads — is the same in every seed.
//! The seed decides the corpus rows, the documents and the op order.

use propeller_index::FileRecord;
use propeller_query::{SearchRequest, SortKey};
use propeller_types::{AttrName, FileId, InodeAttrs, Timestamp};
use propeller_workloads::{NamespaceSpec, ZipfTerms};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Files per `index_files` call while loading a corpus.
pub const LOAD_BATCH: usize = 1_000;

/// What the oracle needs to know to re-derive an op's answer from the
/// generator's own rows, without going through the query crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Attribute filter; bounds are exclusive, ages in whole days.
    Attr {
        size_gt: Option<u64>,
        size_lt: Option<u64>,
        /// `mtime<{d}day`: modified less than `d` days ago.
        younger_days: Option<u64>,
        /// `mtime>{d}day`: modified more than `d` days ago.
        older_days: Option<u64>,
        keyword: Option<String>,
    },
    /// Ranked full-text match.
    Terms { terms: Vec<String>, mode: TermMode, size_gt: Option<u64> },
    /// Exactly this file, nothing else.
    Probe(FileId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermMode {
    All,
    Any,
    Phrase,
}

/// One generated search.
#[derive(Debug, Clone)]
pub struct Op {
    pub template: &'static str,
    pub text: String,
    pub request: SearchRequest,
    pub check: Check,
}

impl Op {
    fn new(
        template: &'static str,
        text: String,
        now: Timestamp,
        limit: Option<usize>,
        sort: SortKey,
        check: Check,
    ) -> Op {
        let mut request = SearchRequest::parse(&text, now)
            .unwrap_or_else(|e| panic!("generated query {text:?} must parse: {e}"))
            .sorted_by(sort);
        if let Some(k) = limit {
            request = request.with_limit(k);
        }
        Op { template, text, request, check }
    }
}

/// A corpus plus the "now" its relative-time queries are parsed against.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub records: Vec<FileRecord>,
    pub now: Timestamp,
}

/// The `j`-th of `c` stratified quantiles, and an independent-looking
/// second coordinate (golden-ratio rotation) for two-parameter templates.
fn strata(j: usize, c: usize) -> (f64, f64) {
    let u = (j as f64 + 0.5) / c as f64;
    let v = (j as f64 * 0.618_033_988_749_895 + 0.5).fract();
    (u, v)
}

fn lerp(lo: u64, hi: u64, u: f64) -> u64 {
    lo + ((hi - lo) as f64 * u) as u64
}

/// Exact per-template counts for `n` ops from percentage weights: the
/// largest template absorbs the rounding remainder.
fn exact_counts(n: usize, weights: &[usize]) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    let heaviest = (0..weights.len()).max_by_key(|&i| weights[i]).expect("non-empty mix");
    counts[heaviest] += n - counts.iter().sum::<usize>();
    counts
}

/// Attribute corpus: `files` rows of the paper's namespace generator, each
/// with its two path keywords (`app<N>`, `copy<M>`).
pub fn attr_corpus(files: usize, seed: u64) -> Corpus {
    let spec = NamespaceSpec { files, ..NamespaceSpec::laptop_dataset() };
    let records = spec
        .generate(seed)
        .into_iter()
        .enumerate()
        .map(|(i, (path, attrs))| {
            let mut parts = path.split('/').skip(2);
            let app = parts.next().expect("generator paths are /apps/app<N>/copy<M>/…");
            let copy = parts.next().expect("generator paths are /apps/app<N>/copy<M>/…");
            FileRecord::new(FileId::new(i as u64), attrs).with_keyword(app).with_keyword(copy)
        })
        .collect();
    Corpus { records, now: spec.now }
}

/// Fresh attribute rows from the same generator as [`attr_corpus`] — what
/// a writer redraws from, so updates leave the distribution where it was.
pub fn redraw_attrs(n: usize, seed: u64) -> Vec<InodeAttrs> {
    NamespaceSpec::with_files(n).generate(seed).into_iter().map(|(_, attrs)| attrs).collect()
}

/// Shorthand for an attribute-only [`Check`].
fn attr_check(
    size: (Option<u64>, Option<u64>),
    age_days: (Option<u64>, Option<u64>),
    keyword: Option<String>,
) -> Check {
    Check::Attr {
        size_gt: size.0,
        size_lt: size.1,
        younger_days: age_days.0,
        older_days: age_days.1,
        keyword,
    }
}

/// One attribute template: op `j` of `c`, parsed against `now`. Parameter
/// ranges were calibrated once on the reference host and are frozen here
/// (see README.md).
type AttrTemplate = fn(now: Timestamp, j: usize, c: usize) -> Op;

/// Top-10 by size: one ordered scan per ACG stream, stops after k.
fn top10_size(now: Timestamp, j: usize, c: usize) -> Op {
    let kib = lerp(1, 64, strata(j, c).0);
    Op::new(
        "top10_size",
        format!("size>{kib}k"),
        now,
        Some(10),
        SortKey::Descending(AttrName::Size),
        attr_check((Some(kib << 10), None), (None, None), None),
    )
}

/// Top-100 by mtime inside an age window: the mid-cost template that
/// carries the median.
fn top100_mtime_window(now: Timestamp, j: usize, c: usize) -> Op {
    let (u, v) = strata(j, c);
    let older = lerp(5, 70, u);
    let younger = older + lerp(6, 16, v);
    Op::new(
        "top100_mtime_window",
        format!("mtime<{younger}day & mtime>{older}day"),
        now,
        Some(100),
        SortKey::Descending(AttrName::Mtime),
        attr_check((None, None), (Some(younger), Some(older)), None),
    )
}

/// Hash-eq + filter + heap.
fn kw_size_top100_mtime(now: Timestamp, j: usize, c: usize) -> Op {
    let (u, v) = strata(j, c);
    let app = lerp(0, 12, u);
    let kib = lerp(4, 64, v);
    Op::new(
        "kw_size_top100_mtime",
        format!("keyword:app{app} & size>{kib}k"),
        now,
        Some(100),
        SortKey::Descending(AttrName::Mtime),
        attr_check((Some(kib << 10), None), (None, None), Some(format!("app{app}"))),
    )
}

/// Size ∧ mtime box: the K-D path.
fn box_kd_1000(now: Timestamp, j: usize, c: usize) -> Op {
    let (u, v) = strata(j, c);
    let lo = lerp(16, 256, u);
    let hi = lo * 2;
    let older = lerp(5, 80, v);
    let younger = older + 6;
    Op::new(
        "box_kd_1000",
        format!("size>{lo}k & size<{hi}k & mtime<{younger}day & mtime>{older}day"),
        now,
        Some(1_000),
        SortKey::FileId,
        attr_check((Some(lo << 10), Some(hi << 10)), (Some(younger), Some(older)), None),
    )
}

/// Selective unlimited range.
fn selective_range(now: Timestamp, j: usize, c: usize) -> Op {
    let mib = lerp(8, 64, strata(j, c).0);
    Op::new(
        "selective_range",
        format!("size>{mib}m"),
        now,
        None,
        SortKey::FileId,
        attr_check((Some(mib << 20), None), (None, None), None),
    )
}

/// The warm-up search of a build on an attribute corpus: cheap, but it
/// reaches every ACG, so it commits everything the load buffered.
pub fn warm_up(now: Timestamp) -> Op {
    top10_size(now, 0, 1)
}

/// Every file, by id: what a restart is verified with.
pub fn match_all(now: Timestamp) -> Op {
    Op::new(
        "match_all",
        "*".into(),
        now,
        None,
        SortKey::FileId,
        attr_check((None, None), (None, None), None),
    )
}

/// `n` ops with exact per-template counts, in seed-shuffled order.
fn attr_mix(now: Timestamp, n: usize, seed: u64, mix: &[(AttrTemplate, usize)]) -> Vec<Op> {
    let weights: Vec<usize> = mix.iter().map(|&(_, w)| w).collect();
    let counts = exact_counts(n, &weights);
    let mut ops = Vec::with_capacity(n);
    for (&(template, _), &c) in mix.iter().zip(&counts) {
        ops.extend((0..c).map(|j| template(now, j, c)));
    }
    ops.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xA77_0095));
    ops
}

/// `attr_topk`'s mix: 15 / 40 / 15 / 15 / 15.
pub fn attr_ops(corpus: &Corpus, n: usize, seed: u64) -> Vec<Op> {
    let mix: [(AttrTemplate, usize); 5] = [
        (top10_size, 15),
        (top100_mtime_window, 40),
        (kw_size_top100_mtime, 15),
        (box_kd_1000, 15),
        (selective_range, 15),
    ];
    attr_mix(corpus.now, n, seed, &mix)
}

/// `mixed_rw`'s reader: the three cheapest `attr_topk` templates. The two
/// sub-millisecond ones cost about the same and, started from an idle
/// CPU, overlap the window template's cheap end: at 30/40/30 and at
/// 20/60/20 the median sat on that boundary and spread 18–24 % between
/// runs whose mean spread 9 %. At 80 % the median is well inside the
/// window template, on a millisecond of real work.
pub fn cheap_attr_ops(corpus: &Corpus, n: usize, seed: u64) -> Vec<Op> {
    let mix: [(AttrTemplate, usize); 3] =
        [(top10_size, 10), (top100_mtime_window, 80), (selective_range, 10)];
    attr_mix(corpus.now, n, seed, &mix)
}

/// Vocabulary of the content corpus.
const VOCABULARY: usize = 10_000;
const ZIPF_EXPONENT: f64 = 1.1;

/// Content corpus: attribute rows plus a Zipf document of 8–64 words.
pub fn content_corpus(files: usize, seed: u64) -> Corpus {
    let spec = NamespaceSpec::with_files(files);
    let vocab = ZipfTerms::new(VOCABULARY, ZIPF_EXPONENT);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0C5);
    let records = spec
        .generate(seed)
        .into_iter()
        .enumerate()
        .map(|(i, (_, attrs))| {
            let len = 8 + i % 57;
            FileRecord::new(FileId::new(i as u64), attrs)
                .with_content(vocab.document(&mut rng, len))
        })
        .collect();
    Corpus { records, now: spec.now }
}

/// Term rank at quantile `u` of a log-uniform law over `[lo, hi)`: ranked
/// queries cost roughly their terms' postings lengths, which fall off as a
/// power of the rank, so equal steps in log-rank are equal steps in cost.
/// Ranks are stratified rather than sampled from the Zipf law itself: one
/// draw of a head term (rank < 10 is in a third of all documents) would
/// otherwise decide a seed's mean.
fn log_rank(lo: usize, hi: usize, u: f64) -> usize {
    ((lo as f64) * (hi as f64 / lo as f64).powf(u)) as usize
}

/// `n` distinct terms for op `j` of `c`, ranks log-uniform over `[lo, hi)`:
/// the first stratified, the rest by golden-ratio rotation, bumped past
/// collisions.
fn distinct_terms(j: usize, c: usize, n: usize, (lo, hi): (usize, usize)) -> Vec<String> {
    let mut w = strata(j, c).0;
    let mut ranks: Vec<usize> = Vec::with_capacity(n);
    while ranks.len() < n {
        let mut r = log_rank(lo, hi, w);
        while ranks.contains(&r) {
            r += 1;
        }
        ranks.push(r);
        w = (w + 0.618_033_988_749_895).fract();
    }
    ranks.into_iter().map(ZipfTerms::term).collect()
}

/// The rank of a generated term (`term00042` → 42).
fn rank_of(term: &str) -> usize {
    term.trim_start_matches("term").parse().expect("corpus words are ZipfTerms spellings")
}

/// `content_rank`'s mix: 40 / 20 / 20 / 17 / 3. Rank ranges were
/// calibrated once on the reference host and are frozen here (README.md).
pub fn content_ops(corpus: &Corpus, n: usize, seed: u64) -> Vec<Op> {
    const CONJ2: (usize, usize) = (12, 1_200);
    const CONJ3: (usize, usize) = (5, 300);
    const PHRASE_MIN_RANK: usize = 60;
    const ANY_HEAD: (usize, usize) = (20, 60);
    const ANY_TAIL: (usize, usize) = (300, 1_000);
    let now = corpus.now;
    let counts = exact_counts(n, &[40, 20, 20, 17, 3]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_47E47);
    let mut ops = Vec::with_capacity(n);
    // Two-term conjunction, top-10: the postings merge that carries p50.
    for j in 0..counts[0] {
        let terms = distinct_terms(j, counts[0], 2, CONJ2);
        ops.push(Op::new(
            "contains2_top10",
            format!("contains:\"{}\"", terms.join(" ")),
            now,
            Some(10),
            SortKey::Relevance,
            Check::Terms { terms, mode: TermMode::All, size_gt: None },
        ));
    }
    // Conjunction + attribute filter, top-100.
    for j in 0..counts[1] {
        let terms = distinct_terms(j, counts[1], 2, CONJ2);
        let kib = lerp(1, 16, strata(j, counts[1]).1);
        ops.push(Op::new(
            "contains2_size_top100",
            format!("contains:\"{}\" & size>{kib}k", terms.join(" ")),
            now,
            Some(100),
            SortKey::Relevance,
            Check::Terms { terms, mode: TermMode::All, size_gt: Some(kib << 10) },
        ));
    }
    // Phrase: two adjacent words of a document the seed picks, the rarer
    // of them outside the head of the vocabulary.
    while ops.len() < counts[0] + counts[1] + counts[2] {
        let doc = &corpus.records[rng.gen_range(0..corpus.records.len())];
        let words = propeller_index::record_tokens(doc);
        let at = rng.gen_range(0..words.len() - 1);
        let terms = words[at..at + 2].to_vec();
        if terms.iter().map(|t| rank_of(t)).max() < Some(PHRASE_MIN_RANK) {
            continue;
        }
        ops.push(Op::new(
            "phrase2_top10",
            format!("phrase:\"{}\"", terms.join(" ")),
            now,
            Some(10),
            SortKey::Relevance,
            Check::Terms { terms, mode: TermMode::Phrase, size_gt: None },
        ));
    }
    // Three-term conjunction, top-100.
    for j in 0..counts[3] {
        let terms = distinct_terms(j, counts[3], 3, CONJ3);
        ops.push(Op::new(
            "contains3_top100",
            format!("contains:\"{}\"", terms.join(" ")),
            now,
            Some(100),
            SortKey::Relevance,
            Check::Terms { terms, mode: TermMode::All, size_gt: None },
        ));
    }
    // Head + tail disjunction, top-10, at a fixed 3 %: the WAND case. The
    // head is common enough (rank 20–60, in 10–20 % of the documents) for
    // the tail's scores to prune it — at rank 80+ nothing was pruned — and
    // so costs ~40 ms an op: it sets p99 and about 40 % of the mean, which
    // is why its share is fixed and small.
    for j in 0..counts[4] {
        let (u, v) = strata(j, counts[4]);
        let terms = vec![
            ZipfTerms::term(log_rank(ANY_HEAD.0, ANY_HEAD.1, u)),
            ZipfTerms::term(log_rank(ANY_TAIL.0, ANY_TAIL.1, v)),
        ];
        ops.push(Op::new(
            "any_head_tail_top10",
            format!("contains-any:\"{}\"", terms.join(" ")),
            now,
            Some(10),
            SortKey::Relevance,
            Check::Terms { terms, mode: TermMode::Any, size_gt: None },
        ));
    }
    ops.shuffle(&mut rng);
    ops
}

/// First id of the files a write workload creates: far above any base
/// corpus, so creates never collide with it.
pub const FRESH_BASE: u64 = 10_000_000;

/// One PostMark-shaped create batch: `size` new files, the first tagged
/// with a keyword no other file carries.
#[derive(Debug, Clone)]
pub struct FreshBatch {
    pub records: Vec<FileRecord>,
    pub files: Vec<FileId>,
    pub probe: Op,
}

/// `batches` create batches of `size` files each, attributes drawn from
/// the base generator.
pub fn fresh_batches(batches: usize, size: usize, now: Timestamp, seed: u64) -> Vec<FreshBatch> {
    let attrs = redraw_attrs(batches * size, seed ^ 0xF4E5);
    (0..batches)
        .map(|b| {
            let files: Vec<FileId> =
                (0..size).map(|i| FileId::new(FRESH_BASE + (b * size + i) as u64)).collect();
            let tag = format!("probe{b}");
            let records = files
                .iter()
                .enumerate()
                .map(|(i, &file)| {
                    let record = FileRecord::new(file, attrs[b * size + i]);
                    if i == 0 {
                        record.with_keyword(tag.clone())
                    } else {
                        record
                    }
                })
                .collect();
            let probe = Op::new(
                "probe",
                format!("keyword:{tag}"),
                now,
                None,
                SortKey::FileId,
                Check::Probe(files[0]),
            );
            FreshBatch { records, files, probe }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_exact_counts_in_every_seed() {
        assert_eq!(exact_counts(1_000, &[15, 40, 15, 15, 15]), [150, 400, 150, 150, 150]);
        assert_eq!(exact_counts(1_000, &[40, 20, 20, 17, 3]), [400, 200, 200, 170, 30]);
        assert_eq!(exact_counts(10, &[40, 20, 20, 17, 3]).iter().sum::<usize>(), 10);
        let corpus = attr_corpus(600, 3);
        for seed in [1, 2] {
            let ops = attr_ops(&corpus, 100, seed);
            let mids = ops.iter().filter(|o| o.template == "top100_mtime_window").count();
            assert_eq!((ops.len(), mids), (100, 40));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = content_corpus(200, 9);
        let b = content_corpus(200, 9);
        assert_eq!(a.records, b.records);
        let texts =
            |c: &Corpus| content_ops(c, 50, 9).into_iter().map(|o| o.text).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(a.records, content_corpus(200, 10).records);
    }

    #[test]
    fn cheap_mix_puts_the_median_well_inside_the_window_template() {
        let corpus = attr_corpus(600, 1);
        let ops = cheap_attr_ops(&corpus, 100, 1);
        let count = |t: &str| ops.iter().filter(|o| o.template == t).count();
        assert_eq!(
            (count("top10_size"), count("top100_mtime_window"), count("selective_range")),
            (10, 80, 10)
        );
    }

    #[test]
    fn fresh_batches_tag_exactly_one_file_each() {
        let batches = fresh_batches(3, 5, Timestamp::from_secs(100 * 86_400), 1);
        assert_eq!(batches.len(), 3);
        for (b, batch) in batches.iter().enumerate() {
            assert_eq!(batch.records.len(), 5);
            let tagged: Vec<_> = batch.records.iter().filter(|r| !r.keywords.is_empty()).collect();
            assert_eq!(tagged.len(), 1);
            assert_eq!(batch.probe.check, Check::Probe(tagged[0].file));
            assert_eq!(batch.files[0].raw(), FRESH_BASE + (b * 5) as u64);
        }
    }
}
