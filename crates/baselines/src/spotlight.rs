//! The Spotlight-like crawling desktop search engine.
//!
//! Spotlight's defining behaviours under the paper's measurements:
//!
//! 1. **Asynchronous crawling** — a file-system notification enqueues the
//!    file; a crawler with bounded throughput indexes it later, so results
//!    lag reality by the queue's drain time, and recall drops as background
//!    I/O intensity (files-per-second) rises (Fig. 1, Fig. 11a).
//! 2. **Type plugins** — only a subset of files belongs to supported types,
//!    capping recall below 100% regardless of timing (Fig. 1 caps at ~53%,
//!    Table V at 60.6% / 13.86% depending on the dataset mix).
//! 3. **Re-index windows** — when the backlog exceeds a threshold the
//!    engine rebuilds its store and queries return *nothing* until the
//!    rebuild completes (the recall-to-zero cliffs of Fig. 1).

use std::collections::{HashMap, VecDeque};

use propeller_index::FileRecord;
use propeller_query::{matches_record, Predicate};
use propeller_types::{Duration, FileId, Timestamp};

/// Tuning for [`SpotlightEngine`].
#[derive(Debug, Clone)]
pub struct SpotlightConfig {
    /// Files the crawler can index per second.
    pub crawl_rate: f64,
    /// Fraction of files whose type has an import plugin (recall ceiling).
    pub supported_fraction: f64,
    /// Backlog size that triggers a full re-index.
    pub reindex_backlog: usize,
    /// How long a full re-index takes (queries return nothing meanwhile).
    pub reindex_duration: Duration,
}

impl Default for SpotlightConfig {
    fn default() -> Self {
        SpotlightConfig {
            crawl_rate: 40.0,
            supported_fraction: 0.6, // Table V dataset 1: 60.6% recall cap
            reindex_backlog: 2_000,
            reindex_duration: Duration::from_secs(45),
        }
    }
}

/// The crawling engine.
///
/// Drive it with [`SpotlightEngine::notify`] (file created/changed) and
/// query with [`SpotlightEngine::query`]; time flows through the explicit
/// `now` arguments so both wall-clock and virtual-clock experiments work.
///
/// # Examples
///
/// ```
/// use propeller_baselines::{SpotlightConfig, SpotlightEngine};
/// use propeller_index::FileRecord;
/// use propeller_query::Query;
/// use propeller_types::{Duration, FileId, InodeAttrs, Timestamp};
///
/// let mut engine = SpotlightEngine::new(SpotlightConfig {
///     supported_fraction: 1.0,
///     ..Default::default()
/// });
/// let t0 = Timestamp::from_secs(0);
/// engine.notify(
///     FileRecord::new(FileId::new(1), InodeAttrs::builder().size(1 << 30).build()),
///     t0,
/// );
/// let q = Query::parse("size>1m", t0).unwrap();
/// // Immediately after the change the crawler has not caught up…
/// assert!(engine.query(&q.predicate, t0).is_empty());
/// // …but after the crawl delay the file appears.
/// let later = t0 + Duration::from_secs(10);
/// assert_eq!(engine.query(&q.predicate, later), vec![FileId::new(1)]);
/// ```
#[derive(Debug)]
pub struct SpotlightEngine {
    config: SpotlightConfig,
    /// Committed (crawled) index.
    store: HashMap<FileId, FileRecord>,
    /// Notification queue: files awaiting the crawler.
    queue: VecDeque<FileRecord>,
    /// Crawl-capacity accounting: when the crawler will be free.
    crawler_free_at: Timestamp,
    /// An in-progress full re-index, if any: (started, ends).
    reindexing_until: Option<Timestamp>,
    /// Total files crawled.
    crawled: u64,
}

impl SpotlightEngine {
    /// Creates an engine with the given behaviour knobs.
    pub fn new(config: SpotlightConfig) -> Self {
        SpotlightEngine {
            config,
            store: HashMap::new(),
            queue: VecDeque::new(),
            crawler_free_at: Timestamp::EPOCH,
            reindexing_until: None,
            crawled: 0,
        }
    }

    /// Whether this file's type has an import plugin (deterministic hash
    /// of the id against the supported fraction).
    fn supported(&self, file: FileId) -> bool {
        // SplitMix-style scramble for a uniform [0,1) per file.
        let mut z = file.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = ((z >> 11) as f64) / ((1u64 << 53) as f64);
        u < self.config.supported_fraction
    }

    /// A file-system notification: the file changed at `now`. Unsupported
    /// types are dropped (no plugin); supported ones join the crawl queue.
    pub fn notify(&mut self, record: FileRecord, now: Timestamp) {
        if !self.supported(record.file) {
            return;
        }
        self.queue.push_back(record);
        if self.queue.len() > self.config.reindex_backlog && self.reindexing_until.is_none() {
            // Backlog blew up: Spotlight rebuilds its store from scratch.
            self.store.clear();
            self.reindexing_until = Some(now + self.config.reindex_duration);
        }
    }

    /// Advances the crawler to `now`, draining whatever its rate allows.
    pub fn pump(&mut self, now: Timestamp) {
        if let Some(until) = self.reindexing_until {
            if now < until {
                return; // rebuild in progress: nothing gets indexed
            }
            self.reindexing_until = None;
            self.crawler_free_at = until;
        }
        let per_file = Duration::from_secs_f64(1.0 / self.config.crawl_rate.max(1e-9));
        while !self.queue.is_empty() {
            let finish = self.crawler_free_at.max(Timestamp::EPOCH) + per_file;
            if finish > now {
                break;
            }
            let record = self.queue.pop_front().expect("queue non-empty");
            self.crawler_free_at = finish;
            self.crawled += 1;
            self.store.insert(record.file, record);
        }
        if self.queue.is_empty() && self.crawler_free_at < now {
            self.crawler_free_at = now;
        }
    }

    /// Queries the crawled index at `now`. During a re-index window the
    /// result is empty (the Fig. 1 recall cliffs).
    pub fn query(&mut self, pred: &Predicate, now: Timestamp) -> Vec<FileId> {
        self.pump(now);
        if self.reindexing_until.is_some_and(|until| now < until) {
            return Vec::new();
        }
        let mut out: Vec<FileId> =
            self.store.values().filter(|r| matches_record(r, pred)).map(|r| r.file).collect();
        out.sort_unstable();
        out
    }

    /// Answers the same [`SearchRequest`](propeller_query::SearchRequest)
    /// API as Propeller against the *crawled* view at `now`. The response
    /// claims `complete` even while the crawl queue is behind or a re-index
    /// is running — which is precisely the recall lie the paper measures
    /// this baseline on.
    pub fn search_with(
        &mut self,
        request: &propeller_query::SearchRequest,
        now: Timestamp,
    ) -> propeller_query::SearchResponse {
        self.pump(now);
        if self.reindexing_until.is_some_and(|until| now < until) {
            return propeller_query::SearchResponse::empty();
        }
        propeller_query::run_local_search(self.store.values().cloned(), request)
    }

    /// Files waiting in the crawl queue.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Files indexed so far.
    pub fn indexed(&self) -> usize {
        self.store.len()
    }

    /// Whether a re-index is in progress at `now`.
    pub fn is_reindexing(&self, now: Timestamp) -> bool {
        self.reindexing_until.is_some_and(|until| now < until)
    }
}

/// Recall: the fraction of `truth` present in `results` (paper §II).
/// Returns 1.0 when `truth` is empty.
///
/// # Examples
///
/// ```
/// use propeller_baselines::recall;
/// use propeller_types::FileId;
///
/// let truth: Vec<FileId> = (0..4).map(FileId::new).collect();
/// let results = vec![FileId::new(0), FileId::new(1)];
/// assert_eq!(recall(&results, &truth), 0.5);
/// ```
pub fn recall(results: &[FileId], truth: &[FileId]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let set: std::collections::HashSet<FileId> = results.iter().copied().collect();
    truth.iter().filter(|f| set.contains(f)).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_query::Query;
    use propeller_types::InodeAttrs;

    fn rec(file: u64) -> FileRecord {
        FileRecord::new(FileId::new(file), InodeAttrs::builder().size(1 << 30).build())
    }

    fn pred() -> Predicate {
        Query::parse("size>1m", Timestamp::EPOCH).unwrap().predicate
    }

    fn full_config() -> SpotlightConfig {
        SpotlightConfig { supported_fraction: 1.0, ..Default::default() }
    }

    #[test]
    fn crawl_delay_makes_results_stale() {
        let mut e = SpotlightEngine::new(SpotlightConfig {
            crawl_rate: 5.0, // 1 second drains only 5 of the 10 files
            ..full_config()
        });
        let t0 = Timestamp::from_secs(0);
        for i in 0..10 {
            e.notify(rec(i), t0);
        }
        assert!(e.query(&pred(), t0).is_empty(), "no time to crawl yet");
        let later = t0 + Duration::from_secs(1);
        let partial = e.query(&pred(), later).len();
        assert!(partial > 0 && partial < 10, "partial crawl: {partial}");
        let done = t0 + Duration::from_secs(10);
        assert_eq!(e.query(&pred(), done).len(), 10);
    }

    #[test]
    fn recall_ceiling_from_unsupported_types() {
        let mut e =
            SpotlightEngine::new(SpotlightConfig { supported_fraction: 0.6, ..Default::default() });
        let t0 = Timestamp::from_secs(0);
        let truth: Vec<FileId> = (0..1000).map(FileId::new).collect();
        for i in 0..1000 {
            e.notify(rec(i), t0);
        }
        let settle = t0 + Duration::from_secs(3600);
        let results = e.query(&pred(), settle);
        let r = recall(&results, &truth);
        assert!((0.5..0.7).contains(&r), "recall ceiling ≈ 0.6, got {r}");
    }

    #[test]
    fn backlog_triggers_reindex_and_zero_recall() {
        let mut e = SpotlightEngine::new(SpotlightConfig {
            supported_fraction: 1.0,
            reindex_backlog: 100,
            reindex_duration: Duration::from_secs(60),
            crawl_rate: 10.0,
        });
        let t0 = Timestamp::from_secs(0);
        // Index some files and let the crawler settle.
        for i in 0..50 {
            e.notify(rec(i), t0);
        }
        let settled = t0 + Duration::from_secs(30);
        assert_eq!(e.query(&pred(), settled).len(), 50);
        // Blast the queue past the re-index threshold.
        for i in 1000..1200 {
            e.notify(rec(i), settled);
        }
        assert!(e.is_reindexing(settled + Duration::from_secs(1)));
        assert!(
            e.query(&pred(), settled + Duration::from_secs(10)).is_empty(),
            "recall collapses to zero during the rebuild"
        );
        // After the rebuild the crawler catches back up eventually.
        let after = settled + Duration::from_secs(60 + 60);
        assert!(!e.query(&pred(), after).is_empty());
    }

    #[test]
    fn faster_background_io_lowers_observed_recall() {
        // The Fig. 1 experiment shape: higher FPS ⇒ lower steady recall.
        let run = |fps: u64| -> f64 {
            let mut e = SpotlightEngine::new(SpotlightConfig {
                supported_fraction: 1.0,
                crawl_rate: 5.0,
                reindex_backlog: usize::MAX,
                ..Default::default()
            });
            let mut truth = Vec::new();
            let horizon = 60;
            for sec in 0..horizon {
                let t = Timestamp::from_secs(sec);
                for k in 0..fps {
                    let id = sec * 1000 + k;
                    truth.push(FileId::new(id));
                    e.notify(rec(id), t);
                }
            }
            let t_end = Timestamp::from_secs(horizon);
            recall(&e.query(&pred(), t_end), &truth)
        };
        let slow = run(2);
        let fast = run(20);
        assert!(slow > fast, "2 FPS recall {slow} should beat 20 FPS recall {fast}");
    }

    #[test]
    fn recall_of_empty_truth_is_one() {
        assert_eq!(recall(&[], &[]), 1.0);
        assert_eq!(recall(&[FileId::new(1)], &[]), 1.0);
    }

    #[test]
    fn supported_is_deterministic() {
        let e = SpotlightEngine::new(SpotlightConfig::default());
        for i in 0..100 {
            assert_eq!(e.supported(FileId::new(i)), e.supported(FileId::new(i)));
        }
    }
}
