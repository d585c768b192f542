//! The lazy index cache (paper §IV "Index Node").
//!
//! Index Nodes "aggressively cache the file-indexing requests": each
//! request is appended to the WAL and buffered in memory, and the buffer is
//! committed to the actual indices only when (1) a timeout expires (paper
//! default 5 s) or (2) a search request arrives — whichever happens first.
//! This hides index-maintenance latency from the I/O critical path while
//! preserving search consistency.

use propeller_types::{Duration, Timestamp};

use crate::ops::IndexOp;

/// A commit-deferral buffer for [`IndexOp`]s.
///
/// The cache never applies operations itself — callers drain it (on
/// timeout or before a search) and apply the drained batch to the indices.
///
/// # Examples
///
/// ```
/// use propeller_index::{IndexCache, IndexOp};
/// use propeller_types::{Duration, FileId, Timestamp};
///
/// let mut cache = IndexCache::new(Duration::from_secs(5));
/// let t0 = Timestamp::from_secs(100);
/// cache.push(IndexOp::Remove(FileId::new(1)), t0);
///
/// assert!(!cache.timed_out(t0 + Duration::from_secs(3)));
/// assert!(cache.timed_out(t0 + Duration::from_secs(6)));
/// let batch = cache.drain(t0 + Duration::from_secs(6));
/// assert_eq!(batch.len(), 1);
/// assert!(cache.is_empty());
/// ```
#[derive(Debug)]
pub struct IndexCache {
    pending: Vec<IndexOp>,
    timeout: Duration,
    /// Time of the first op in the current batch (timeouts run from the
    /// oldest uncommitted request, bounding its staleness).
    oldest: Option<Timestamp>,
    /// Total ops ever drained (statistics).
    drained_ops: u64,
    /// Number of drain calls that returned a non-empty batch.
    commits: u64,
}

impl IndexCache {
    /// Creates a cache with the given commit timeout.
    pub fn new(timeout: Duration) -> Self {
        IndexCache { pending: Vec::new(), timeout, oldest: None, drained_ops: 0, commits: 0 }
    }

    /// The configured commit timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Buffers an operation observed at `now`.
    pub fn push(&mut self, op: IndexOp, now: Timestamp) {
        self.push_batch(vec![op], now);
    }

    /// Buffers a whole batch observed at `now` — the cache half of WAL
    /// group commit (the owning group logged the batch as one frame).
    pub fn push_batch(&mut self, ops: Vec<IndexOp>, now: Timestamp) {
        if ops.is_empty() {
            return;
        }
        if self.pending.is_empty() {
            self.oldest = Some(now);
        }
        self.pending.extend(ops);
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// The buffered operations, oldest first (read-only; draining goes
    /// through [`IndexCache::drain`]). Lets the owning group project what
    /// committing would change — e.g. the net file-count effect reported
    /// in heartbeats — without consuming the batch.
    pub fn pending(&self) -> &[IndexOp] {
        &self.pending
    }

    /// Returns `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether the oldest buffered op has waited at least the timeout.
    pub fn timed_out(&self, now: Timestamp) -> bool {
        self.oldest.is_some_and(|t0| now.since(t0) >= self.timeout)
    }

    /// Drains all buffered operations (commit point). Callers apply the
    /// returned batch to the indices and then truncate the WAL.
    pub fn drain(&mut self, _now: Timestamp) -> Vec<IndexOp> {
        self.oldest = None;
        if !self.pending.is_empty() {
            self.commits += 1;
            self.drained_ops += self.pending.len() as u64;
        }
        std::mem::take(&mut self.pending)
    }

    /// Total operations drained over the cache's lifetime.
    pub fn drained_ops(&self) -> u64 {
        self.drained_ops
    }

    /// Number of non-empty commits over the cache's lifetime.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_types::FileId;

    fn op(i: u64) -> IndexOp {
        IndexOp::Remove(FileId::new(i))
    }

    #[test]
    fn timeout_runs_from_oldest_op() {
        let mut c = IndexCache::new(Duration::from_secs(5));
        let t0 = Timestamp::from_secs(0);
        c.push(op(1), t0);
        c.push(op(2), t0 + Duration::from_secs(4));
        // 5s after the *first* op, even though the second is younger.
        assert!(c.timed_out(t0 + Duration::from_secs(5)));
    }

    #[test]
    fn empty_cache_never_times_out() {
        let c = IndexCache::new(Duration::from_secs(5));
        assert!(!c.timed_out(Timestamp::from_secs(1_000_000)));
    }

    #[test]
    fn drain_resets_clock_and_counts() {
        let mut c = IndexCache::new(Duration::from_secs(5));
        let t0 = Timestamp::from_secs(0);
        c.push(op(1), t0);
        c.push(op(2), t0);
        let batch = c.drain(t0 + Duration::from_secs(1));
        assert_eq!(batch.len(), 2);
        assert!(c.is_empty());
        assert!(!c.timed_out(t0 + Duration::from_secs(100)));
        assert_eq!(c.commit_count(), 1);
        assert_eq!(c.drained_ops(), 2);
    }

    #[test]
    fn empty_drain_is_not_a_commit() {
        let mut c = IndexCache::new(Duration::from_secs(5));
        assert!(c.drain(Timestamp::EPOCH).is_empty());
        assert_eq!(c.commit_count(), 0);
    }

    #[test]
    fn batch_preserves_op_order() {
        let mut c = IndexCache::new(Duration::from_secs(1));
        let t = Timestamp::EPOCH;
        for i in 0..10 {
            c.push(op(i), t);
        }
        let batch = c.drain(t);
        let ids: Vec<u64> = batch.iter().map(|o| o.file().raw()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }
}
