//! Estimators the timing rules rest on: nearest-rank percentiles, the
//! per-op best-of-R envelope, span self time and the result digest.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1).
///
/// # Panics
///
/// Panics on an empty slice: a statistic over no samples is a bug in the
/// workload, not a value to report.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean, p50 and p99 of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: percentile(&sorted, 0.50),
            p99: percentile(&sorted, 0.99),
        }
    }
}

/// The lower envelope of R replays of the same N ops: op `i`'s latency is
/// the fastest of its R samples. Interference on a shared host only ever
/// adds time, so the minimum is the estimator closest to the program's
/// own cost.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    rounds: usize,
}

impl BestOf {
    pub fn new(ops: usize) -> BestOf {
        BestOf { best: vec![f64::INFINITY; ops], rounds: 0 }
    }

    /// Folds one round's per-op samples in.
    ///
    /// # Panics
    ///
    /// Panics if the round is not over the same ops.
    pub fn absorb(&mut self, round: &[f64]) {
        assert_eq!(round.len(), self.best.len(), "every round replays the same ops");
        for (best, &sample) in self.best.iter_mut().zip(round) {
            *best = best.min(sample);
        }
        self.rounds += 1;
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    pub fn values(&self) -> &[f64] {
        &self.best
    }
}

/// Slowest ÷ fastest of per-round totals — the host-noise indicator that
/// is printed with every run.
pub fn round_spread(round_totals: &[f64]) -> f64 {
    let fastest = round_totals.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = round_totals.iter().copied().fold(0.0, f64::max);
    if fastest > 0.0 && fastest.is_finite() {
        slowest / fastest
    } else {
        1.0
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (parallel fan-out)
/// and may outlast the parent (a hedge loser), so their intervals are
/// clipped to the parent and merged before being subtracted.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// FNV-1a over the ids a round returned: rounds of the same ops against
/// the same state must agree, or the run is not measuring what it thinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, which is the
/// rule the repeatability criterion is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| -> f64 {
        if n == 1 {
            return sorted[0];
        }
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1 000 samples leave exactly ten beyond p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn summary_of_a_small_set() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, Summary { mean: 2.5, p50: 2.0, p99: 4.0 });
    }

    #[test]
    fn best_of_keeps_each_ops_fastest_sample() {
        let mut b = BestOf::new(3);
        b.absorb(&[5.0, 2.0, 9.0]);
        b.absorb(&[4.0, 3.0, 9.5]);
        b.absorb(&[6.0, 2.5, 8.0]);
        assert_eq!(b.values(), &[4.0, 2.0, 8.0]);
        assert_eq!(b.rounds(), 3);
    }

    #[test]
    fn round_spread_is_slowest_over_fastest() {
        assert_eq!(round_spread(&[2.0, 3.0, 2.5]), 1.5);
        assert_eq!(round_spread(&[]), 1.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((10, 110), &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time((10, 110), &[(20, 40), (60, 90)]), 50);
        // Overlapping children count once: [20,70) covers 50.
        assert_eq!(self_time((10, 110), &[(20, 50), (40, 70)]), 50);
        // A child that outlasts the parent is clipped to it.
        assert_eq!(self_time((10, 110), &[(100, 300)]), 90);
        // A child entirely outside covers nothing; a nested one adds nothing.
        assert_eq!(self_time((10, 110), &[(200, 300), (20, 100), (30, 40)]), 20);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        let mut c = Digest::default();
        for w in [1, 2, 3] {
            a.push(w);
        }
        for w in [1, 2, 3] {
            b.push(w);
        }
        for w in [3, 2, 1] {
            c.push(w);
        }
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, Digest::default());
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    }
}
