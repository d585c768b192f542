//! Latency distributions for injected delays.

use propeller_types::Duration;
use rand::Rng;

/// A distribution of latencies, sampled per delivery by injected node
/// slowdowns.
///
/// # Examples
///
/// ```
/// use propeller_sim::{seeded_rng, Latency};
/// use propeller_types::Duration;
///
/// let mut rng = seeded_rng(7);
/// let fixed = Latency::constant(Duration::from_micros(120));
/// assert_eq!(fixed.sample(&mut rng), Duration::from_micros(120));
///
/// let jittered = Latency::uniform(Duration::from_micros(50), Duration::from_micros(150));
/// let d = jittered.sample(&mut rng);
/// assert!(d >= Duration::from_micros(50) && d < Duration::from_micros(150));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Always the same latency.
    Constant(Duration),
    /// Uniform over `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: Duration,
        /// Exclusive upper bound.
        high: Duration,
    },
    /// Exponential with the given mean (memoryless queueing-style jitter).
    Exponential {
        /// Mean of the distribution.
        mean: Duration,
    },
}

impl Latency {
    /// A constant latency.
    pub fn constant(d: Duration) -> Self {
        Latency::Constant(d)
    }

    /// A uniform latency over `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn uniform(low: Duration, high: Duration) -> Self {
        assert!(low <= high, "uniform latency requires low <= high");
        Latency::Uniform { low, high }
    }

    /// An exponential latency with mean `mean`.
    pub fn exponential(mean: Duration) -> Self {
        Latency::Exponential { mean }
    }

    /// The zero latency (useful to disable a cost component).
    pub fn zero() -> Self {
        Latency::Constant(Duration::ZERO)
    }

    /// Samples one latency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match *self {
            Latency::Constant(d) => d,
            Latency::Uniform { low, high } => {
                if low == high {
                    low
                } else {
                    Duration::from_micros(rng.gen_range(low.as_micros()..high.as_micros()))
                }
            }
            Latency::Exponential { mean } => {
                // Inverse-CDF sampling; clamp the uniform away from 0 so ln()
                // stays finite.
                let u: f64 = rng.gen_range(1e-12..1.0);
                Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
            }
        }
    }

    /// The mean of the distribution (exact, no sampling).
    pub fn mean(&self) -> Duration {
        match *self {
            Latency::Constant(d) => d,
            Latency::Uniform { low, high } => (low + high) / 2,
            Latency::Exponential { mean } => mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    #[test]
    fn constant_is_constant() {
        let mut rng = seeded_rng(1);
        let l = Latency::constant(Duration::from_millis(2));
        for _ in 0..10 {
            assert_eq!(l.sample(&mut rng), Duration::from_millis(2));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = seeded_rng(2);
        let low = Duration::from_micros(10);
        let high = Duration::from_micros(20);
        let l = Latency::uniform(low, high);
        for _ in 0..1000 {
            let d = l.sample(&mut rng);
            assert!(d >= low && d < high);
        }
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let mut rng = seeded_rng(3);
        let d = Duration::from_micros(5);
        assert_eq!(Latency::uniform(d, d).sample(&mut rng), d);
    }

    #[test]
    fn exponential_mean_approximately_correct() {
        let mut rng = seeded_rng(4);
        let mean = Duration::from_micros(1000);
        let l = Latency::exponential(mean);
        let n = 20_000;
        let total: Duration = (0..n).map(|_| l.sample(&mut rng)).sum();
        let observed = total.as_micros() as f64 / n as f64;
        assert!((observed - 1000.0).abs() < 50.0, "observed mean {observed}");
    }

    #[test]
    fn mean_is_exact() {
        assert_eq!(
            Latency::uniform(Duration::from_micros(10), Duration::from_micros(30)).mean(),
            Duration::from_micros(20)
        );
        assert_eq!(Latency::zero().mean(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "low <= high")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Latency::uniform(Duration::from_micros(2), Duration::from_micros(1));
    }
}
