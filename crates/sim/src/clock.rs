//! Virtual and wall clocks behind one trait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use propeller_types::{Duration, Timestamp};

/// A source of time.
///
/// Library code that needs to *observe* time takes a `&dyn Clock` (or a
/// concrete clock) so the same code runs on the wall clock or on a
/// [`SimClock`] that only its owner advances (tests, commit-timeout
/// experiments).
pub trait Clock: Send + Sync {
    /// The current time.
    fn now(&self) -> Timestamp;
}

/// A shareable, thread-safe virtual clock.
///
/// Cloning a `SimClock` yields a handle to the *same* clock; all clones
/// observe the same time (smart-pointer semantics like `Arc`).
///
/// # Examples
///
/// ```
/// use propeller_sim::SimClock;
/// use propeller_types::{Duration, Timestamp};
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance(Duration::from_millis(5));
/// assert_eq!(view.now(), Timestamp::from_micros(5_000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a virtual clock at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Creates a virtual clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        let clock = SimClock::new();
        clock.micros.store(t.as_micros(), Ordering::SeqCst);
        clock
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.micros.load(Ordering::SeqCst))
    }

    /// Advances virtual time by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Timestamp {
        let new = self.micros.fetch_add(d.as_micros(), Ordering::SeqCst) + d.as_micros();
        Timestamp::from_micros(new)
    }

    /// Advances virtual time to `t` if `t` is in the future; never moves the
    /// clock backwards. Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: Timestamp) -> Timestamp {
        let target = t.as_micros();
        let mut cur = self.micros.load(Ordering::SeqCst);
        while cur < target {
            match self.micros.compare_exchange_weak(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
        Timestamp::from_micros(cur)
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        SimClock::now(self)
    }
}

/// The real (monotonic) wall clock, reported relative to the clock's
/// creation instant.
///
/// # Examples
///
/// ```
/// use propeller_sim::{Clock, WallClock};
///
/// let clock = WallClock::new();
/// let t0 = clock.now();
/// let t1 = clock.now();
/// assert!(t1 >= t0);
/// ```
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Creates a wall clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp::EPOCH);
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Timestamp::from_secs(1));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_millis(10));
        assert_eq!(b.now(), Timestamp::from_micros(10_000));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::starting_at(Timestamp::from_secs(100));
        c.advance_to(Timestamp::from_secs(50));
        assert_eq!(c.now(), Timestamp::from_secs(100));
        c.advance_to(Timestamp::from_secs(200));
        assert_eq!(c.now(), Timestamp::from_secs(200));
    }

    #[test]
    fn concurrent_advances_accumulate() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_micros(1));
                    }
                });
            }
        });
        assert_eq!(c.now(), Timestamp::from_micros(4000));
    }
}
