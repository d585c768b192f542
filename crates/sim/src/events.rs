//! A deterministic discrete-event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use propeller_types::Timestamp;

struct Scheduled<E> {
    at: Timestamp,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion order for determinism.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-ordered event queue keyed by [`Timestamp`], with FIFO tie-breaking.
///
/// The queue is the scheduler of a discrete-event run: workload generators
/// schedule operations, the driver pops them in time order and advances a
/// [`crate::SimClock`] to each.
///
/// # Examples
///
/// ```
/// use propeller_sim::EventQueue;
/// use propeller_types::Timestamp;
///
/// let mut q = EventQueue::new();
/// q.schedule(Timestamp::from_secs(3), 'c');
/// q.schedule(Timestamp::from_secs(1), 'a');
/// q.schedule(Timestamp::from_secs(1), 'b'); // same time: FIFO
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` to fire at time `at`.
    pub fn schedule(&mut self, at: Timestamp, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Timestamp::from_secs(5), 5);
        q.schedule(Timestamp::from_secs(1), 1);
        q.schedule(Timestamp::from_secs(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Timestamp::from_secs(2), ());
        q.schedule(Timestamp::from_secs(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(1)));
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
