//! Fixed-capacity ring-buffer sliding window (the paper's "most recent `w`
//! values of each stream").

use serde::{Deserialize, Serialize};

/// A sliding window over the last `capacity` values of a stream.
///
/// Until the window fills, [`SlidingWindow::is_full`] is false and feature
/// extraction is not yet meaningful; after that, every push evicts the oldest
/// value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    buf: Vec<f64>,
    head: usize,
    len: usize,
}

impl SlidingWindow {
    /// Creates an empty window holding up to `capacity` values.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow { buf: vec![0.0; capacity], head: 0, len: 0 }
    }

    /// Window capacity `w`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of values currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values have been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True once `capacity` values have been pushed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Pushes a new value, returning the evicted oldest value if the window
    /// was already full.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let cap = self.buf.len();
        if self.len < cap {
            let idx = (self.head + self.len) % cap;
            self.buf[idx] = value;
            self.len += 1;
            None
        } else {
            let old = self.buf[self.head];
            self.buf[self.head] = value;
            self.head = (self.head + 1) % cap;
            Some(old)
        }
    }

    /// The oldest value in the window.
    pub fn front(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.buf[self.head])
        }
    }

    /// The most recent value in the window.
    pub fn back(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.buf[(self.head + self.len - 1) % self.buf.len()])
        }
    }

    /// Value at logical position `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<f64> {
        if i < self.len {
            Some(self.buf[(self.head + i) % self.buf.len()])
        } else {
            None
        }
    }

    /// Copies the window contents, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len).map(|i| self.get(i).unwrap()).collect()
    }

    /// Iterates oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| self.get(i).unwrap())
    }

    /// The window contents as two borrowed runs of the ring buffer: the
    /// first run followed by the second is oldest-to-newest, the same
    /// sequence as [`SlidingWindow::to_vec`], without copying.
    pub fn as_slices(&self) -> (&[f64], &[f64]) {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (&self.buf[self.head..end], &[])
        } else {
            (&self.buf[self.head..], &self.buf[..end - self.buf.len()])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert!(!w.is_full());
        assert_eq!(w.push(3.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(4.0), Some(1.0));
        assert_eq!(w.push(5.0), Some(2.0));
        assert_eq!(w.to_vec(), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn front_back_get() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.front(), None);
        assert_eq!(w.back(), None);
        for i in 0..6 {
            w.push(i as f64);
        }
        assert_eq!(w.front(), Some(2.0));
        assert_eq!(w.back(), Some(5.0));
        assert_eq!(w.get(1), Some(3.0));
        assert_eq!(w.get(4), None);
    }

    #[test]
    fn iter_matches_to_vec() {
        let mut w = SlidingWindow::new(5);
        for i in 0..13 {
            w.push(i as f64 * 1.5);
        }
        let v: Vec<f64> = w.iter().collect();
        assert_eq!(v, w.to_vec());
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn as_slices_concatenate_oldest_first() {
        let mut w = SlidingWindow::new(5);
        assert_eq!(w.as_slices(), (&[][..], &[][..]));
        for i in 0..13 {
            w.push(i as f64);
            let (a, b) = w.as_slices();
            assert_eq!([a, b].concat(), w.to_vec(), "after {} pushes", i + 1);
        }
        // 13 pushes into 5 slots: head = 3, so the run wraps.
        let (a, b) = w.as_slices();
        assert_eq!(a, &[8.0, 9.0]);
        assert_eq!(b, &[10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn long_wraparound_is_consistent() {
        let mut w = SlidingWindow::new(7);
        for i in 0..1000u32 {
            w.push(i as f64);
        }
        assert_eq!(w.to_vec(), (993..1000).map(|i| i as f64).collect::<Vec<_>>());
    }
}
