//! Exponential-histogram counters for sliding-window counts.
//!
//! One [`ExpHistogram`] approximates "how many events fell in the window
//! `(now - W, now]`" from a bounded list of time-stamped buckets (Datar,
//! Gionis, Indyk, Motwani). Buckets are kept time-sorted, oldest first,
//! under the invariant that every bucket produced by a merge counts at
//! most `max(2, S/k)` events, where `S` is the number of strictly newer
//! events — so the straddling oldest bucket can misattribute at most
//! `1 + S/(2k)` events, a relative error of `~1/(2k)` plus one event.
//!
//! Storage is preallocated at construction (`cap ≈ 2k·34` buckets, enough
//! for canonical histograms up to ~e³³ events), so steady-state
//! [`ExpHistogram::insert`] never touches the heap: when the buffer
//! fills, an in-place compress pass restores the invariant. Only
//! [`ExpHistogram::merge_from`] allocates (a merge scratch), and merges
//! happen at the notification cadence, not on the ingest hot path.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// One bucket: `count` events, the newest of which arrived at `end_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    count: u64,
    end_ms: u64,
}

/// Preallocated bucket slots per `k`: supports canonical histograms of up
/// to `~2k·ln(N)` buckets for any realistic window population `N`.
const LEVEL_SLOTS: usize = 34;

/// A sliding-window event counter with bounded memory and `~1/(2k)`
/// relative error.
#[derive(Debug)]
pub struct ExpHistogram {
    /// Inverse relative-error knob: larger `k`, more buckets, less error.
    k: u64,
    /// Window width in milliseconds; the window is `(now - W, now]`.
    window_ms: u64,
    /// Compress trigger; the bucket vector is preallocated to this.
    cap: usize,
    /// Time-sorted buckets, oldest first.
    buckets: Vec<Bucket>,
}

impl Clone for ExpHistogram {
    /// Clones preserve the *capacity*, not just the contents: a derived
    /// clone would start the copy with `len`-sized storage (Vec::clone
    /// allocates exactly `len`), and the first inserts into a cloned
    /// sketch replica would regrow it — breaking the zero-alloc ingest
    /// contract for every histogram built via `vec![cell; n]`.
    // A clone constructs the copy's buckets once — replica setup and merge cadence, never the steady-state tick.
    fn clone(&self) -> Self {
        let mut buckets = Vec::with_capacity(self.cap.max(self.buckets.len()));
        buckets.extend_from_slice(&self.buckets);
        ExpHistogram { k: self.k, window_ms: self.window_ms, cap: self.cap, buckets }
    }
}

impl ExpHistogram {
    /// New empty counter for a `window_ms` sliding window with inverse
    /// error knob `k` (relative error `~1/(2k)` plus one event).
    pub fn new(k: u64, window_ms: u64) -> Self {
        let k = k.max(1);
        let cap = 2 * (k as usize) * LEVEL_SLOTS + 4;
        ExpHistogram { k, window_ms, cap, buckets: Vec::with_capacity(cap) }
    }

    /// The window width this counter answers for.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }

    /// The inverse error knob `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Number of live (possibly expired-but-unreclaimed) buckets.
    pub fn buckets_len(&self) -> usize {
        self.buckets.len()
    }

    /// Records one event at `at_ms`. Timestamps must be non-decreasing
    /// across calls (a late timestamp is clamped forward to the newest
    /// seen, erring toward keeping the event in the window longer).
    #[inline]
    pub fn insert(&mut self, at_ms: u64) {
        let at_ms = match self.buckets.last() {
            Some(b) => at_ms.max(b.end_ms),
            None => at_ms,
        };
        if self.buckets.len() >= self.cap {
            self.compress(at_ms);
            debug_assert!(
                self.buckets.len() < self.cap,
                "compress must free bucket slots (k={}, cap={})",
                self.k,
                self.cap
            );
        }
        self.buckets.push(Bucket { count: 1, end_ms: at_ms });
    }

    /// Drops expired buckets and re-merges the rest in place, restoring
    /// the `count ≤ max(2, S/k)` invariant with as few buckets as the
    /// greedy right-to-left pass allows. `O(len)`.
    fn compress(&mut self, now_ms: u64) {
        self.drop_expired(now_ms);
        let len = self.buckets.len();
        if len < 2 {
            return;
        }
        // Right-aligned rewrite: walk from the newest bucket toward the
        // oldest, folding each older bucket into the pending one whenever
        // the combined count keeps the invariant; flushed buckets land
        // right-aligned at `write`, and the leftover hole is drained once.
        let mut write = len;
        let mut newer_sum: u64 = 0; // events strictly newer than `pending`
        let mut pending = self.buckets[len - 1];
        let mut read = len - 1;
        while read > 0 {
            read -= 1;
            let older = self.buckets[read];
            let combined = older.count + pending.count;
            if combined <= 2.max(newer_sum / self.k) {
                // Keep the newer end time: the merged bucket errs toward
                // staying in the window, like the classic EH carry.
                pending = Bucket { count: combined, end_ms: pending.end_ms };
            } else {
                write -= 1;
                self.buckets[write] = pending;
                newer_sum += pending.count;
                pending = older;
            }
        }
        write -= 1;
        self.buckets[write] = pending;
        self.buckets.drain(..write);
    }

    /// Estimated number of events in `(now_ms - W, now_ms]`.
    ///
    /// Sums the unexpired buckets, counting the oldest one half — it may
    /// straddle the window edge — unless it is a unit bucket, whose end
    /// time pins it inside the window exactly. Non-mutating; expired
    /// buckets are skipped, not reclaimed.
    pub fn estimate(&self, now_ms: u64) -> f64 {
        let cutoff = now_ms as i64 - self.window_ms as i64;
        let live_from = self.buckets.partition_point(|b| (b.end_ms as i64) <= cutoff);
        let live = &self.buckets[live_from..];
        let (oldest, rest) = match live.split_first() {
            Some(split) => split,
            None => return 0.0,
        };
        let newer: u64 = rest.iter().map(|b| b.count).sum();
        let edge = if oldest.count > 1 { oldest.count as f64 / 2.0 } else { 1.0 };
        newer as f64 + edge
    }

    /// Worst-case additive error of [`Self::estimate`] against the exact
    /// window count `N`: `1 + N/(2k)`.
    pub fn error_bound(&self, window_count: f64) -> f64 {
        1.0 + window_count / (2.0 * self.k as f64)
    }

    /// True if no unexpired bucket remains at `now_ms`.
    pub fn is_empty_at(&self, now_ms: u64) -> bool {
        let cutoff = now_ms as i64 - self.window_ms as i64;
        self.buckets.iter().all(|b| (b.end_ms as i64) <= cutoff)
    }

    /// Folds `other`'s buckets into `self` (same `k` and window
    /// required). Allocates a merge scratch — notification-cadence only,
    /// never the ingest path.
    ///
    /// Buckets from the two lineages are interleaved by end time but NOT
    /// re-merged (unless the union overflows capacity): keeping each
    /// lineage's buckets intact means each contributes at most its own
    /// single straddling bucket, so a merge of `C` histograms errs by at
    /// most `C + N/(2k)` — the relative part does not grow.
    ///
    /// # Panics
    /// If the two histograms have different `k` or window widths.
    pub fn merge_from(&mut self, other: &ExpHistogram, now_ms: u64) {
        assert_eq!(self.k, other.k, "cannot merge histograms with different k");
        assert_eq!(self.window_ms, other.window_ms, "cannot merge different windows");
        if other.buckets.is_empty() {
            self.drop_expired(now_ms);
            return;
        }
        let mut merged: Vec<Bucket> = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    // Tie-break equal end times by count so the merged
                    // bucket list depends only on the *multiset* of input
                    // buckets — merging is then exactly commutative and
                    // associative, not just within-bound.
                    if x.end_ms < y.end_ms || (x.end_ms == y.end_ms && x.count <= y.count) {
                        merged.push(**x);
                        a.next();
                    } else {
                        merged.push(**y);
                        b.next();
                    }
                }
                (Some(x), None) => {
                    merged.push(**x);
                    a.next();
                }
                (None, Some(y)) => {
                    merged.push(**y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.drop_expired(now_ms);
        if self.buckets.len() > self.cap {
            // Overflow fallback: re-canonicalize across lineages. This can
            // combine straddle-able buckets and so costs a little extra
            // absolute slack, but it is unreachable at the fan-ins the
            // middleware merges (per-node bucket lists are far below cap).
            self.compress(now_ms);
        }
        self.buckets.reserve(self.cap.saturating_sub(self.buckets.len()));
    }

    /// Drops the expired prefix of the time-sorted bucket list.
    fn drop_expired(&mut self, now_ms: u64) {
        let cutoff = now_ms as i64 - self.window_ms as i64;
        let live_from = self.buckets.partition_point(|b| (b.end_ms as i64) <= cutoff);
        self.buckets.drain(..live_from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force sliding-window reference.
    fn exact(times: &[u64], window: u64, now: u64) -> u64 {
        times.iter().filter(|&&t| (t as i64) > now as i64 - window as i64 && t <= now).count()
            as u64
    }

    #[test]
    fn unit_history_is_exact() {
        // Few events, no merges forced: the estimate should be exact.
        let mut eh = ExpHistogram::new(4, 1000);
        let times = [10u64, 20, 400, 990, 1000];
        for &t in &times {
            eh.insert(t);
        }
        for now in [1000u64, 1010, 1400, 2500] {
            assert_eq!(eh.estimate(now), exact(&times, 1000, now) as f64, "now={now}");
        }
    }

    #[test]
    fn long_history_stays_within_bound_and_capacity() {
        let window = 10_000u64;
        for k in [1u64, 2, 5, 16] {
            let mut eh = ExpHistogram::new(k, window);
            let cap = eh.cap;
            let mut times = Vec::new();
            for i in 0..50_000u64 {
                let t = i * 3;
                eh.insert(t);
                times.push(t);
                assert!(eh.buckets_len() <= cap, "k={k}: bucket list exceeded capacity");
            }
            let now = 50_000 * 3;
            let n = exact(&times, window, now) as f64;
            let err = (eh.estimate(now) - n).abs();
            assert!(
                err <= eh.error_bound(n) + 1e-9,
                "k={k}: error {err} > bound {} (n={n})",
                eh.error_bound(n)
            );
        }
    }

    #[test]
    fn everything_expires() {
        let mut eh = ExpHistogram::new(3, 100);
        for t in 0..500u64 {
            eh.insert(t);
        }
        assert!(eh.estimate(10_000) == 0.0);
        assert!(eh.is_empty_at(10_000));
    }

    #[test]
    fn merge_matches_union_within_bound() {
        let window = 5_000u64;
        let k = 8u64;
        let mut a = ExpHistogram::new(k, window);
        let mut b = ExpHistogram::new(k, window);
        let mut union = Vec::new();
        for i in 0..4_000u64 {
            let t = i * 2;
            if i % 3 == 0 {
                a.insert(t);
            } else {
                b.insert(t);
            }
            union.push(t);
        }
        let now = 8_000u64;
        a.merge_from(&b, now);
        let n = exact(&union, window, now) as f64;
        let err = (a.estimate(now) - n).abs();
        // One compress over the union: same invariant, same bound shape;
        // allow both halves' straddling slack.
        assert!(err <= 2.0 * a.error_bound(n), "merged error {err} vs n={n}");
    }

    #[test]
    fn merge_requires_compatible_shape() {
        let a = ExpHistogram::new(4, 1000);
        let b = ExpHistogram::new(5, 1000);
        let result = std::panic::catch_unwind(move || {
            let mut a = a;
            a.merge_from(&b, 0);
        });
        assert!(result.is_err(), "k mismatch must panic");
    }

    #[test]
    fn clones_preserve_preallocated_capacity() {
        // A derived Vec clone would size the copy to `len`, and cloned
        // replicas (every grid cell built via `vec![cell; n]`) would
        // regrow on their first inserts — on the ingest hot path.
        let mut eh = ExpHistogram::new(5, 5_000);
        for t in 0..10u64 {
            eh.insert(t * 100);
        }
        let clone = eh.clone();
        assert_eq!(clone.buckets, eh.buckets, "clone must copy contents");
        assert!(
            clone.buckets.capacity() >= clone.cap,
            "clone must preallocate the compress-trigger capacity"
        );
        let vec_cap = {
            let mut c = clone;
            let cap0 = c.buckets.capacity();
            for t in 0..200_000u64 {
                c.insert(t);
            }
            assert_eq!(c.buckets.capacity(), cap0, "cloned histogram must never regrow");
            cap0
        };
        assert!(vec_cap >= eh.cap);
    }

    #[test]
    fn inserts_after_fill_do_not_allocate_beyond_capacity() {
        let mut eh = ExpHistogram::new(2, 1_000);
        let vec_cap = eh.buckets.capacity();
        for t in 0..200_000u64 {
            eh.insert(t);
        }
        assert_eq!(eh.buckets.capacity(), vec_cap, "steady-state insert must never regrow");
    }
}
