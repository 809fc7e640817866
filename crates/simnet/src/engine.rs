//! The discrete-event engine.
//!
//! A binary-heap priority queue of `(time, seq, event)` with stable FIFO
//! tie-breaking. The event type is a caller-supplied enum; the caller's
//! handler receives `(&mut Engine, &mut State, time, event)` and schedules
//! follow-up events, which keeps the engine free of any domain knowledge
//! (this mirrors the "timed events on all nodes" replay of the Chord
//! simulator the paper used).

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Scheduled<E> {
    at: SimTime,
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
        // BinaryHeap is a max-heap: invert so the earliest event pops first,
        // breaking ties by insertion order.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event scheduler over events of type `E`.
pub struct Engine<E> {
    clock: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    seq: u64,
    processed: u64,
    tick_log: Option<TickLog>,
}

/// Bounded log of dispatched events: `(sim_time_ms, dispatch_seq)` pairs,
/// ring-evicted past `capacity`. Feeds the `engine` lane of the
/// chrome://tracing export (see `dsi-trace`), giving timelines a scheduler
/// track to correlate overlay hops against. Disabled by default —
/// dispatch pays nothing but a `None` check.
#[derive(Debug, Clone)]
struct TickLog {
    capacity: usize,
    ticks: VecDeque<(u64, u64)>,
    dropped: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            processed: 0,
            tick_log: None,
        }
    }

    /// Start logging every dispatched event as a `(time_ms, seq)` tick into
    /// a ring buffer of at most `capacity` entries (oldest evicted first).
    pub fn enable_tick_log(&mut self, capacity: usize) {
        self.tick_log =
            Some(TickLog { capacity: capacity.max(1), ticks: VecDeque::new(), dropped: 0 });
    }

    /// Dispatched-event ticks captured so far (empty when logging is off).
    pub fn tick_log(&self) -> Vec<(u64, u64)> {
        self.tick_log.as_ref().map_or_else(Vec::new, |l| l.ticks.iter().copied().collect())
    }

    /// Ticks evicted by the ring bound since logging was enabled.
    pub fn ticks_dropped(&self) -> u64 {
        self.tick_log.as_ref().map_or(0, |l| l.dropped)
    }

    #[inline]
    fn log_tick(&mut self, at: SimTime) {
        if let Some(log) = &mut self.tick_log {
            if log.ticks.len() == log.capacity {
                log.ticks.pop_front();
                log.dropped += 1;
            }
            log.ticks.push_back((at.as_ms(), self.processed));
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.clock, "cannot schedule into the past ({at} < {})", self.clock);
        self.queue.push(Scheduled { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Schedules `event` `delay_ms` after the current time.
    pub fn schedule_after(&mut self, delay_ms: u64, event: E) {
        let at = self.clock + delay_ms;
        self.queue.push(Scheduled { at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Runs until the queue drains or the clock would pass `until`
    /// (events at exactly `until` still fire). The handler may schedule
    /// more events on the engine it is handed.
    pub fn run_until<S, F>(&mut self, state: &mut S, until: SimTime, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, &mut S, SimTime, E),
    {
        while let Some(next) = self.queue.peek() {
            if next.at > until {
                break;
            }
            #[expect(clippy::expect_used, reason = "peek above proves the heap is non-empty")]
            let Scheduled { at, event, .. } = self.queue.pop().expect("peeked");
            self.clock = at;
            self.processed += 1;
            self.log_tick(at);
            handler(self, state, at, event);
        }
        if self.clock < until {
            self.clock = until;
        }
    }

    /// Pops a single event (advancing the clock), if any.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let Scheduled { at, event, .. } = self.queue.pop()?;
        self.clock = at;
        self.processed += 1;
        self.log_tick(at);
        Some((at, event))
    }
}

/// A deterministic holding pen for delayed messages: items parked with a
/// due time, drained in `(due_time, insertion_order)` order once the clock
/// reaches them.
///
/// This is the re-delivery half of [`crate::faults::FaultOutcome::Delay`]:
/// the fault layer parks the message here instead of delivering it, and the
/// driver drains the queue at each tick so a message delayed at period *n*
/// re-delivers at period *n + 1*. Items carry no ordering requirements of
/// their own — FIFO among equal due times keeps replays byte-identical.
pub struct DelayQueue<M> {
    heap: BinaryHeap<Scheduled<M>>,
    seq: u64,
}

impl<M> Default for DelayQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> DelayQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DelayQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Number of parked items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Parks `item` until the clock reaches `due`.
    pub fn push(&mut self, due: SimTime, item: M) {
        self.heap.push(Scheduled { at: due, seq: self.seq, event: item });
        self.seq += 1;
    }

    /// Due time of the earliest parked item, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Removes and returns every item whose due time is `<= now`, earliest
    /// first, FIFO among ties.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<M> {
        let mut out = Vec::new();
        while self.heap.peek().is_some_and(|s| s.at <= now) {
            #[expect(clippy::expect_used, reason = "peek above proves the heap is non-empty")]
            out.push(self.heap.pop().expect("peeked").event);
        }
        out
    }

    /// Drops every parked item for which `keep` returns false (e.g. items
    /// addressed to a node that has since crashed). Due times and insertion
    /// order of survivors are preserved.
    pub fn retain(&mut self, mut keep: impl FnMut(&M) -> bool) {
        let survivors: Vec<Scheduled<M>> = self.heap.drain().filter(|s| keep(&s.event)).collect();
        self.heap = survivors.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn fires_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ms(30), Ev::Tick(3));
        eng.schedule_at(SimTime::from_ms(10), Ev::Tick(1));
        eng.schedule_at(SimTime::from_ms(20), Ev::Tick(2));
        let mut seen = Vec::new();
        eng.run_until(&mut seen, SimTime::from_secs(1), |_, seen, t, ev| {
            if let Ev::Tick(n) = ev {
                seen.push((t.as_ms(), n));
            }
        });
        assert_eq!(seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng = Engine::new();
        for i in 0..5 {
            eng.schedule_at(SimTime::from_ms(7), Ev::Tick(i));
        }
        let mut seen = Vec::new();
        eng.run_until(&mut seen, SimTime::from_ms(7), |_, seen, _, ev| {
            if let Ev::Tick(n) = ev {
                seen.push(n);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handler_can_reschedule() {
        // A periodic process: each tick schedules the next until the horizon.
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        eng.run_until(&mut count, SimTime::from_ms(95), |eng, count, _, ev| {
            if let Ev::Tick(_) = ev {
                *count += 1;
                eng.schedule_after(10, Ev::Tick(0));
            }
        });
        // Ticks at 0,10,...,90 fire; the one at 100 is past the horizon.
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_ms(95));
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn run_until_stops_at_horizon_and_resumes() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ms(50), Ev::Stop);
        let mut fired = false;
        eng.run_until(&mut fired, SimTime::from_ms(40), |_, fired, _, _| *fired = true);
        assert!(!fired);
        assert_eq!(eng.now(), SimTime::from_ms(40));
        eng.run_until(&mut fired, SimTime::from_ms(60), |_, fired, _, _| *fired = true);
        assert!(fired);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_ms(10), Ev::Stop);
        let mut s = ();
        eng.run_until(&mut s, SimTime::from_ms(10), |_, _, _, _| {});
        eng.schedule_at(SimTime::from_ms(5), Ev::Stop);
    }

    #[test]
    fn tick_log_records_dispatches_and_bounds_memory() {
        let mut eng = Engine::new();
        // Off by default: nothing captured.
        eng.schedule_at(SimTime::from_ms(1), Ev::Tick(0));
        eng.step();
        assert!(eng.tick_log().is_empty());

        eng.enable_tick_log(3);
        for i in 0..5u32 {
            eng.schedule_at(SimTime::from_ms(10 + i as u64), Ev::Tick(i));
        }
        let mut s = ();
        eng.run_until(&mut s, SimTime::from_ms(100), |_, _, _, _| {});
        // Ring bound: only the last 3 of 5 dispatches survive.
        let ticks = eng.tick_log();
        assert_eq!(ticks.len(), 3);
        assert_eq!(eng.ticks_dropped(), 2);
        assert_eq!(ticks[0].0, 12);
        assert_eq!(ticks[2], (14, 6)); // 6 events processed in total
    }

    #[test]
    fn delay_queue_drains_in_due_then_fifo_order() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_due(), None);
        q.push(SimTime::from_ms(20), 1);
        q.push(SimTime::from_ms(10), 2);
        q.push(SimTime::from_ms(10), 3);
        q.push(SimTime::from_ms(30), 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_due(), Some(SimTime::from_ms(10)));
        // Nothing due yet.
        assert_eq!(q.drain_due(SimTime::from_ms(5)), Vec::<u32>::new());
        // Due items come out earliest-first, FIFO among equal due times.
        assert_eq!(q.drain_due(SimTime::from_ms(20)), vec![2, 3, 1]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.drain_due(SimTime::from_ms(30)), vec![4]);
        assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_retain_preserves_order() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        for (t, v) in [(10u64, 1u32), (10, 2), (10, 3), (5, 4)] {
            q.push(SimTime::from_ms(t), v);
        }
        q.retain(|v| v % 2 == 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drain_due(SimTime::from_ms(100)), vec![1, 3]);
    }

    #[test]
    fn delay_queue_delivers_items_parked_across_a_heal_boundary() {
        // A message delayed during a partition window must still come out
        // once its due time passes the heal tick — the queue itself is
        // oblivious to the partition, so nothing may leak or be dropped.
        let mut q: DelayQueue<&str> = DelayQueue::new();
        let heal = SimTime::from_ms(50);
        q.push(SimTime::from_ms(40), "due-during-split");
        q.push(SimTime::from_ms(60), "due-after-heal");
        // Drain at the last split-side tick: only the first item is due.
        assert_eq!(q.drain_due(SimTime::from_ms(45)), vec!["due-during-split"]);
        assert_eq!(q.len(), 1, "the in-flight item must survive the heal");
        // Nothing fires exactly at the heal tick (due 60 > 50)...
        assert_eq!(q.drain_due(heal), Vec::<&str>::new());
        // ...and the first post-heal drain delivers it — no leak.
        assert_eq!(q.drain_due(SimTime::from_ms(60)), vec!["due-after-heal"]);
        assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_fifo_ordering_holds_across_split_and_heal() {
        // Items parked before the split, during it, and at the heal tick
        // with one shared due time must drain in insertion order: the
        // split/heal transition may not perturb the (due, seq) sort key.
        let mut q: DelayQueue<u32> = DelayQueue::new();
        let due = SimTime::from_ms(100);
        q.push(due, 1); // pre-split
        q.push(due, 2); // during split
        q.push(due, 3); // at the heal tick
        q.push(SimTime::from_ms(90), 4); // earlier due still wins
        assert_eq!(q.drain_due(SimTime::from_ms(120)), vec![4, 1, 2, 3]);
        // Survivor filtering (e.g. a node that crashed while split) keeps
        // FIFO order among the remaining equal-due items.
        q.push(due, 5);
        q.push(due, 6);
        q.push(due, 7);
        q.retain(|&v| v != 6);
        assert_eq!(q.drain_due(SimTime::from_ms(200)), vec![5, 7]);
    }

    #[test]
    fn step_pops_one() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_ms(5), Ev::Tick(9));
        let (t, ev) = eng.step().unwrap();
        assert_eq!(t.as_ms(), 5);
        assert_eq!(ev, Ev::Tick(9));
        assert!(eng.step().is_none());
        assert_eq!(eng.processed(), 1);
    }
}
