//! The deterministic event queue at the heart of the event-driven CC core.
//!
//! Events are keyed by `(time_ns, tie_break_seq)` — **integer nanoseconds,
//! never floats**, so ordering is total and platform-independent, and a
//! monotone sequence number breaks same-timestamp ties in schedule order
//! (FIFO).
//!
//! The queue is a k-way merge of FIFO *lanes*. The caller names a lane at
//! every schedule and promises that the keys it queues on one lane only
//! increase (a `debug_assert!` holds it to that), so each lane is a plain
//! `VecDeque` already in key order. A binary heap holds one `(head key,
//! lane)` entry per non-empty lane; a pop takes the smallest head and puts
//! that lane's next key in its place. The merge pops exactly the order one
//! sorted map over all keys would, at the cost of a heap over the lanes
//! instead of over the events.
//!
//! There is no keyed cancellation. A key can be reserved before anything is
//! queued under it ([`EventQueue::reserve`]), and a lane can be emptied
//! and refilled at an earlier key ([`EventQueue::replace`]); the
//! simulator's retransmission timer needs nothing more (DESIGN.md §14).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation clock value: integer nanoseconds since episode start.
pub type TimeNs = u64;

/// Nanoseconds per second, as f64 for conversions.
pub const NS_PER_S: f64 = 1e9;

/// Converts non-negative seconds to integer nanoseconds (round-to-nearest).
///
/// # Panics
/// Panics (debug) on negative or non-finite input — simulation times are
/// always forward offsets.
pub fn secs_to_ns(s: f64) -> TimeNs {
    debug_assert!(s.is_finite() && s >= 0.0, "secs_to_ns({s})");
    (s.max(0.0) * NS_PER_S).round() as TimeNs
}

/// Converts integer nanoseconds back to seconds.
pub fn ns_to_secs(ns: TimeNs) -> f64 {
    ns as f64 / NS_PER_S
}

/// Position of an event in the total dispatch order `(time_ns, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Dispatch time (integer nanoseconds).
    pub time_ns: TimeNs,
    /// Tie-break sequence number: monotone per queue, so events scheduled
    /// earlier dispatch earlier at equal timestamps.
    pub seq: u64,
}

/// A deterministic discrete-event queue over a fixed set of FIFO lanes.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events per lane, in key order.
    lanes: Vec<VecDeque<(EventKey, E)>>,
    /// One `(head key, lane)` entry per non-empty lane, smallest on top.
    heads: BinaryHeap<Reverse<(EventKey, usize)>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue with lanes `0..lanes`.
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heads: BinaryHeap::with_capacity(lanes),
            next_seq: 0,
        }
    }

    /// Takes the next key at `time_ns` from the sequence counter without
    /// queueing anything; [`EventQueue::schedule_at`] or
    /// [`EventQueue::replace`] can queue an event under it later.
    pub fn reserve(&mut self, time_ns: TimeNs) -> EventKey {
        let key = EventKey {
            time_ns,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        key
    }

    /// Schedules `event` on `lane` at `time_ns` and returns its key.
    pub fn schedule(&mut self, lane: usize, time_ns: TimeNs, event: E) -> EventKey {
        let key = self.reserve(time_ns);
        self.schedule_at(lane, key, event);
        key
    }

    /// Queues `event` on `lane` under a key from [`EventQueue::reserve`].
    ///
    /// # Panics
    /// Panics (debug) if `key` was not reserved from this queue or is not
    /// later than every key pending on `lane`: a lane's keys only increase.
    pub fn schedule_at(&mut self, lane: usize, key: EventKey, event: E) {
        debug_assert!(key.seq < self.next_seq, "{key:?} was never reserved");
        let fifo = &mut self.lanes[lane];
        debug_assert!(
            fifo.back().is_none_or(|(last, _)| *last < key),
            "lane {lane}: {key:?} queued behind a later key"
        );
        if fifo.is_empty() {
            self.heads.push(Reverse((key, lane)));
        }
        fifo.push_back((key, event));
    }

    /// Drops every event pending on `lane` and queues `event` there under
    /// `key` (from [`EventQueue::reserve`]) instead — how a timer is
    /// re-armed to an earlier deadline than the one it has queued.
    pub fn replace(&mut self, lane: usize, key: EventKey, event: E) {
        if !self.lanes[lane].is_empty() {
            self.lanes[lane].clear();
            self.heads.retain(|&Reverse((_, l))| l != lane);
        }
        self.schedule_at(lane, key, event);
    }

    /// Dispatches the earliest event (smallest `(time_ns, seq)`).
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let mut top = self.heads.peek_mut()?;
        let lane = top.0 .1;
        let fifo = &mut self.lanes[lane];
        let popped = fifo.pop_front();
        match fifo.front() {
            // The lane's next key takes the head's place: one sift, not a
            // pop and a push.
            Some(&(next, _)) => top.0 = (next, lane),
            None => {
                PeekMut::pop(top);
            }
        }
        popped
    }

    /// Dispatch time of the earliest pending event.
    pub fn peek_time(&self) -> Option<TimeNs> {
        self.heads.peek().map(|Reverse((key, _))| key.time_ns)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(3);
        q.schedule(0, 300, "c");
        q.schedule(1, 100, "a");
        q.schedule(2, 200, "b");
        assert_eq!(drain(&mut q), ["a", "b", "c"]);
    }

    #[test]
    fn same_timestamp_ties_break_in_schedule_order() {
        // Within one lane and across lanes alike.
        let mut q = EventQueue::new(2);
        q.schedule(1, 50, "first");
        q.schedule(0, 50, "second");
        q.schedule(1, 50, "third");
        assert_eq!(drain(&mut q), ["first", "second", "third"]);
    }

    #[test]
    fn interleaved_schedules_keep_fifo_at_equal_times() {
        // Scheduling at an *earlier* time (on another lane) after a later
        // one must not disturb FIFO among equal timestamps.
        let mut q = EventQueue::new(2);
        q.schedule(0, 90, "x1");
        q.schedule(1, 10, "early");
        q.schedule(0, 90, "x2");
        assert_eq!(drain(&mut q), ["early", "x1", "x2"]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q = EventQueue::new(2);
        assert_eq!(q.peek_time(), None);
        q.schedule(0, 7, ());
        q.schedule(1, 3, ());
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.len(), 2);
        let (k, ()) = q.pop().unwrap();
        assert_eq!(k.time_ns, 3);
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn time_conversions_round_trip_on_ns_grid() {
        for s in [0.0, 0.001, 0.02, 1.5, 30.0] {
            let ns = secs_to_ns(s);
            assert!((ns_to_secs(ns) - s).abs() < 1e-9, "{s}");
        }
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
        assert_eq!(secs_to_ns(0.5e-9), 1, "rounds to nearest nanosecond");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queued behind a later key")]
    fn a_lane_refuses_an_earlier_time() {
        let mut q = EventQueue::new(1);
        q.schedule(0, 20, ());
        q.schedule(0, 10, ());
    }

    /// Lanes of the property test: `PLAIN` FIFO lanes, then `TIMERS`
    /// single-slot timer lanes driven the way the simulator drives its
    /// retransmission timers.
    const PLAIN: usize = 4;
    const TIMERS: usize = 2;

    /// A timer's bookkeeping: the armed key (with the payload it fires
    /// with) and the key actually queued on its lane.
    #[derive(Default, Clone, Copy)]
    struct Timer {
        armed: Option<(EventKey, u64)>,
        queued: Option<EventKey>,
    }

    /// Picks one of `n` from bits of `op` above the opcode.
    fn pick(op: u64, n: usize) -> usize {
        usize::try_from((op >> 4) % n as u64).unwrap_or(0)
    }

    /// Pops the next live event. A timer entry popped under a key that is
    /// no longer armed is stale: it re-queues at the armed key, or drops
    /// when nothing is armed.
    fn pop_live(q: &mut EventQueue<u64>, timers: &mut [Timer]) -> Option<(EventKey, u64)> {
        loop {
            let (key, ev) = q.pop()?;
            let Some(t) = timers.iter().position(|tm| tm.queued == Some(key)) else {
                return Some((key, ev));
            };
            timers[t].queued = None;
            match timers[t].armed {
                Some((armed, _)) if armed == key => {
                    timers[t].armed = None;
                    return Some((key, ev));
                }
                Some((armed, p)) => {
                    q.schedule_at(PLAIN + t, armed, p);
                    timers[t].queued = Some(armed);
                }
                None => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random schedules (per-lane times never decrease, equal times
        /// across lanes are common), interleaved pops, and timer re-arms to
        /// a later key, to an earlier key and to nothing: the lanes pop
        /// exactly the order of one `BTreeMap` over the live keys, in which
        /// a re-arm is a removal plus an insert.
        #[test]
        fn merge_of_lanes_pops_like_one_sorted_map(
            ops in proptest::collection::vec(0u64..u64::MAX, 1..300)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new(PLAIN + TIMERS);
            let mut model: BTreeMap<EventKey, u64> = BTreeMap::new();
            let mut lane_time = [0u64; PLAIN];
            let mut timers = [Timer::default(); TIMERS];
            let mut now = 0u64;
            let mut payload = 0u64;
            for op in ops {
                // Few distinct offsets, so ties across lanes are common.
                let dt = (op >> 8) % 4;
                payload += 1;
                match op % 8 {
                    0..=3 => {
                        let lane = pick(op, PLAIN);
                        lane_time[lane] = lane_time[lane].max(now) + dt;
                        let key = q.schedule(lane, lane_time[lane], payload);
                        model.insert(key, payload);
                    }
                    4 | 5 => {
                        // (Re-)arm a timer at `now + dt`: earlier or later
                        // than the key it has queued, or with none queued.
                        let t = pick(op, TIMERS);
                        let key = q.reserve(now + dt);
                        if let Some((old, _)) = timers[t].armed.replace((key, payload)) {
                            model.remove(&old);
                        }
                        model.insert(key, payload);
                        match timers[t].queued {
                            Some(queued) if key > queued => {}
                            Some(_) => q.replace(PLAIN + t, key, payload),
                            None => q.schedule_at(PLAIN + t, key, payload),
                        }
                        if timers[t].queued.is_none_or(|queued| key < queued) {
                            timers[t].queued = Some(key);
                        }
                    }
                    6 => {
                        // Disarm: whatever the timer has queued goes stale.
                        let t = pick(op, TIMERS);
                        if let Some((old, _)) = timers[t].armed.take() {
                            model.remove(&old);
                        }
                    }
                    _ => {
                        let live = pop_live(&mut q, &mut timers);
                        if let Some((key, _)) = live {
                            now = key.time_ns;
                        }
                        prop_assert_eq!(live, model.pop_first());
                    }
                }
            }
            // Draining what is left agrees too.
            while let Some(live) = pop_live(&mut q, &mut timers) {
                prop_assert_eq!(Some(live), model.pop_first());
            }
            prop_assert!(model.is_empty());
        }
    }
}
