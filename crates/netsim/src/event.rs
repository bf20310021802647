//! The event queue: a hierarchical timing wheel of timestamped events.
//!
//! The simulator's hot loop is `schedule`/`pop`. The original
//! implementation was a single global `BinaryHeap<Scheduled>` whose
//! `O(log n)` operations walk pointer-distant heap levels; at the
//! 100k-peer scale of the propagation sweep the heap holds hundreds of
//! thousands of pending events and every push touches cold cache lines.
//! [`EventQueue`] is now a two-level timing wheel:
//!
//! * **near wheel** — [`WHEEL_SLOTS`] slots of [`SLOT_US`] µs
//!   (millisecond granularity), covering the next ~256 ms. Insertion is
//!   an `O(1)` push onto the slot's `Vec`.
//! * **overflow wheel** — [`WHEEL_SLOTS`] buckets of 256 ms each
//!   (~65.5 s horizon). When the clock crosses into a new 256 ms epoch
//!   the matching bucket cascades into the near wheel.
//! * **far list** — anything beyond the overflow horizon (long chaos
//!   schedules, end-of-run timers). Scanned once per ~65.5 s of
//!   simulated time when the overflow wheel wraps.
//!
//! Events that land in the slot the cursor currently occupies go into a
//! small per-slot [`BinaryHeap`] so sub-slot ordering is exact. Both
//! wheels keep occupancy bitmaps so advancing over empty slots is a
//! couple of word scans, not a walk.
//!
//! **Determinism contract** (unchanged from the heap): events pop in
//! ascending `(at, seq)` order where `seq` is the insertion counter —
//! ties at the same timestamp break by insertion order. Scheduling in
//! the past clamps to `now` and reports the anomaly. The original heap
//! survives as the oracle in `graphene-bench`'s `reference` module, where
//! the equivalence proptest and the bench gate prove the wheel pops every
//! schedule in exactly the heap's order.

use crate::chaos::ChaosEvent;
use crate::peer::PeerId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled simulation event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A message frame arrives at `to`.
    Deliver {
        /// Destination peer.
        to: PeerId,
        /// Source peer.
        from: PeerId,
        /// The encoded frame, reference-counted so fan-out to many peers
        /// shares one allocation (corruption copies on write).
        frame: bytes::Bytes,
    },
    /// A session timeout fires at a peer (retry/fallback logic).
    Timeout {
        /// The peer whose timer fires.
        peer: PeerId,
        /// Which block the timer guards.
        block_id: graphene_hashes::Digest,
        /// Retry attempt number.
        attempt: u32,
        /// Restart generation of `peer` when the timer was armed; a
        /// mismatch on pop means the peer crashed since and the timer
        /// is stale (dropped without dispatch).
        gen: u32,
    },
    /// A peer processes the next frame of its bounded inbound queue.
    Drain {
        /// The peer whose queue drains one frame.
        peer: PeerId,
    },
    /// A scheduled chaos action (churn, crash, partition) fires.
    Chaos(ChaosEvent),
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; tie-break on insertion order for determinism.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Microseconds per near-wheel slot: millisecond granularity.
pub const SLOT_US: u64 = 1_000;
/// Slots per wheel level (a power of two so the bitmaps are whole words).
pub const WHEEL_SLOTS: usize = 256;
/// Bitmap words per wheel level.
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// Slots covered by one overflow bucket.
const BUCKET_SLOTS: u64 = WHEEL_SLOTS as u64;
/// Slots covered by one full overflow wheel (the far-list threshold).
const OVERFLOW_SLOTS: u64 = BUCKET_SLOTS * WHEEL_SLOTS as u64;

/// A fixed-size occupancy bitmap over [`WHEEL_SLOTS`] slots.
#[derive(Default)]
struct SlotBitmap([u64; BITMAP_WORDS]);

impl SlotBitmap {
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// Lowest set index `>= from`, if any.
    fn next_from(&self, from: usize) -> Option<usize> {
        if from >= WHEEL_SLOTS {
            return None;
        }
        let (mut w, bit) = (from / 64, from % 64);
        let masked = self.0[w] & (u64::MAX << bit);
        if masked != 0 {
            return Some(w * 64 + masked.trailing_zeros() as usize);
        }
        w += 1;
        while w < BITMAP_WORDS {
            if self.0[w] != 0 {
                return Some(w * 64 + self.0[w].trailing_zeros() as usize);
            }
            w += 1;
        }
        None
    }
}

/// Deterministic future-event list: hierarchical timing wheel.
///
/// Same API and pop order as the original heap; `O(1)` amortized
/// schedule and near-`O(1)` pop at any pending-event count the
/// propagation sweep reaches.
pub struct EventQueue {
    /// Events in the slot the cursor occupies, exactly ordered.
    current: BinaryHeap<Scheduled>,
    /// Near wheel: one `Vec` per millisecond slot.
    near: Vec<Vec<Scheduled>>,
    near_bits: SlotBitmap,
    /// Overflow wheel: one bucket per 256 ms epoch.
    over: Vec<Vec<Scheduled>>,
    over_bits: SlotBitmap,
    /// Beyond the overflow horizon.
    far: Vec<Scheduled>,
    /// Absolute index of the slot `current` holds (== slot of `now`).
    cursor: u64,
    len: usize,
    seq: u64,
    now: SimTime,
    high_water: usize,
    slot_high_water: usize,
    clamped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            near: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            near_bits: SlotBitmap::default(),
            over: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            over_bits: SlotBitmap::default(),
            far: Vec::new(),
            cursor: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
            slot_high_water: 0,
            clamped: 0,
        }
    }
}

impl EventQueue {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (clamped to now). Returns
    /// `true` when `at` lay strictly in the past and was clamped — a
    /// clock anomaly callers should count rather than ignore. The queue
    /// also counts it itself (see [`EventQueue::clamped`]) so a call
    /// site that drops the `bool` cannot silently lose the anomaly.
    pub fn schedule(&mut self, at: SimTime, event: Event) -> bool {
        let clamped = at < self.now;
        if clamped {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        self.seq += 1;
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        self.place(Scheduled { at, seq: self.seq, event });
        clamped
    }

    /// Route one scheduled event to the level its slot falls in.
    fn place(&mut self, s: Scheduled) {
        let slot = s.at.0 / SLOT_US;
        let occupancy = if slot <= self.cursor {
            // The cursor's own slot: keep exactly ordered.
            self.current.push(s);
            self.current.len()
        } else if slot / BUCKET_SLOTS == self.cursor / BUCKET_SLOTS {
            let i = (slot % BUCKET_SLOTS) as usize;
            self.near[i].push(s);
            self.near_bits.set(i);
            self.near[i].len()
        } else if slot / OVERFLOW_SLOTS == self.cursor / OVERFLOW_SLOTS {
            let i = ((slot / BUCKET_SLOTS) % WHEEL_SLOTS as u64) as usize;
            self.over[i].push(s);
            self.over_bits.set(i);
            self.over[i].len()
        } else {
            self.far.push(s);
            self.far.len()
        };
        self.slot_high_water = self.slot_high_water.max(occupancy);
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.current.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let s = self.current.pop()?;
        self.len -= 1;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Move the cursor to the next occupied slot, cascading the
    /// overflow wheel and the far list across epoch boundaries.
    /// Precondition: `current` is empty and `len > 0`.
    fn advance(&mut self) {
        loop {
            // Next occupied near slot within the cursor's epoch.
            let in_slot = (self.cursor % BUCKET_SLOTS) as usize;
            let epoch_base = self.cursor - in_slot as u64;
            if let Some(i) = self.near_bits.next_from(in_slot + 1) {
                self.cursor = epoch_base + i as u64;
                self.near_bits.clear(i);
                let mut pending = std::mem::take(&mut self.near[i]);
                self.current.extend(pending.drain(..));
                self.near[i] = pending;
                return;
            }
            // Near wheel empty ahead: step into the next 256 ms epoch.
            let next_epoch = epoch_base + BUCKET_SLOTS;
            self.cursor = next_epoch;
            if next_epoch.is_multiple_of(OVERFLOW_SLOTS) {
                // Overflow wheel wrapped: pull the new 65.5 s window
                // out of the far list.
                let horizon = next_epoch + OVERFLOW_SLOTS;
                let mut i = 0;
                while i < self.far.len() {
                    if self.far[i].at.0 / SLOT_US < horizon {
                        let s = self.far.swap_remove(i);
                        self.place(s);
                    } else {
                        i += 1;
                    }
                }
            }
            // Cascade the epoch's overflow bucket into the near wheel.
            let b = ((next_epoch / BUCKET_SLOTS) % WHEEL_SLOTS as u64) as usize;
            self.over_bits.clear(b);
            let mut bucket = std::mem::take(&mut self.over[b]);
            for s in bucket.drain(..) {
                self.place(s);
            }
            self.over[b] = bucket;
            // The new epoch's base slot may itself hold events (placed
            // into `current` by `place` since slot == cursor).
            if !self.current.is_empty() {
                return;
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Peak number of simultaneously pending events over the queue's
    /// lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Peak occupancy of any single wheel slot (including the cursor's
    /// in-slot heap) — how hot the hottest millisecond got.
    pub fn slot_high_water(&self) -> usize {
        self.slot_high_water
    }

    /// Total past-time schedules clamped to `now` — counted here as well
    /// as reported per call, so no call site can drop an anomaly.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_hashes::Digest;

    fn timeout(tag: u64) -> Event {
        Event::Timeout { peer: PeerId(0), block_id: Digest::ZERO, attempt: tag as u32, gen: 0 }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), timeout(5));
        q.schedule(SimTime::from_millis(1), timeout(1));
        q.schedule(SimTime::from_millis(3), timeout(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_millis()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_insertion() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), timeout(10));
        q.schedule(SimTime::from_millis(1), timeout(20));
        let (_, first) = q.pop().unwrap();
        match first {
            Event::Timeout { attempt, .. } => assert_eq!(attempt, 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        assert!(!q.schedule(SimTime::from_millis(10), timeout(1)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        // Scheduling in the past clamps to now — and reports it.
        assert!(q.schedule(SimTime::from_millis(1), timeout(2)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        // Scheduling exactly at now is not an anomaly.
        assert!(!q.schedule(SimTime::from_millis(10), timeout(3)));
        // The queue counted the one clamp itself.
        assert_eq!(q.clamped(), 1);
    }

    /// Events beyond the near wheel (overflow bucket) and beyond the
    /// overflow wheel (far list) still pop in global time order.
    #[test]
    fn overflow_and_far_cascade_in_order() {
        let mut q = EventQueue::new();
        // Far list: minutes out. Overflow: ~1 s out. Near: ~5 ms out.
        q.schedule(SimTime::from_millis(120_000), timeout(3));
        q.schedule(SimTime::from_millis(1_000), timeout(2));
        q.schedule(SimTime::from_millis(5), timeout(1));
        q.schedule(SimTime::from_millis(70_000), timeout(4)); // second overflow epoch
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_millis()).collect();
        assert_eq!(order, vec![5, 1_000, 70_000, 120_000]);
        assert!(q.is_empty());
    }

    /// Sub-slot timestamps (distinct µs inside one ms slot) order by
    /// time first, then seq.
    #[test]
    fn sub_slot_microseconds_order_exactly() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_900), timeout(2));
        q.schedule(SimTime::from_micros(1_100), timeout(1));
        q.schedule(SimTime::from_micros(1_100), timeout(3)); // tie: after seq-1
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timeout { attempt, .. } => attempt,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    /// Scheduling into the cursor's own slot while draining it keeps
    /// exact order — the Deliver→Drain-at-now pattern of the dispatch
    /// loop.
    #[test]
    fn same_slot_insert_while_draining() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(1_100), timeout(1));
        q.schedule(SimTime::from_micros(1_500), timeout(3));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(1_100));
        // Now mid-slot: schedule earlier-in-slot (clamps to now) and
        // later-in-slot events.
        q.schedule(SimTime::from_micros(1_000), timeout(2)); // clamped to 1_100
        q.schedule(SimTime::from_micros(1_300), timeout(4));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Timeout { attempt, .. } => (t.as_micros(), attempt),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![(1_100, 2), (1_300, 4), (1_500, 3)]);
    }

    /// High-water marks track peak pending events and peak slot
    /// occupancy.
    #[test]
    fn high_water_marks_track_peaks() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_millis(1 + (i % 2)), timeout(i));
        }
        assert_eq!(q.high_water(), 10);
        assert_eq!(q.slot_high_water(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.high_water(), 10, "draining must not lower the mark");
    }
}
