//! Shared metrics collection.

use crate::peer::PeerId;
use crate::time::SimTime;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Byte and latency accounting for one simulation run.
///
/// Wrapped in a [`Mutex`] so peers (borrow-wise independent actors inside
/// the event loop) can record without threading references through every
/// call.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    bytes_by_type: HashMap<u8, u64>,
    frames: u64,
    dropped: u64,
    corrupted_decodes: u64,
    block_arrival: HashMap<PeerId, SimTime>,
    bans: u64,
    failovers: u64,
    escalations: u64,
    stale_timers: u64,
    clamped_events: u64,
    offline_drops: u64,
    partition_drops: u64,
    duplicated_frames: u64,
    churn_outages: u64,
    crashes: u64,
    shed_frames: u64,
    resource_hwm_bytes: u64,
    event_queue_hwm: u64,
    wheel_slot_hwm: u64,
    /// Hedged-fetch counters (issued, won, wasted), *set* (not
    /// accumulated) from the peers' own cumulative stats at the end of
    /// each `run_until`.
    hedges: (u64, u64, u64),
    /// Circuit-breaker counters (trips, half-open probes), set like `hedges`.
    breaker: (u64, u64),
}

impl Metrics {
    /// Fresh collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counters, poisoned or not: a recorder that panicked mid-update
    /// leaves a total short by one at worst, never an invalid value.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a frame of `bytes` with message type byte `ty`.
    pub fn record_frame(&self, ty: u8, bytes: usize) {
        let mut g = self.lock();
        *g.bytes_by_type.entry(ty).or_default() += bytes as u64;
        g.frames += 1;
    }

    /// Record a fault-injected drop.
    pub fn record_drop(&self) {
        self.lock().dropped += 1;
    }

    /// Record a frame that failed to decode (corruption or hostile).
    pub fn record_bad_decode(&self) {
        self.lock().corrupted_decodes += 1;
    }

    /// Record a peer banning a misbehaving neighbor.
    pub fn record_ban(&self) {
        self.lock().bans += 1;
    }

    /// Record `n` session failovers to an alternate server.
    pub fn record_failovers(&self, n: u32) {
        self.lock().failovers += n as u64;
    }

    /// Record `n` recovery-ladder rung escalations.
    pub fn record_escalations(&self, n: u32) {
        self.lock().escalations += n as u64;
    }

    /// Record a timer dropped on pop because its session or restart
    /// generation went stale.
    pub fn record_stale_timer(&self) {
        self.lock().stale_timers += 1;
    }

    /// Record an event scheduled in the past and clamped to `now` — a
    /// clock anomaly that should never be silent.
    pub fn record_clamped_event(&self) {
        self.lock().clamped_events += 1;
    }

    /// Overwrite the clamp total with the event queue's own cumulative
    /// count. The queue counts every past-time clamp internally, so no
    /// scheduling call site can drop one; this *sets* rather than adds
    /// because the queue's counter is cumulative across `run_until`
    /// calls.
    pub fn set_clamped_events(&self, total: u64) {
        self.lock().clamped_events = total;
    }

    /// Record a frame lost because its endpoint was offline.
    pub fn record_offline_drop(&self) {
        self.lock().offline_drops += 1;
    }

    /// Record a frame lost to an active network partition.
    pub fn record_partition_drop(&self) {
        self.lock().partition_drops += 1;
    }

    /// Record a link-level duplicated delivery.
    pub fn record_duplicate(&self) {
        self.lock().duplicated_frames += 1;
    }

    /// Record a churn outage starting.
    pub fn record_churn(&self) {
        self.lock().churn_outages += 1;
    }

    /// Record a crash/restart cycle starting.
    pub fn record_crash(&self) {
        self.lock().crashes += 1;
    }

    /// Record `n` inbound frames shed by the load-shedding policy.
    pub fn record_shed(&self, n: u64) {
        self.lock().shed_frames += n;
    }

    /// Fold one peer's accounted-memory high-water mark into the
    /// simulation-wide maximum.
    pub fn record_resource_hwm(&self, bytes: u64) {
        let mut g = self.lock();
        g.resource_hwm_bytes = g.resource_hwm_bytes.max(bytes);
    }

    /// Fold the event queue's high-water marks (peak pending events,
    /// peak single-slot occupancy) into the simulation-wide maxima —
    /// the scheduler-side mirror of [`record_resource_hwm`](Self::record_resource_hwm).
    pub fn record_event_queue_hwm(&self, pending: u64, slot: u64) {
        let mut g = self.lock();
        g.event_queue_hwm = g.event_queue_hwm.max(pending);
        g.wheel_slot_hwm = g.wheel_slot_hwm.max(slot);
    }

    /// Overwrite the network-wide hedged-fetch totals (issued, won,
    /// wasted). Peers keep their own cumulative counters; the network
    /// folds them after each `run_until`, and *setting* (rather than
    /// adding) keeps repeated folds from double-counting.
    pub fn set_hedge_totals(&self, issued: u64, won: u64, wasted: u64) {
        self.lock().hedges = (issued, won, wasted);
    }

    /// Overwrite the network-wide circuit-breaker totals (trips, probes).
    pub fn set_breaker_totals(&self, trips: u64, probes: u64) {
        self.lock().breaker = (trips, probes);
    }

    /// Hedged fetches (issued, won, wasted) as of the last `run_until`.
    pub fn hedge_totals(&self) -> (u64, u64, u64) {
        self.lock().hedges
    }

    /// Circuit-breaker (trips, half-open probes) as of the last `run_until`.
    pub fn breaker_totals(&self) -> (u64, u64) {
        self.lock().breaker
    }

    /// Record the first time `peer` fully reconstructed the block.
    pub fn record_block_arrival(&self, peer: PeerId, at: SimTime) {
        self.lock().block_arrival.entry(peer).or_insert(at);
    }

    /// Total bytes across all message types.
    pub fn total_bytes(&self) -> u64 {
        self.lock().bytes_by_type.values().sum()
    }

    /// Bytes for one frame type.
    pub fn bytes_for(&self, ty: u8) -> u64 {
        self.lock().bytes_by_type.get(&ty).copied().unwrap_or(0)
    }

    /// Number of frames sent.
    pub fn frames(&self) -> u64 {
        self.lock().frames
    }

    /// Number of dropped frames.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of undecodable frames received.
    pub fn bad_decodes(&self) -> u64 {
        self.lock().corrupted_decodes
    }

    /// Number of bans issued across all peers.
    pub fn bans(&self) -> u64 {
        self.lock().bans
    }

    /// Number of session failovers across all peers.
    pub fn failovers(&self) -> u64 {
        self.lock().failovers
    }

    /// Number of ladder escalations across all peers.
    pub fn escalations(&self) -> u64 {
        self.lock().escalations
    }

    /// Stale timers dropped on pop.
    pub fn stale_timers(&self) -> u64 {
        self.lock().stale_timers
    }

    /// Past-time events clamped to `now` by the queue.
    pub fn clamped_events(&self) -> u64 {
        self.lock().clamped_events
    }

    /// Frames lost to offline endpoints.
    pub fn offline_drops(&self) -> u64 {
        self.lock().offline_drops
    }

    /// Frames lost to an active partition.
    pub fn partition_drops(&self) -> u64 {
        self.lock().partition_drops
    }

    /// Link-level duplicated deliveries.
    pub fn duplicated_frames(&self) -> u64 {
        self.lock().duplicated_frames
    }

    /// Churn outages injected.
    pub fn churn_outages(&self) -> u64 {
        self.lock().churn_outages
    }

    /// Crash/restart cycles injected.
    pub fn crashes(&self) -> u64 {
        self.lock().crashes
    }

    /// Inbound frames shed under queue pressure.
    pub fn shed_frames(&self) -> u64 {
        self.lock().shed_frames
    }

    /// Maximum accounted per-peer memory observed anywhere in the run.
    pub fn resource_hwm_bytes(&self) -> u64 {
        self.lock().resource_hwm_bytes
    }

    /// Peak number of simultaneously pending events in the scheduler.
    pub fn event_queue_hwm(&self) -> u64 {
        self.lock().event_queue_hwm
    }

    /// Peak occupancy of any single timing-wheel slot.
    pub fn wheel_slot_hwm(&self) -> u64 {
        self.lock().wheel_slot_hwm
    }

    /// When `peer` first held the block, if ever.
    pub fn arrival(&self, peer: PeerId) -> Option<SimTime> {
        self.lock().block_arrival.get(&peer).copied()
    }

    /// Number of peers that received the block.
    pub fn peers_with_block(&self) -> usize {
        self.lock().block_arrival.len()
    }

    /// The `p`-th percentile (nearest-rank, `p` in [0, 100]) of per-peer
    /// block-arrival times, or `None` before any arrival. With every peer
    /// reached this is the session-completion latency distribution — the
    /// quantity the adaptive failure detector exists to improve.
    pub fn arrival_percentile(&self, p: f64) -> Option<SimTime> {
        let g = self.lock();
        if g.block_arrival.is_empty() {
            return None;
        }
        let mut times: Vec<SimTime> = g.block_arrival.values().copied().collect();
        times.sort();
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * times.len() as f64).ceil() as usize;
        Some(times[rank.saturating_sub(1).min(times.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let m = Metrics::new();
        m.record_frame(0x10, 100);
        m.record_frame(0x10, 50);
        m.record_frame(0x01, 37);
        assert_eq!(m.total_bytes(), 187);
        assert_eq!(m.bytes_for(0x10), 150);
        assert_eq!(m.frames(), 3);
    }

    #[test]
    fn chaos_counters_accumulate() {
        let m = Metrics::new();
        m.record_stale_timer();
        m.record_clamped_event();
        m.record_offline_drop();
        m.record_partition_drop();
        m.record_duplicate();
        m.record_churn();
        m.record_crash();
        m.record_shed(3);
        m.record_resource_hwm(500);
        m.record_resource_hwm(200); // max, not sum
        assert_eq!(m.stale_timers(), 1);
        assert_eq!(m.clamped_events(), 1);
        assert_eq!(m.offline_drops(), 1);
        assert_eq!(m.partition_drops(), 1);
        assert_eq!(m.duplicated_frames(), 1);
        assert_eq!(m.churn_outages(), 1);
        assert_eq!(m.crashes(), 1);
        assert_eq!(m.shed_frames(), 3);
        assert_eq!(m.resource_hwm_bytes(), 500);
    }

    #[test]
    fn event_queue_hwm_folds_as_max() {
        let m = Metrics::new();
        m.record_event_queue_hwm(100, 7);
        m.record_event_queue_hwm(40, 12); // later, smaller queue / hotter slot
        assert_eq!(m.event_queue_hwm(), 100);
        assert_eq!(m.wheel_slot_hwm(), 12);
    }

    #[test]
    fn first_arrival_wins() {
        let m = Metrics::new();
        m.record_block_arrival(PeerId(1), SimTime::from_millis(5));
        m.record_block_arrival(PeerId(1), SimTime::from_millis(9));
        assert_eq!(m.arrival(PeerId(1)), Some(SimTime::from_millis(5)));
        assert_eq!(m.peers_with_block(), 1);
    }

    #[test]
    fn detector_totals_set_not_add() {
        let m = Metrics::new();
        m.set_hedge_totals(5, 2, 1);
        m.set_hedge_totals(5, 2, 1); // repeated fold must not double
        m.set_breaker_totals(3, 4);
        m.set_breaker_totals(3, 4);
        assert_eq!(m.hedge_totals(), (5, 2, 1));
        assert_eq!(m.breaker_totals(), (3, 4));
    }

    #[test]
    fn arrival_percentiles_nearest_rank() {
        let m = Metrics::new();
        assert_eq!(m.arrival_percentile(99.0), None);
        for i in 0..10usize {
            m.record_block_arrival(PeerId(i), SimTime::from_millis((i as u64 + 1) * 10));
        }
        assert_eq!(m.arrival_percentile(50.0), Some(SimTime::from_millis(50)));
        assert_eq!(m.arrival_percentile(99.0), Some(SimTime::from_millis(100)));
        assert_eq!(m.arrival_percentile(0.0), Some(SimTime::from_millis(10)));
        assert_eq!(m.arrival_percentile(100.0), Some(SimTime::from_millis(100)));
    }
}
