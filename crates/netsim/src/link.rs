//! Link model: latency, bandwidth, and fault injection.

use crate::time::SimTime;
use bytes::Bytes;
use rand::{rngs::StdRng, RngExt};

/// Parameters of a point-to-point link.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimTime,
    /// Throughput in bytes per second (0 = infinite).
    pub bandwidth_bps: u64,
    /// Probability a frame is silently dropped (fault injection).
    pub drop_chance: f64,
    /// Probability one byte of a frame is flipped (fault injection).
    pub corrupt_chance: f64,
    /// Probability a frame is delivered twice (fault injection); the extra
    /// copy arrives `reorder_delay` later and is never corrupted.
    pub duplicate_chance: f64,
    /// Probability a frame is held back by `reorder_delay`, letting later
    /// traffic overtake it (fault injection).
    pub reorder_chance: f64,
    /// Extra delay applied to duplicated copies and reordered frames.
    pub reorder_delay: SimTime,
}

impl Default for LinkParams {
    fn default() -> Self {
        // A comfortable WAN link: 50 ms, 50 Mbit/s, no faults.
        LinkParams {
            latency: SimTime::from_millis(50),
            bandwidth_bps: 50_000_000 / 8,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            reorder_delay: SimTime::from_millis(75),
        }
    }
}

/// Coarse latency classes for heterogeneous topologies. The default
/// topology gives every pair the same 50 ms WAN link; real deployments
/// mix data-center neighbors with intercontinental ones, which is
/// exactly the regime where one fixed retry timer cannot be right for
/// everybody. Classes only pick the `latency` field — bandwidth and
/// fault knobs stay at the [`LinkParams`] defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyClass {
    /// Same rack / metro area (2 ms).
    Metro,
    /// Same region (15 ms).
    Regional,
    /// Cross-continent (60 ms).
    Continental,
    /// Intercontinental (150 ms).
    Intercontinental,
}

impl LatencyClass {
    /// One-way propagation delay of this class.
    pub fn latency(self) -> SimTime {
        match self {
            LatencyClass::Metro => SimTime::from_millis(2),
            LatencyClass::Regional => SimTime::from_millis(15),
            LatencyClass::Continental => SimTime::from_millis(60),
            LatencyClass::Intercontinental => SimTime::from_millis(150),
        }
    }

    /// Default link parameters at this class's latency.
    pub fn link(self) -> LinkParams {
        LinkParams { latency: self.latency(), ..LinkParams::default() }
    }

    /// Deterministically assign a class to the unordered pair `(a, b)`.
    /// A pure function of `(seed, min, max)` — symmetric, independent of
    /// call order, and free of any shared RNG, so heterogeneous
    /// topologies stay byte-identical for any `--threads` value. The
    /// distribution is a rough pyramid: metro links are rare, regional
    /// and continental dominate, intercontinental tails off.
    pub fn assign(seed: u64, a: usize, b: usize) -> LatencyClass {
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        let mut x =
            seed ^ lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        match x % 100 {
            0..=9 => LatencyClass::Metro,
            10..=44 => LatencyClass::Regional,
            45..=79 => LatencyClass::Continental,
            _ => LatencyClass::Intercontinental,
        }
    }
}

impl LinkParams {
    /// Transit time for a frame of `bytes` bytes.
    pub fn transit_time(&self, bytes: usize) -> SimTime {
        let serialization = match (bytes as u64 * 1_000_000).checked_div(self.bandwidth_bps) {
            Some(us) => SimTime::from_micros(us),
            None => SimTime::ZERO, // bandwidth 0 = infinite capacity
        };
        self.latency + serialization
    }

    /// Apply fault injection to a frame. Returns `None` when dropped, or the
    /// (possibly corrupted) frame.
    pub fn inject_faults(&self, mut frame: Vec<u8>, rng: &mut StdRng) -> Option<Vec<u8>> {
        if self.drop_chance > 0.0 && rng.random_bool(self.drop_chance.clamp(0.0, 1.0)) {
            return None;
        }
        if self.corrupt_chance > 0.0
            && !frame.is_empty()
            && rng.random_bool(self.corrupt_chance.clamp(0.0, 1.0))
        {
            let idx = rng.random_range(0..frame.len());
            frame[idx] ^= 1 << rng.random_range(0..8);
        }
        Some(frame)
    }

    /// Full fault pipeline: drop, corrupt, duplicate, reorder. Returns the
    /// copies to deliver, each with an *extra* delay on top of
    /// [`transit_time`](Self::transit_time). Draw order is fixed
    /// (drop → corrupt → duplicate → reorder) and every roll is guarded by
    /// its chance being nonzero, so configurations that leave the new
    /// faults at 0.0 consume exactly the RNG stream of
    /// [`inject_faults`](Self::inject_faults) — existing seeded results are
    /// unchanged.
    ///
    /// The frame is reference-counted: the usual no-fault delivery is a
    /// refcount bump, and the payload bytes are only copied when corruption
    /// actually fires (copy-on-write).
    pub fn deliveries(&self, frame: &Bytes, rng: &mut StdRng) -> Vec<(SimTime, Bytes)> {
        if self.drop_chance > 0.0 && rng.random_bool(self.drop_chance.clamp(0.0, 1.0)) {
            return Vec::new();
        }
        let delivered = if self.corrupt_chance > 0.0
            && !frame.is_empty()
            && rng.random_bool(self.corrupt_chance.clamp(0.0, 1.0))
        {
            // Same RNG draws as `inject_faults`: byte index, then bit.
            let idx = rng.random_range(0..frame.len());
            let bit = rng.random_range(0..8);
            let mut copy = frame.to_vec();
            copy[idx] ^= 1 << bit;
            Bytes::from(copy)
        } else {
            frame.clone()
        };
        let mut out = Vec::with_capacity(2);
        let duplicated =
            self.duplicate_chance > 0.0 && rng.random_bool(self.duplicate_chance.clamp(0.0, 1.0));
        let reordered =
            self.reorder_chance > 0.0 && rng.random_bool(self.reorder_chance.clamp(0.0, 1.0));
        let primary_delay = if reordered { self.reorder_delay } else { SimTime::ZERO };
        out.push((primary_delay, delivered));
        if duplicated {
            // The stray copy took another path: clean bytes, extra delay.
            out.push((self.reorder_delay, frame.clone()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn transit_accounts_for_bandwidth() {
        let link = LinkParams {
            latency: SimTime::from_millis(10),
            bandwidth_bps: 1_000_000,
            ..Default::default()
        };
        // 1 MB at 1 MB/s = 1 s + 10 ms.
        assert_eq!(link.transit_time(1_000_000).as_micros(), 1_010_000);
        let infinite = LinkParams { bandwidth_bps: 0, ..link };
        assert_eq!(infinite.transit_time(1_000_000), SimTime::from_millis(10));
    }

    #[test]
    fn faults_disabled_by_default() {
        let link = LinkParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        let frame = vec![1, 2, 3];
        assert_eq!(link.inject_faults(frame.clone(), &mut rng), Some(frame));
    }

    #[test]
    fn drop_chance_drops() {
        let link = LinkParams { drop_chance: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(link.inject_faults(vec![1], &mut rng), None);
    }

    #[test]
    fn deliveries_matches_inject_faults_when_new_faults_off() {
        let link = LinkParams { drop_chance: 0.3, corrupt_chance: 0.3, ..Default::default() };
        for seed in 0..32 {
            let frame = vec![seed as u8; 40];
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let legacy = link.inject_faults(frame.clone(), &mut a);
            let multi = link.deliveries(&Bytes::from(frame), &mut b);
            match legacy {
                None => assert!(multi.is_empty()),
                Some(f) => assert_eq!(multi, vec![(SimTime::ZERO, Bytes::from(f))]),
            }
        }
    }

    #[test]
    fn duplication_yields_two_copies() {
        let link = LinkParams { duplicate_chance: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        let frame = Bytes::from(vec![9u8, 9, 9]);
        let out = link.deliveries(&frame, &mut rng);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (SimTime::ZERO, frame.clone()));
        assert_eq!(out[1], (link.reorder_delay, frame));
    }

    #[test]
    fn reordering_delays_the_primary_copy() {
        let link = LinkParams { reorder_chance: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let frame = Bytes::from(vec![7u8]);
        let out = link.deliveries(&frame, &mut rng);
        assert_eq!(out, vec![(link.reorder_delay, frame)]);
    }

    #[test]
    fn duplicated_copy_is_never_corrupted() {
        let link = LinkParams { corrupt_chance: 1.0, duplicate_chance: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(6);
        let frame = Bytes::from(vec![0u8; 32]);
        let out = link.deliveries(&frame, &mut rng);
        assert_eq!(out.len(), 2);
        assert_ne!(out[0].1, frame, "primary should be corrupted");
        assert_eq!(out[1].1, frame, "duplicate must be pristine");
    }

    #[test]
    fn clean_delivery_shares_the_frame_allocation() {
        // No faults: the delivered copy must be a refcount bump, not a
        // payload copy.
        let link = LinkParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let frame = Bytes::from(vec![5u8; 64]);
        let out = link.deliveries(&frame, &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.as_ptr(), frame.as_ptr(), "expected shared allocation");
    }

    #[test]
    fn latency_class_assignment_is_symmetric_and_deterministic() {
        for seed in [0u64, 7, 0xdead] {
            for a in 0..12usize {
                for b in 0..12usize {
                    assert_eq!(LatencyClass::assign(seed, a, b), LatencyClass::assign(seed, b, a));
                    assert_eq!(LatencyClass::assign(seed, a, b), LatencyClass::assign(seed, a, b));
                }
            }
        }
    }

    #[test]
    fn latency_classes_are_actually_heterogeneous() {
        use std::collections::HashSet;
        let classes: HashSet<_> = (0..16usize)
            .flat_map(|a| (a + 1..16usize).map(move |b| LatencyClass::assign(3, a, b)))
            .map(|c| c.latency())
            .collect();
        assert!(classes.len() >= 3, "a 16-peer topology should mix at least 3 classes");
    }

    #[test]
    fn latency_class_links_keep_default_faults() {
        let link = LatencyClass::Intercontinental.link();
        assert_eq!(link.latency, SimTime::from_millis(150));
        assert_eq!(link.drop_chance, 0.0);
        assert_eq!(link.bandwidth_bps, LinkParams::default().bandwidth_bps);
    }

    #[test]
    fn corruption_flips_one_bit() {
        let link = LinkParams { corrupt_chance: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let frame = vec![0u8; 64];
        let out = link.inject_faults(frame.clone(), &mut rng).expect("not dropped");
        let diff: u32 = frame.iter().zip(&out).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }
}
