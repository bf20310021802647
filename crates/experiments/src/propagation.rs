//! Internet-scale propagation sweep: p50/p99 block-propagation latency
//! versus network size, from hundreds of peers up to 100 000.
//!
//! Each trial builds a Barabási–Albert scale-free overlay (attachment
//! degree [`BA_M`], matching measured Bitcoin-like topologies: a few
//! high-degree hubs, a long leaf tail), assigns every link a latency
//! drawn from the geographic [`LatencyClass`](graphene_netsim::LatencyClass) pyramid — storage-free, so
//! a 100k-peer network carries no per-pair link table — and relays one
//! Graphene block from peer 0 under the adaptive gossip fan-out policy
//! ([`FanoutPolicy::Adaptive`]): [`FANOUT`] announcements per wave,
//! doubling on each retry and flooding the remainder before the retry
//! ladder gives up, so hubs with thousands of neighbors never burst
//! thousands of frames at once.
//!
//! The sweep reports delivery (asserted 100% at every size by the
//! binary), mean p50/p99 block-arrival times, the event-queue and
//! wheel-slot high-water marks of the timing-wheel scheduler, and the
//! per-peer accounted-memory high-water mark against the §6.2 ceiling —
//! the scale claim is only meaningful if memory stays bounded while the
//! network grows 1000×.
//!
//! Trials run through the deterministic [`Engine`], so every reported
//! number is bit-identical for any `--threads` value.
//!
//! # Shared setup
//!
//! Per-trial setup is dominated by handing every peer the base mempool.
//! `Mempool` is copy-on-write (`Arc`-backed), so the per-peer assignment
//! below is a reference-count bump — the map is shared by all `n` peers
//! until a peer first mutates its pool (confirming the relayed block),
//! which is O(peers) instead of O(peers · m) per trial. Topology and
//! scenario are *not* shared across trials on purpose: each trial draws
//! its scenario, geographic-link and Barabási–Albert seeds from its own
//! counter-derived RNG, which is exactly what makes the sweep's CSV
//! byte-identical at `--threads 1/2/8` (asserted below and by CI's
//! cross-thread `cmp`); hoisting those draws out of the trial closure
//! would reshuffle every seed and change the published numbers.

use crate::{Engine, MaxAcc, PropAcc, SumAcc};
use graphene::GrapheneConfig;
use graphene_blockchain::{Scenario, ScenarioParams};
use graphene_netsim::{
    barabasi_albert, FanoutPolicy, Network, PeerId, RelayProtocol, ResourceLimits, SimTime,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Barabási–Albert attachment degree (mean degree ≈ 8, like measured
/// reachable-node overlays).
pub const BA_M: usize = 4;
/// First-wave announcement fan-out per peer.
pub const FANOUT: usize = 4;
/// Transactions per relayed block. Small on purpose: the sweep measures
/// the *network* — scheduler, topology, fan-out — not codec throughput,
/// and 100k peers each decode the block once per trial.
pub const BLOCK_TXNS: usize = 30;
/// Simulated-time budget per trial (10 min, far past convergence).
const MAX_TIME: SimTime = SimTime(600_000_000);

/// Aggregated results for one network size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Network size (number of peers).
    pub peers: usize,
    /// Trials aggregated into this point.
    pub trials: usize,
    /// Fraction of peers that ended holding the block, over all trials.
    pub delivery: f64,
    /// Mean per-trial median block-arrival time (ms).
    pub p50_ms: f64,
    /// Mean per-trial 99th-percentile block-arrival time (ms).
    pub p99_ms: f64,
    /// Peak events pending in the timing wheel, max over trials.
    pub event_queue_hwm: u64,
    /// Peak occupancy of a single wheel slot, max over trials.
    pub wheel_slot_hwm: u64,
    /// Peak accounted per-peer memory (bytes), max over peers and trials.
    pub resource_hwm_bytes: u64,
    /// The §6.2 accounted-memory ceiling those peers ran under.
    pub ceiling_bytes: u64,
}

/// Raw per-trial measurements.
struct Trial {
    with_block: usize,
    p50_ms: f64,
    p99_ms: f64,
    event_queue_hwm: u64,
    wheel_slot_hwm: u64,
    resource_hwm_bytes: u64,
}

/// One trial: a scale-free Graphene network of `n` peers on geographic
/// links relays one block from peer 0 under adaptive fan-out.
fn run_once(n: usize, seed: u64) -> Trial {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ScenarioParams {
        block_size: BLOCK_TXNS,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut rng);
    let mut net = Network::new(n, RelayProtocol::Graphene(GrapheneConfig::default()), rng.random());
    for i in 0..n {
        // Copy-on-write: all n peers share one map until they mutate it.
        net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
    }
    net.enable_geographic_links(rng.random());
    net.set_fanout(FanoutPolicy::Adaptive { initial: FANOUT });
    let edges = barabasi_albert(n, BA_M.min(n.saturating_sub(1)).max(1), rng.random());
    net.connect_edges(&edges);

    net.propagate(PeerId(0), s.block, MAX_TIME);

    Trial {
        with_block: net.metrics.peers_with_block(),
        p50_ms: net.metrics.arrival_percentile(50.0).map_or(f64::NAN, |t| t.0 as f64 / 1_000.0),
        p99_ms: net.metrics.arrival_percentile(99.0).map_or(f64::NAN, |t| t.0 as f64 / 1_000.0),
        event_queue_hwm: net.metrics.event_queue_hwm(),
        wheel_slot_hwm: net.metrics.wheel_slot_hwm(),
        resource_hwm_bytes: net.metrics.resource_hwm_bytes(),
    }
}

/// Trials per size: one 100k-peer simulation costs as much as hundreds
/// of 1k-peer ones, and the quantity under study (propagation depth on
/// a fixed topology family) has tiny between-trial variance at large
/// `n`, so the big points need few repetitions.
pub fn trials_for(base: usize, n: usize) -> usize {
    match n {
        0..=1_000 => base.max(1),
        1_001..=10_000 => (base / 5).max(3),
        10_001..=50_000 => 2,
        _ => 1,
    }
}

/// Run `trials` trials at network size `n` through `engine`.
pub fn sweep_point(engine: &Engine, trials: usize, n: usize) -> SweepPoint {
    type Acc = (PropAcc, SumAcc, SumAcc, MaxAcc, MaxAcc, MaxAcc);
    let label = format!("propagation n={n}");
    let (delivered, p50, p99, eq_hwm, slot_hwm, res_hwm) =
        engine.run(&label, trials, |_, rng: &mut StdRng, acc: &mut Acc| {
            let t = run_once(n, rng.random());
            acc.0.push(t.with_block == n);
            acc.1.push(t.p50_ms);
            acc.2.push(t.p99_ms);
            acc.3.push(t.event_queue_hwm as f64);
            acc.4.push(t.wheel_slot_hwm as f64);
            acc.5.push(t.resource_hwm_bytes as f64);
        });
    let nt = trials as f64;
    SweepPoint {
        peers: n,
        trials,
        delivery: delivered.rate(),
        p50_ms: p50.sum() / nt,
        p99_ms: p99.sum() / nt,
        event_queue_hwm: eq_hwm.max() as u64,
        wheel_slot_hwm: slot_hwm.max() as u64,
        resource_hwm_bytes: res_hwm.max() as u64,
        ceiling_bytes: ResourceLimits::default().accounted_ceiling(),
    }
}

/// Sweep the given network sizes, scaling trials down as `n` grows.
pub fn run_sweep(engine: &Engine, base_trials: usize, sizes: &[usize]) -> Vec<SweepPoint> {
    sizes.iter().map(|&n| sweep_point(engine, trials_for(base_trials, n), n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every peer of a 500-node scale-free network gets the block, the
    /// latency percentiles are sane, and the scheduler/memory gauges
    /// actually moved.
    #[test]
    fn five_hundred_peer_point_delivers_fully() {
        let engine = Engine::new(4, 0x9097);
        let p = sweep_point(&engine, 3, 500);
        assert!((p.delivery - 1.0).abs() < 1e-12, "delivery not total: {p:?}");
        assert!(p.p50_ms > 0.0 && p.p50_ms.is_finite(), "{p:?}");
        assert!(p.p99_ms >= p.p50_ms, "{p:?}");
        assert!(p.event_queue_hwm > 0, "{p:?}");
        assert!(p.wheel_slot_hwm > 0, "{p:?}");
        assert!(
            p.resource_hwm_bytes > 0 && p.resource_hwm_bytes <= p.ceiling_bytes,
            "accounted memory escaped the ceiling: {p:?}"
        );
    }

    /// Propagation latency grows sub-linearly with network size: scale-
    /// free diameters grow ~log n, so 10× the peers must cost far less
    /// than 10× the p99.
    #[test]
    fn latency_grows_sublinearly() {
        let engine = Engine::new(4, 0x9098);
        let small = sweep_point(&engine, 3, 100);
        let large = sweep_point(&engine, 2, 1_000);
        assert!((small.delivery - 1.0).abs() < 1e-12, "{small:?}");
        assert!((large.delivery - 1.0).abs() < 1e-12, "{large:?}");
        assert!(
            large.p99_ms < small.p99_ms * 5.0,
            "p99 blew up with size: {} ms @100 vs {} ms @1000",
            small.p99_ms,
            large.p99_ms
        );
    }

    /// The sweep is bit-identical for any thread count.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let run = |threads| {
            let engine = Engine::new(threads, 0x51);
            [sweep_point(&engine, 3, 120), sweep_point(&engine, 2, 400)]
        };
        let (a, b, c) = (run(1), run(2), run(8));
        assert_eq!(a, b, "1 vs 2 threads diverged");
        assert_eq!(a, c, "1 vs 8 threads diverged");
    }
}
