//! Chaos sweep over the netsim failure substrate: churn × partition ×
//! crash/restart, on links that also drop, corrupt, duplicate and reorder
//! frames, with every peer running under tightened resource limits and
//! non-zero frame-processing delays (so the bounded inbox actually sheds).
//!
//! Each trial relays one block across [`PEERS`] peers while the chaos
//! schedule fails the environment around the protocol. The sweep proves
//! the two robustness claims of the chaos substrate:
//!
//! 1. **Delivery stays total** — every peer ends the trial holding the
//!    block, no matter which combination of failure modes fired;
//! 2. **Memory stays bounded** — the largest per-peer accounted
//!    high-water mark never exceeds [`ResourceLimits::accounted_ceiling`].
//!
//! Trials run through the deterministic [`Engine`] and the chaos schedule
//! is a pure function of its seed, so every reported number is
//! bit-identical for any `--threads` value.

use crate::{Engine, MaxAcc, MeanAcc, PropAcc, SumAcc};
use graphene::GrapheneConfig;
use graphene_blockchain::{Scenario, ScenarioParams};
use graphene_netsim::{
    ChaosConfig, LinkParams, Network, PeerId, RelayProtocol, ResourceLimits, SimTime,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Peers per trial network (a ring with diameter chords, degree 3).
pub const PEERS: usize = 12;
/// Per-slot churn probabilities the default sweep visits.
pub const CHURN_RATES: &[f64] = &[0.0, 0.02];
/// Partition durations (ms) the default sweep visits (0 = no partition).
pub const PARTITION_MS: &[u64] = &[0, 30_000];
/// Per-slot crash probabilities the default sweep visits.
pub const CRASH_RATES: &[f64] = &[0.0, 0.01];
/// Simulated-time budget per trial — generous, because a partitioned side
/// only learns the block after the heal handshake.
const MAX_TIME: SimTime = SimTime(600_000_000);

/// Tightened per-peer resource limits for the sweep: small enough that
/// duplication storms and reconnect floods exercise load-shedding, large
/// enough that an honest relay still converges.
pub fn sweep_limits() -> ResourceLimits {
    ResourceLimits {
        max_sessions: 16,
        max_pending_announcements: 16,
        max_body_bytes: 256 << 10,
        max_misbehavior_entries: 32,
        max_queue_frames: 256,
        max_queue_bytes: 1 << 20,
        max_rateless_state_bytes: 64 << 10,
        proc_delay_per_frame: SimTime::from_micros(200),
        proc_delay_per_kb: SimTime::from_micros(100),
    }
}

/// Aggregated results for one (churn, partition, crash) sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Whether every peer's ladder ran the rateless coded-cell rung in
    /// place of the inflated Graphene retry.
    pub rateless: bool,
    /// Per-slot churn probability.
    pub churn_rate: f64,
    /// Partition duration in milliseconds (0 = none).
    pub partition_ms: u64,
    /// Per-slot crash probability.
    pub crash_rate: f64,
    /// Fraction of peers that ended holding the block, over all trials.
    pub delivery: f64,
    /// Mean time until the *last* peer held the block (ms).
    pub mean_completion_ms: f64,
    /// Mean total relay traffic (bytes, all frames).
    pub mean_bytes: f64,
    /// Largest per-peer accounted-memory high-water mark seen in any trial.
    pub max_hwm_bytes: f64,
    /// Mean frames shed by bounded inboxes per trial.
    pub mean_shed: f64,
    /// Mean stale timers dropped per trial (cancelled by crash/restart).
    pub mean_stale: f64,
    /// Mean outages (churn + crash) injected per trial.
    pub mean_outages: f64,
}

/// Raw per-trial measurements.
struct Trial {
    with_block: usize,
    completion_ms: f64,
    bytes: f64,
    hwm_bytes: f64,
    shed: f64,
    stale: f64,
    outages: f64,
}

/// One trial: a 12-peer ring-with-chords Graphene network relays one
/// 150-txn block from peer 0 while the chaos schedule churns, crashes and
/// partitions everyone else. With `adaptive` the peers run the RTT-driven
/// failure detector (hedged fetches + circuit breakers) instead of the
/// fixed 2 s timer.
fn run_once(
    rateless: bool,
    adaptive: bool,
    churn_rate: f64,
    partition_ms: u64,
    crash_rate: f64,
    seed: u64,
) -> Trial {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ScenarioParams {
        block_size: 150,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut rng);
    let mut net =
        Network::new(PEERS, RelayProtocol::Graphene(GrapheneConfig::default()), rng.random());
    for i in 0..PEERS {
        let p = net.peer_mut(PeerId(i));
        p.mempool = s.receiver_mempool.clone();
        p.limits = sweep_limits();
    }
    if rateless {
        net.enable_rateless();
    }
    if adaptive {
        net.enable_adaptive();
    }
    // Lossy, duplicating, reordering links at every sweep point — chaos
    // rides on top of an already-imperfect network.
    net.set_default_link(LinkParams {
        latency: SimTime::from_millis(30),
        drop_chance: 0.01,
        corrupt_chance: 0.01,
        duplicate_chance: 0.02,
        reorder_chance: 0.05,
        ..LinkParams::default()
    });
    // Ring plus diameter chords: degree 3, so both partition sides keep
    // internal links and the heal handshake has many cut edges to re-arm.
    for i in 0..PEERS {
        net.connect(PeerId(i), PeerId((i + 1) % PEERS));
    }
    for i in 0..PEERS / 2 {
        net.connect(PeerId(i), PeerId(i + PEERS / 2));
    }
    net.enable_chaos(ChaosConfig {
        seed: rng.random(),
        churn_rate,
        crash_rate,
        // The block needs well under a second to cross a healthy network,
        // so chaos must start immediately — and the partition lands
        // mid-relay — for the failures to intersect the propagation.
        partition_at: (partition_ms > 0).then(|| SimTime::from_millis(500)),
        partition_duration: SimTime::from_millis(partition_ms),
        active_from: SimTime::ZERO,
        active_until: SimTime::from_millis(90_000),
        // The origin is exempt so the trial measures propagation
        // robustness, not loss of the only copy.
        exempt: vec![PeerId(0)],
        ..Default::default()
    });

    net.propagate(PeerId(0), s.block, MAX_TIME);

    let arrivals: Vec<SimTime> =
        (0..PEERS).filter_map(|i| net.metrics.arrival(PeerId(i))).collect();
    let completion = arrivals.iter().max().copied().unwrap_or(MAX_TIME);
    Trial {
        with_block: arrivals.len(),
        completion_ms: completion.0 as f64 / 1_000.0,
        bytes: net.metrics.total_bytes() as f64,
        hwm_bytes: net.metrics.resource_hwm_bytes() as f64,
        shed: net.metrics.shed_frames() as f64,
        stale: net.metrics.stale_timers() as f64,
        outages: (net.metrics.churn_outages() + net.metrics.crashes()) as f64,
    }
}

/// Run `trials` trials at one sweep point through `engine`.
pub fn sweep_point(
    engine: &Engine,
    trials: usize,
    rateless: bool,
    adaptive: bool,
    churn_rate: f64,
    partition_ms: u64,
    crash_rate: f64,
) -> SweepPoint {
    type Acc = (PropAcc, MeanAcc, MeanAcc, MaxAcc, SumAcc, SumAcc, SumAcc);
    let arm = if rateless { "rateless" } else { "retry" };
    let label = format!(
        "chaos churn={:.0}% part={}s crash={:.0}% arm={arm}",
        churn_rate * 100.0,
        partition_ms / 1000,
        crash_rate * 100.0
    );
    let (delivered, completion, bytes, hwm, shed, stale, outages) =
        engine.run(&label, trials, |_, rng: &mut StdRng, acc: &mut Acc| {
            let t =
                run_once(rateless, adaptive, churn_rate, partition_ms, crash_rate, rng.random());
            for i in 0..PEERS {
                acc.0.push(i < t.with_block);
            }
            acc.1.push(t.completion_ms);
            acc.2.push(t.bytes);
            acc.3.push(t.hwm_bytes);
            acc.4.push(t.shed);
            acc.5.push(t.stale);
            acc.6.push(t.outages);
        });
    SweepPoint {
        rateless,
        churn_rate,
        partition_ms,
        crash_rate,
        delivery: delivered.rate(),
        mean_completion_ms: completion.mean(),
        mean_bytes: bytes.mean(),
        max_hwm_bytes: hwm.max(),
        mean_shed: shed.sum() / trials as f64,
        mean_stale: stale.sum() / trials as f64,
        mean_outages: outages.sum() / trials as f64,
    }
}

/// Sweep the full churn × partition × crash grid, in both ladder arms
/// (inflated retries, then the rateless coded-cell rung). The fixed-timer
/// failure detector is used throughout — the adaptive arm has its own
/// sweep (`latency`), and keeping it off here keeps this CSV stable.
pub fn run_sweep(engine: &Engine, trials: usize) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &rateless in &[false, true] {
        for &churn in CHURN_RATES {
            for &part in PARTITION_MS {
                for &crash in CRASH_RATES {
                    points.push(sweep_point(engine, trials, rateless, false, churn, part, crash));
                }
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance scenario: churn + partition + crash at once,
    /// and every peer still ends the trial holding the block with its
    /// accounted memory under the configured ceiling.
    #[test]
    fn combined_chaos_still_delivers_everywhere() {
        let ceiling = sweep_limits().accounted_ceiling() as f64;
        for rateless in [false, true] {
            for seed in [0x0c4a05u64, 0x0c4a06] {
                let t = run_once(rateless, false, 0.02, 30_000, 0.01, seed);
                assert_eq!(
                    t.with_block, PEERS,
                    "a peer missed the block (seed {seed:#x}, rateless={rateless})"
                );
                assert!(t.hwm_bytes <= ceiling, "hwm {} over ceiling {ceiling}", t.hwm_bytes);
                assert!(t.bytes > 0.0);
            }
        }
    }

    /// The adaptive failure detector (hedges + breakers) under full chaos:
    /// delivery must stay total and memory bounded — the breaker reorders
    /// server preference but never blocks a path, so nothing can regress.
    #[test]
    fn combined_chaos_with_adaptive_detector_still_delivers() {
        let ceiling = sweep_limits().accounted_ceiling() as f64;
        for seed in [0x0c4a05u64, 0x0c4a06] {
            let t = run_once(false, true, 0.02, 30_000, 0.01, seed);
            assert_eq!(t.with_block, PEERS, "a peer missed the block (seed {seed:#x}, adaptive)");
            assert!(t.hwm_bytes <= ceiling, "hwm {} over ceiling {ceiling}", t.hwm_bytes);
        }
    }

    /// The all-zero sweep point injects nothing and completes quickly.
    #[test]
    fn quiet_point_is_chaos_free() {
        let t = run_once(false, false, 0.0, 0, 0.0, 0xbead);
        assert_eq!(t.with_block, PEERS);
        // No outages — though stale timers still occur: completed sessions
        // leave their (cancelled) timers to be dropped on pop.
        assert_eq!(t.outages, 0.0);
    }

    /// The sweep is bit-identical for any thread count: the mc engine's
    /// chunked merge order, counter-based trial seeds, and a chaos
    /// schedule that is a pure function of its config seed.
    #[test]
    fn sweep_is_thread_count_invariant() {
        let trials = 3;
        let run = |threads| {
            let engine = Engine::new(threads, 0x51);
            [
                sweep_point(&engine, trials, false, false, 0.0, 0, 0.0),
                sweep_point(&engine, trials, true, false, 0.02, 30_000, 0.01),
            ]
        };
        let (a, b, c) = (run(1), run(2), run(8));
        assert_eq!(a, b, "1 vs 2 threads diverged");
        assert_eq!(a, c, "1 vs 8 threads diverged");
        let ceiling = sweep_limits().accounted_ceiling() as f64;
        for p in &a {
            assert!((p.delivery - 1.0).abs() < 1e-12, "delivery not total: {p:?}");
            assert!(p.max_hwm_bytes <= ceiling, "memory over ceiling: {p:?}");
        }
    }
}
