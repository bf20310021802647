//! Reproducibility: identical seeds must give identical results everywhere.
//! The evaluation's credibility rests on this — a figure regenerated on
//! another machine must match byte for byte.

use graphene::config::GrapheneConfig;
use graphene::session::{relay_block, RelayOutcome};
use graphene_blockchain::{Scenario, ScenarioParams};
use graphene_experiments::{fanout, Engine, MeanAcc, PropAcc};
use graphene_iblt_params::{search_c, FailureRate, SearchConfig};
use graphene_netsim::{
    barabasi_albert, AdversaryConfig, Behavior, ChaosConfig, FanoutPolicy, LatencyClass,
    LinkParams, Network, PeerId, RelayProtocol, SimTime,
};
use rand::{rngs::StdRng, RngExt, SeedableRng};

#[test]
fn relay_reports_are_deterministic() {
    let cfg = GrapheneConfig::default();
    let params = ScenarioParams {
        block_size: 300,
        extra_mempool_multiple: 1.5,
        block_fraction_in_mempool: 0.7,
        ..Default::default()
    };
    let run = || {
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(77));
        relay_block(&s.block, None, &s.receiver_mempool, &cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn param_search_is_deterministic() {
    let cfg = SearchConfig { max_trials: 4000, ..SearchConfig::default() };
    let a = search_c(40, 4, FailureRate(1.0 / 24.0), &cfg);
    let b = search_c(40, 4, FailureRate(1.0 / 24.0), &cfg);
    assert_eq!(a, b);
}

/// The tentpole guarantee of the Monte Carlo engine: a whole figure-style
/// sweep (the fig. 14 inner loop — mean relay bytes and decode failures
/// per point) produces bit-identical series at 1, 2 and 8 worker threads.
#[test]
fn figure_sweep_is_thread_count_invariant() {
    let cfg = GrapheneConfig::default();
    let sweep = |threads: usize| -> Vec<u64> {
        let engine = Engine::new(threads, 0xfeed);
        let mut series = Vec::new();
        for n in [40usize, 100] {
            let params = ScenarioParams {
                block_size: n,
                extra_mempool_multiple: 1.0,
                block_fraction_in_mempool: 0.9,
                ..Default::default()
            };
            let (bytes, fails) = engine.run_quiet(
                &format!("invariance n={n}"),
                150,
                |_, rng: &mut StdRng, acc: &mut (MeanAcc, PropAcc)| {
                    let s = Scenario::generate(&params, rng);
                    let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg);
                    acc.0.push(r.bytes.total_excluding_txns() as f64);
                    acc.1.push(!matches!(
                        r.outcome,
                        RelayOutcome::DecodedP1 | RelayOutcome::DecodedP2 { .. }
                    ));
                },
            );
            let (mean, ci) = bytes.ci95();
            series.push(mean.to_bits());
            series.push(ci.to_bits());
            series.push(fails.successes());
        }
        series
    };
    let one = sweep(1);
    assert_eq!(one, sweep(2), "2-thread sweep diverged from 1-thread");
    assert_eq!(one, sweep(8), "8-thread sweep diverged from 1-thread");
}

/// The encode-once fan-out sweep behind `results/fanout_sweep.csv` is
/// bit-identical at 1, 2 and 8 worker threads: every aggregated field —
/// float means, hit rate, max cache occupancy — compares equal, so the
/// emitted CSV is byte-identical for any `--threads` value.
#[test]
fn fanout_sweep_is_thread_count_invariant() {
    let run = |threads: usize| {
        let engine = Engine::new(threads, 0xeca1);
        [fanout::sweep_point(&engine, 2, 120), fanout::sweep_point(&engine, 2, 260)]
    };
    let (a, b, c) = (run(1), run(2), run(8));
    assert_eq!(a, b, "1 vs 2 threads diverged");
    assert_eq!(a, c, "1 vs 8 threads diverged");
    for p in &a {
        assert_eq!(p.frame_mismatches, 0.0, "cached frame diverged: {p:?}");
        assert!((p.delivery_cached - 1.0).abs() < 1e-12, "delivery not total: {p:?}");
        assert!((p.delivery_uncached - 1.0).abs() < 1e-12, "delivery not total: {p:?}");
    }
}

/// Chaos grid with every peer's encode-once relay cache enabled: churn
/// plus a mid-relay partition on lossy, duplicating, reordering links
/// still delivers the block to all peers, the caches actually serve hits
/// along the way, and accounted memory (cache included) stays under the
/// configured ceiling. Cache-served frames are byte-identical to fresh
/// encodes, so turning caches on must never cost delivery.
#[test]
fn chaos_grid_with_relay_caches_still_delivers_everywhere() {
    use graphene_experiments::chaos::{sweep_limits, PEERS};
    let params = ScenarioParams {
        block_size: 150,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(0x0ca9e));
    let mut net = Network::new(PEERS, RelayProtocol::Graphene(GrapheneConfig::default()), 0xd1);
    for i in 0..PEERS {
        let p = net.peer_mut(PeerId(i));
        p.mempool = s.receiver_mempool.clone();
        p.limits = sweep_limits();
        p.enable_encode_cache();
    }
    net.set_default_link(LinkParams {
        latency: SimTime::from_millis(30),
        drop_chance: 0.01,
        corrupt_chance: 0.01,
        duplicate_chance: 0.02,
        reorder_chance: 0.05,
        ..LinkParams::default()
    });
    for i in 0..PEERS {
        net.connect(PeerId(i), PeerId((i + 1) % PEERS));
    }
    for i in 0..PEERS / 2 {
        net.connect(PeerId(i), PeerId(i + PEERS / 2));
    }
    net.enable_chaos(ChaosConfig {
        seed: 0x7e11,
        churn_rate: 0.02,
        partition_at: Some(SimTime::from_millis(500)),
        partition_duration: SimTime::from_millis(30_000),
        active_from: SimTime::ZERO,
        active_until: SimTime::from_millis(90_000),
        exempt: vec![PeerId(0)],
        ..Default::default()
    });
    net.propagate(PeerId(0), s.block, SimTime(600_000_000));

    let reached = (0..PEERS).filter(|&i| net.metrics.arrival(PeerId(i)).is_some()).count();
    assert_eq!(reached, PEERS, "a peer missed the block with relay caches on");
    let cache = net.metrics.cache_stats();
    assert!(cache.hits >= 1, "fan-out under churn produced no cache hits: {cache:?}");
    assert!(cache.bytes_saved > 0, "hits saved no frame bytes: {cache:?}");
    let ceiling = sweep_limits().accounted_ceiling();
    assert!(
        net.metrics.resource_hwm_bytes() <= ceiling,
        "hwm {} over ceiling {ceiling}",
        net.metrics.resource_hwm_bytes()
    );
}

#[test]
fn network_simulation_is_deterministic() {
    let run = || {
        let params =
            ScenarioParams { block_size: 120, extra_mempool_multiple: 1.0, ..Default::default() };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(3));
        let mut net = Network::new(6, RelayProtocol::Graphene(GrapheneConfig::default()), 11);
        for i in 0..6 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        net.connect_random(2);
        net.propagate(PeerId(0), s.block, SimTime::from_millis(120_000))
    };
    assert_eq!(run(), run());
}

// --- Whole propagations against the reports of the parent build -----------

/// The simulator shapes of the recorded table, each run on
/// [`NETSIM_SEEDS`] seeds.
const NETSIM_SHAPES: [&str; 4] = ["gossip", "faulty", "chaos", "line_p2"];
const NETSIM_SEEDS: u64 = 16;

/// One propagation of `shape`, reported on one line: peers reached,
/// completion time, bytes, frames sent and dropped, then the fault and
/// recovery counters and the arrival percentiles (µs).
fn netsim_report_line(shape: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
    let protocol = RelayProtocol::Graphene(GrapheneConfig::default());
    let mut scenario = |n: usize, held: f64| {
        let params = ScenarioParams {
            block_size: n,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: held,
            ..Default::default()
        };
        Scenario::generate(&params, &mut rng)
    };
    let lossy = LinkParams {
        drop_chance: 0.03,
        corrupt_chance: 0.01,
        duplicate_chance: 0.02,
        reorder_chance: 0.05,
        ..LinkParams::default()
    };
    let (mut net, block) = match shape {
        // The `sim_gossip` benchmark shape, small: scale-free topology,
        // geographic latencies, adaptive fan-out, clean links.
        "gossip" => {
            let s = scenario(30, 1.0);
            let mut net = Network::new(40, protocol, rng.random());
            for i in 0..40 {
                net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
            }
            net.enable_geographic_links(rng.random());
            net.set_fanout(FanoutPolicy::Adaptive { initial: 4 });
            net.connect_edges(&barabasi_albert(40, 4, rng.random()));
            (net, s.block)
        }
        // The `sim_faulty` benchmark shape, small: lossy corrupting links
        // on every edge and every tenth peer a hostile server.
        "faulty" => {
            let s = scenario(100, 1.0);
            let mut net = Network::new(30, protocol, rng.random());
            let geo_seed: u64 = rng.random();
            for &(a, b) in &barabasi_albert(30, 4, rng.random()) {
                let (a, b) = (a as usize, b as usize);
                let link =
                    LinkParams { latency: LatencyClass::assign(geo_seed, a, b).latency(), ..lossy };
                net.connect_with(PeerId(a), PeerId(b), link);
            }
            for i in 0..30 {
                let peer = net.peer_mut(PeerId(i));
                peer.mempool = s.receiver_mempool.clone();
                if i % 10 == 9 {
                    peer.behavior = Behavior::Adversarial(AdversaryConfig {
                        malformed_iblt: 0.3,
                        stall: 0.3,
                        garbage: 0.2,
                        seed: rng.random(),
                        ..Default::default()
                    });
                }
            }
            (net, s.block)
        }
        // A ring with chords under churn, crashes and a mid-relay partition.
        "chaos" => {
            let s = scenario(60, 1.0);
            let mut net = Network::new(12, protocol, rng.random());
            net.set_default_link(LinkParams { latency: SimTime::from_millis(30), ..lossy });
            for i in 0..12 {
                let peer = net.peer_mut(PeerId(i));
                peer.mempool = s.receiver_mempool.clone();
                peer.limits = graphene_experiments::chaos::sweep_limits();
                net.connect(PeerId(i), PeerId((i + 1) % 12));
            }
            for i in 0..6 {
                net.connect(PeerId(i), PeerId(i + 6));
            }
            net.enable_chaos(ChaosConfig {
                seed: rng.random(),
                churn_rate: 0.02,
                crash_rate: 0.01,
                partition_at: Some(SimTime::from_millis(500)),
                partition_duration: SimTime::from_millis(30_000),
                active_from: SimTime::ZERO,
                active_until: SimTime::from_millis(90_000),
                exempt: vec![PeerId(0)],
                ..Default::default()
            });
            (net, s.block)
        }
        // A line of receivers that each hold 60 % of the block, so every
        // hop runs Protocol 2 and the fetch round.
        "line_p2" => {
            let s = scenario(100, 0.6);
            let mut net = Network::new(8, protocol, rng.random());
            for i in 0..8 {
                net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
            }
            for i in 0..7 {
                net.connect(PeerId(i), PeerId(i + 1));
            }
            (net, s.block)
        }
        other => panic!("no such shape: {other}"),
    };
    let r = net.propagate(PeerId(0), block, SimTime(600_000_000));
    let m = &net.metrics;
    let us = |t: Option<SimTime>| t.map_or("-".to_string(), |t| t.0.to_string());
    format!(
        "{shape} {seed}: reached={} done={} bytes={} frames={}/{} bad_decodes={} bans={} \
         failovers={} escalations={} stale_timers={} arrival={}/{}",
        r.peers_reached,
        us(r.completion_time),
        r.total_bytes,
        r.frames.0,
        r.frames.1,
        m.bad_decodes(),
        m.bans(),
        m.failovers(),
        m.escalations(),
        m.stale_timers(),
        us(m.arrival_percentile(50.0)),
        us(m.arrival_percentile(99.0)),
    )
}

/// Whole propagations — scheduler, links, codec, peer handler, ladder,
/// bans, chaos — must report what `tests/netsim_reports.txt` records. The
/// table was last recorded at the hash diet (PR 23), which changed what is
/// in every filter and IBLT on purpose; a change that does not mean to move
/// the wire must leave every line where it is.
#[test]
fn propagations_report_what_the_recorded_table_says() {
    let recorded = include_str!("netsim_reports.txt");
    let mut lines = recorded.lines();
    for shape in NETSIM_SHAPES {
        for seed in 0..NETSIM_SEEDS {
            let line = netsim_report_line(shape, seed);
            assert_eq!(Some(line.as_str()), lines.next(), "{shape} seed {seed}");
        }
    }
    assert_eq!(lines.next(), None, "the table has rows no propagation produced");
}

/// Re-record `tests/netsim_reports.txt` from this build, for a change that
/// moves wire contents on purpose and says so:
/// `cargo test --release --test determinism rerecord -- --ignored`.
#[test]
#[ignore = "overwrites tests/netsim_reports.txt"]
fn rerecord_netsim_reports() {
    let mut table = String::new();
    for shape in NETSIM_SHAPES {
        for seed in 0..NETSIM_SEEDS {
            table += &netsim_report_line(shape, seed);
            table.push('\n');
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/netsim_reports.txt");
    std::fs::write(path, table).expect("the table is writable");
}
