//! The simulator workloads: one op builds a fresh `graphene_netsim`
//! network and propagates one block to every peer.

use crate::recon::{relay, replay_layers, TraceCounts};
use crate::span::{span_us, Aggregate, Tracer};
use crate::workload::{derive_seed, Layers, Outcome, Workload};
use graphene::{GrapheneConfig, RecoveryPolicy};
use graphene_blockchain::{Scenario, ScenarioParams, Transaction};
use graphene_netsim::adversary::{AdversaryConfig, Behavior};
use graphene_netsim::event::{Event, EventQueue};
use graphene_netsim::{
    barabasi_albert, FanoutPolicy, LatencyClass, LinkParams, Network, PeerId, RelayProtocol,
    SimTime,
};
use graphene_wire::messages::InvMsg;
use graphene_wire::{Decode, Encode, Message};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Barabási–Albert attachment degree and first-wave fan-out of the
/// committed `results/propagation_sweep.csv` configuration.
const BA_M: usize = 4;
const FANOUT: usize = 4;
/// Simulated-time budget per propagation (10 min, far past convergence).
const MAX_TIME: SimTime = SimTime(600_000_000);
/// Repetitions of the `Inv` codec replay, for timer resolution.
const INV_REPS: u32 = 64;

#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub peers: usize,
    pub block_txns: usize,
    /// Lossy, corrupting links on every edge and every tenth peer hostile.
    pub faulty: bool,
}

pub fn spec(name: &str, scale: f64) -> Option<SimSpec> {
    let scaled = |x: usize| (x as f64 * scale).round() as usize;
    match name {
        "sim_gossip" => Some(SimSpec { peers: scaled(500), block_txns: 30, faulty: false }),
        "sim_faulty" => Some(SimSpec { peers: scaled(150), block_txns: 100, faulty: true }),
        _ => None,
    }
}

/// Sums of `Network::metrics` over the ops that fed them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct NetCounts {
    ops: u64,
    frames: u64,
    events_hwm: u64,
    stale_timers: u64,
    dropped: u64,
    bad_decodes: u64,
    failovers: u64,
    escalations: u64,
    bans: u64,
    shed_frames: u64,
    resource_hwm_b: u64,
    arrival_p50_us: u64,
    arrival_p99_us: u64,
}

impl NetCounts {
    fn note(&mut self, net: &Network) {
        let m = &net.metrics;
        self.ops += 1;
        self.frames += m.frames();
        self.events_hwm += m.event_queue_hwm();
        self.stale_timers += m.stale_timers();
        self.dropped += m.dropped();
        self.bad_decodes += m.bad_decodes();
        self.failovers += m.failovers();
        self.escalations += m.escalations();
        self.bans += m.bans();
        self.shed_frames += m.shed_frames();
        self.resource_hwm_b += m.resource_hwm_bytes();
        self.arrival_p50_us += m.arrival_percentile(50.0).map_or(0, |t| t.0);
        self.arrival_p99_us += m.arrival_percentile(99.0).map_or(0, |t| t.0);
    }
}

pub struct Sim {
    spec: SimSpec,
    seed: u64,
    /// Whole-run sums (the fault gate) and count-window sums (the metrics).
    run_counts: NetCounts,
    window_counts: NetCounts,
}

fn maybe_span<R>(t: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

impl Sim {
    pub fn new(spec: SimSpec, seed: u64) -> Sim {
        Sim { spec, seed, run_counts: NetCounts::default(), window_counts: NetCounts::default() }
    }

    fn is_hostile(&self, peer: usize) -> bool {
        // Peer 0 originates the block and stays honest.
        self.spec.faulty && peer % 10 == 9
    }

    fn scenario(&self, rng: &mut StdRng) -> Scenario {
        let params = ScenarioParams {
            block_size: self.spec.block_txns,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: 1.0,
            ..Default::default()
        };
        Scenario::generate(&params, rng)
    }

    /// Build the network of op `index` and propagate one block through it.
    /// Every seed the op uses comes from `(self.seed, index)`.
    fn propagate(&self, index: u64, mut t: Option<&mut Tracer>) -> (Network, Scenario, Outcome) {
        let n = self.spec.peers;
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, index));
        let s = self.scenario(&mut rng);
        let block = s.block.clone();

        let mut net = maybe_span(t.as_deref_mut(), "netsim.build", || {
            let protocol = RelayProtocol::Graphene(GrapheneConfig::default());
            let mut net = Network::new(n, protocol, rng.random());
            for i in 0..n {
                // Copy-on-write: all peers share one map until they mutate it.
                net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
            }
            let geo_seed: u64 = rng.random();
            let edges = barabasi_albert(n, BA_M.min(n.saturating_sub(1)).max(1), rng.random());
            if self.spec.faulty {
                // Faults go on explicit per-edge links: a default link set
                // after `enable_geographic_links` is never consulted.
                for &(a, b) in &edges {
                    let (a, b) = (a as usize, b as usize);
                    let link = LinkParams {
                        drop_chance: 0.03,
                        corrupt_chance: 0.01,
                        duplicate_chance: 0.02,
                        reorder_chance: 0.05,
                        ..LatencyClass::assign(geo_seed, a, b).link()
                    };
                    net.connect_with(PeerId(a), PeerId(b), link);
                }
                for i in (0..n).filter(|&i| self.is_hostile(i)) {
                    net.peer_mut(PeerId(i)).behavior = Behavior::Adversarial(AdversaryConfig {
                        malformed_iblt: 0.3,
                        stall: 0.3,
                        garbage: 0.2,
                        seed: rng.random(),
                        ..Default::default()
                    });
                }
            } else {
                net.enable_geographic_links(geo_seed);
                net.set_fanout(FanoutPolicy::Adaptive { initial: FANOUT });
                net.connect_edges(&edges);
            }
            net
        });

        let result =
            maybe_span(t, "netsim.propagate", || net.propagate(PeerId(0), block, MAX_TIME));

        let honest = (1..n).filter(|&i| !self.is_hostile(i));
        let attempted = honest.clone().count() as u64;
        let reached = honest.filter(|&i| net.metrics.arrival(PeerId(i)).is_some()).count() as u64;
        let outcome = Outcome {
            attempted,
            failed: attempted - reached,
            wire_bytes: result.total_bytes,
            msgs: result.frames.0,
        };
        (net, s, outcome)
    }

    fn note(&mut self, index: u64, net: &Network) {
        self.run_counts.note(net);
        if index < self.count_window() {
            self.window_counts.note(net);
        }
    }
}

/// Schedule and pop as many events as the propagation did (a delivery and
/// a drain per frame), holding about as many pending as it held.
fn replay_scheduler(frames: u64, hwm: u64, horizon_us: u64) {
    let total = 2 * frames.max(1);
    let step = (horizon_us / total).max(1);
    let pending = hwm.clamp(1, total);
    let mut q = EventQueue::new();
    for i in 0..total {
        if i >= pending {
            black_box(q.pop());
        }
        let at = SimTime(q.now().0 + (i % pending + 1) * step);
        q.schedule(at, Event::Drain { peer: PeerId((i % 1024) as usize) });
    }
    while let Some(e) = q.pop() {
        black_box(e);
    }
}

impl Workload for Sim {
    fn warmup_ops(&self) -> u64 {
        3
    }

    fn count_window(&self) -> u64 {
        // Faulty links make bytes per delivery vary a few percent from op
        // to op; this many ops average that down to under one percent and
        // still fit in a third of a run on a machine half as fast.
        128
    }

    fn op(&mut self, index: u64) -> (Duration, Outcome) {
        let start = Instant::now();
        let (net, _, outcome) = self.propagate(index, None);
        let took = start.elapsed();
        self.note(index, &net);
        (took, outcome)
    }

    fn traced_op(
        &mut self,
        index: u64,
        t: &mut Tracer,
        counts: &mut TraceCounts,
    ) -> (Duration, Outcome) {
        let before = t.spans().len();
        let (net, outcome) = t.span("op", |t| {
            let (net, s, outcome) =
                t.span("netsim.op", |t| counts.counting_allocs(|| self.propagate(index, Some(t))));
            let m = &net.metrics;
            let horizon_us = m.arrival_percentile(100.0).map_or(1, |t| t.0);
            t.span("netsim.sched_replay", |_| {
                replay_scheduler(m.frames(), m.event_queue_hwm(), horizon_us)
            });
            let inv = Message::Inv(InvMsg { block_id: s.block.id() });
            t.span("wire.inv_codec", |_| {
                for _ in 0..INV_REPS {
                    black_box(Message::decode_exact(black_box(&inv.to_vec())).is_ok());
                }
            });
            let (cfg, policy) = (GrapheneConfig::default(), RecoveryPolicy::default());
            let report = t.span("core.relay", |_| relay(&s, &cfg, &policy));
            counts.note_ladder(&report);
            replay_layers(t, &s, &cfg, counts);
            (net, outcome)
        });
        self.note(index, &net);
        let took = Duration::from_nanos(t.spans()[before + 1].duration_ns());
        (took, outcome)
    }

    fn sample_pool(&self) -> Vec<Transaction> {
        let s = self.scenario(&mut StdRng::seed_from_u64(derive_seed(self.seed, 0)));
        s.receiver_mempool.iter().cloned().collect()
    }

    fn check(&self) -> Result<(), String> {
        let c = &self.run_counts;
        if self.spec.faulty && (c.dropped == 0 || c.bad_decodes == 0 || c.bans == 0) {
            return Err(format!(
                "injected faults did not fire: {} drops, {} bad decodes, {} bans over {} ops",
                c.dropped, c.bad_decodes, c.bans, c.ops
            ));
        }
        Ok(())
    }

    fn layer_metrics(
        &self,
        agg: &BTreeMap<&'static str, Aggregate>,
        traced_ops: u64,
        out: &mut Layers,
    ) {
        let us = |name: &str| span_us(agg, name, traced_ops);
        let c = &self.window_counts;
        let per_op = |sum: u64| sum as f64 / c.ops.max(1) as f64;
        let deliveries = (self.spec.peers - 1) as f64;
        let frames = per_op(c.frames);

        // Every delivery carries one Protocol 1 frame and is reconciled
        // once at each end; every frame costs at least an `Inv`'s codec.
        let codec = deliveries * (us("wire.encode") + us("wire.decode"))
            + frames * us("wire.inv_codec") / f64::from(INV_REPS);
        let recon = deliveries * (us("core.p1_encode") + us("core.p1_decode"));
        out.insert("netsim.build_us", us("netsim.build"));
        out.insert("netsim.propagate_us", us("netsim.propagate"));
        out.insert("netsim.sched_replay_us", us("netsim.sched_replay"));
        out.insert("wire.codec_replay_us", codec);
        out.insert("core.recon_replay_us", recon);
        out.insert(
            "netsim.self_us",
            us("netsim.propagate") - us("netsim.sched_replay") - codec - recon,
        );
        out.insert("netsim.frames_per_op", frames);
        out.insert("netsim.events_hwm", per_op(c.events_hwm));
        out.insert("netsim.stale_timers", per_op(c.stale_timers));
        out.insert("netsim.frames_dropped", per_op(c.dropped));
        out.insert("netsim.bad_decodes", per_op(c.bad_decodes));
        out.insert("netsim.failovers", per_op(c.failovers));
        out.insert("netsim.escalations", per_op(c.escalations));
        out.insert("netsim.bans", per_op(c.bans));
        out.insert("netsim.shed_frames", per_op(c.shed_frames));
        out.insert("netsim.resource_hwm_b", per_op(c.resource_hwm_b));
        out.insert("netsim.arrival_ms_p50", per_op(c.arrival_p50_us) / 1_000.0);
        out.insert("netsim.arrival_ms_p99", per_op(c.arrival_p99_us) / 1_000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(faulty: bool) -> SimSpec {
        SimSpec { peers: 40, block_txns: 20, faulty }
    }

    #[test]
    fn same_seed_same_counts_other_seed_other_topology() {
        let run = |seed| {
            let mut w = Sim::new(tiny(true), seed);
            let outcomes: Vec<Outcome> = (0..3).map(|i| w.op(i).1).collect();
            (outcomes, w.run_counts)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn gossip_reaches_everyone_and_traced_counts_match() {
        let mut plain = Sim::new(tiny(false), 4);
        let expected = plain.op(0).1;
        assert_eq!((expected.attempted, expected.failed), (39, 0));

        let mut w = Sim::new(tiny(false), 4);
        let (mut t, mut counts) = (Tracer::new(), TraceCounts::default());
        let (took, outcome) = w.traced_op(0, &mut t, &mut counts);
        assert_eq!(outcome, expected);
        assert_eq!(w.window_counts, plain.window_counts);
        let agg = crate::span::aggregate(t.spans());
        assert_eq!(took.as_nanos() as u64, agg["netsim.op"].total_ns);
        assert!(
            agg["netsim.build"].total_ns + agg["netsim.propagate"].total_ns
                <= agg["netsim.op"].total_ns
        );
        let mut layers = Layers::new();
        w.layer_metrics(&agg, 1, &mut layers);
        assert!(layers["netsim.frames_per_op"] >= 39.0 * 3.0, "{layers:?}");
        assert!(layers["netsim.arrival_ms_p99"] >= layers["netsim.arrival_ms_p50"]);
    }

    #[test]
    fn hostile_peers_are_every_tenth_and_never_the_origin() {
        let w = Sim::new(tiny(true), 1);
        let hostile: Vec<usize> = (0..40).filter(|&i| w.is_hostile(i)).collect();
        assert_eq!(hostile, vec![9, 19, 29, 39]);
        assert!((0..40).all(|i| !Sim::new(tiny(false), 1).is_hostile(i)));
    }
}
