//! The relay workloads: the synchronous two-party driver,
//! `graphene::recovery::relay_with_recovery`, under its default
//! configuration, cycling a pool of generated scenarios.

use crate::recon::{relay, replay_layers, TraceCounts};
use crate::span::Tracer;
use crate::workload::{derive_seed, Outcome, Workload};
use graphene::{GrapheneConfig, LadderReport, RecoveryPolicy};
use graphene_blockchain::{OrderingScheme, Scenario, ScenarioParams, Transaction, TxId, TxProfile};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

/// Scenario shape and pool size of a relay workload; `scale` multiplies the
/// dimension that sets its dominant layer's work (for `--sensitivity`).
pub fn spec(name: &str, scale: f64) -> Option<(ScenarioParams, usize)> {
    let scaled = |x: usize| (x as f64 * scale).round() as usize;
    let base = ScenarioParams {
        block_size: 2000,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        profile: TxProfile::Fixed(120),
        ordering: OrderingScheme::Ctor,
    };
    match name {
        "relay_synced" => Some((ScenarioParams { block_size: scaled(2000), ..base }, 32)),
        "relay_bigpool" => Some((
            ScenarioParams { block_size: 200, extra_mempool_multiple: 300.0 * scale, ..base },
            8,
        )),
        "relay_missing" => Some((
            ScenarioParams { block_size: scaled(2000), block_fraction_in_mempool: 0.95, ..base },
            32,
        )),
        _ => None,
    }
}

pub struct Relay {
    scenarios: Vec<Scenario>,
    /// `block.ids()` of each scenario, what every delivery must equal.
    expected: Vec<Vec<TxId>>,
    cfg: GrapheneConfig,
    policy: RecoveryPolicy,
}

impl Relay {
    /// Scenario `i` of the pool is a function of `(seed, i)` alone.
    pub fn build(params: &ScenarioParams, pool: usize, seed: u64) -> Relay {
        let scenarios: Vec<Scenario> = (0..pool as u64)
            .map(|i| Scenario::generate(params, &mut StdRng::seed_from_u64(derive_seed(seed, i))))
            .collect();
        let expected = scenarios.iter().map(|s| s.block.ids()).collect();
        Relay {
            scenarios,
            expected,
            cfg: GrapheneConfig::default(),
            policy: RecoveryPolicy::default(),
        }
    }

    fn slot(&self, index: u64) -> usize {
        (index % self.scenarios.len() as u64) as usize
    }

    fn outcome(&self, slot: usize, report: &LadderReport) -> Outcome {
        Outcome {
            attempted: 1,
            failed: u64::from(report.ordered_ids != self.expected[slot]),
            wire_bytes: report.bytes.total_excluding_txns() as u64,
            // Every round is a request and its reply.
            msgs: 2 * u64::from(report.rounds),
        }
    }
}

impl Workload for Relay {
    fn warmup_ops(&self) -> u64 {
        self.scenarios.len() as u64
    }

    fn count_window(&self) -> u64 {
        self.scenarios.len() as u64
    }

    fn op(&mut self, index: u64) -> (Duration, Outcome) {
        let slot = self.slot(index);
        let start = Instant::now();
        let report = relay(&self.scenarios[slot], &self.cfg, &self.policy);
        let took = start.elapsed();
        (took, self.outcome(slot, &report))
    }

    fn traced_op(
        &mut self,
        index: u64,
        t: &mut Tracer,
        counts: &mut TraceCounts,
    ) -> (Duration, Outcome) {
        let slot = self.slot(index);
        let s = &self.scenarios[slot];
        let before = t.spans().len();
        let report = t.span("op", |t| {
            let report = t.span("core.relay", |_| {
                counts.counting_allocs(|| relay(s, &self.cfg, &self.policy))
            });
            replay_layers(t, s, &self.cfg, counts);
            report
        });
        counts.note_ladder(&report);
        let took = Duration::from_nanos(t.spans()[before + 1].duration_ns());
        (took, self.outcome(slot, &report))
    }

    fn sample_pool(&self) -> Vec<Transaction> {
        self.scenarios[0].receiver_mempool.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioParams {
        ScenarioParams { block_size: 60, ..spec("relay_missing", 1.0).unwrap().0 }
    }

    #[test]
    fn same_seed_same_scenarios_other_seed_other_scenarios() {
        let ids = |seed| -> Vec<Vec<TxId>> { Relay::build(&small(), 3, seed).expected };
        assert_eq!(ids(5), ids(5));
        assert_ne!(ids(5), ids(6));
        let one = ids(5);
        assert!(one[0] != one[1] && one[1] != one[2], "pool slots must differ");
    }

    #[test]
    fn ops_deliver_and_counts_repeat() {
        let mut a = Relay::build(&small(), 2, 9);
        let mut b = Relay::build(&small(), 2, 9);
        for i in 0..4 {
            let (oa, ob) = (a.op(i).1, b.op(i).1);
            assert_eq!(oa, ob);
            assert_eq!((oa.attempted, oa.failed), (1, 0));
            assert!(oa.wire_bytes > 0 && oa.msgs >= 4);
        }
    }

    #[test]
    fn traced_op_matches_untraced_and_replays_every_kernel() {
        let mut w = Relay::build(&small(), 1, 3);
        let plain = w.op(0).1;
        let (mut t, mut counts) = (Tracer::new(), TraceCounts::default());
        let (took, traced) = w.traced_op(0, &mut t, &mut counts);
        assert_eq!(plain, traced);
        let agg = crate::span::aggregate(t.spans());
        assert_eq!(took.as_nanos() as u64, agg["core.relay"].total_ns);
        for k in crate::recon::KERNELS {
            assert!(agg.contains_key(k), "no span for {k}");
        }
        // The receiver lacks 5% of the block, so Protocol 2 ran.
        assert_eq!((counts.ops, counts.p2), (1, 1));
        assert!(agg.contains_key("core.p2") && agg["iblt.build"].count == 2);
        assert!(counts.probes > 0 && counts.probe_hits <= counts.probes);
    }

    #[test]
    fn scale_moves_only_the_dominant_dimension() {
        let (synced, _) = spec("relay_synced", 1.2).unwrap();
        assert_eq!((synced.block_size, synced.extra_mempool_multiple), (2400, 1.0));
        let (big, _) = spec("relay_bigpool", 1.2).unwrap();
        assert_eq!((big.block_size, big.extra_mempool_multiple), (200, 360.0));
        assert!(spec("sim_gossip", 1.0).is_none());
    }
}
