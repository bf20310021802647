//! The recovery ladder run end to end: graceful degradation from Graphene
//! down to a full block, with every rung's cost accounted.
//!
//! The paper's β-assurance model (Theorems 1–3) bounds each Graphene
//! attempt's failure probability by `1 − β` but says nothing about what a
//! client *does* on failure. [`crate::engine`] answers with a five-rung
//! ladder; [`relay_with_recovery`] drives it over the lossless synchronous
//! link of [`crate::session::exchange`], records each rung's bytes and
//! rounds in a [`RungReport`], and merges them into one [`ByteBreakdown`]
//! so figures stay honest about what degradation costs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::engine::{respond, Ladder, RecoveryPolicy, RungKind, RxEngine};
use crate::session::{exchange, ByteBreakdown};
use graphene_blockchain::{Block, Mempool, PeerView, TxId};
use graphene_wire::messages::{InvMsg, Message};

/// One rung's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungReport {
    /// Which rung.
    pub kind: RungKind,
    /// Retry attempt number (0 for the initial Graphene attempt; only
    /// meaningful for the Graphene rungs).
    pub attempt: u32,
    /// Bytes this rung spent (all messages, bodies included).
    pub bytes: usize,
    /// Network round trips this rung took. A Graphene attempt is charged
    /// the half-round that opens it (the announcement, or the re-request)
    /// as a full one.
    pub rounds: u32,
    /// Whether this rung reconstructed the block.
    pub success: bool,
}

/// The whole ladder's outcome. The ladder always delivers — the last rung
/// ships the block verbatim — so there is no failure variant; degradation
/// shows up as *which* rung delivered and what the descent cost.
#[derive(Clone, Debug)]
pub struct LadderReport {
    /// The rung that finally delivered the block.
    pub delivered: RungKind,
    /// Every rung attempted, in order. The last entry succeeded — unless
    /// the block's header does not commit to its transactions, in which
    /// case none did and `ordered_ids` is empty.
    pub rungs: Vec<RungReport>,
    /// Merged byte accounting across all rungs.
    pub bytes: ByteBreakdown,
    /// Total round trips across all rungs.
    pub rounds: u32,
    /// The block's transaction IDs in block order (Merkle-validated).
    pub ordered_ids: Vec<TxId>,
}

impl LadderReport {
    /// True when the first rung sufficed (no degradation).
    pub fn clean(&self) -> bool {
        self.rungs.len() == 1
    }
}

/// Relay `block` with the full recovery ladder: never gives up, always
/// reports what the descent cost.
pub fn relay_with_recovery(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
    policy: &RecoveryPolicy,
) -> LadderReport {
    let m = receiver_mempool.len();
    let mut engine = RxEngine::new(block.id(), Ladder::Graphene(*cfg, Some(*policy)));
    let mut bytes = ByteBreakdown::default();
    let inv = bytes.charge(RungKind::Graphene, &Message::Inv(InvMsg { block_id: block.id() }));
    let mut rungs: Vec<RungReport> = Vec::new();
    let ordered_ids = exchange(
        &mut engine,
        receiver_mempool,
        |req| respond(block, peer, req, m, cfg),
        |kind, msg, opens| {
            let wire = bytes.charge(kind, msg);
            if opens {
                let attempt = match msg {
                    Message::GetGrapheneRetry(m) => m.attempt,
                    _ => 0,
                };
                let rounds = u32::from(kind <= RungKind::GrapheneRetry);
                // The first rung also pays for the announcement.
                let announced = if rungs.is_empty() { inv } else { 0 };
                rungs.push(RungReport { kind, attempt, bytes: announced, rounds, success: false });
            }
            if let Some(rung) = rungs.last_mut() {
                rung.bytes += wire;
                // Each server message closes one round trip.
                rung.rounds += u32::from(msg.response_block_id().is_some());
            }
        },
    );
    // The full block an honest `respond` ships always validates; if the
    // ladder was exhausted anyway (a block whose header does not commit to
    // its transactions), the report claims no delivery.
    if let Some(last) = rungs.last_mut() {
        last.success = ordered_ids.is_some();
    }
    LadderReport {
        delivered: engine.rung(),
        rounds: rungs.iter().map(|r| r.rounds).sum(),
        rungs,
        bytes,
        ordered_ids: ordered_ids.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    fn scenario(n: usize, extra: f64, held: f64, seed: u64) -> Scenario {
        let params = ScenarioParams {
            block_size: n,
            extra_mempool_multiple: extra,
            block_fraction_in_mempool: held,
            ..Default::default()
        };
        Scenario::generate(&params, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn clean_relay_stays_on_first_rung() {
        let s = scenario(400, 2.0, 1.0, 1);
        let r = relay_with_recovery(
            &s.block,
            None,
            &s.receiver_mempool,
            &cfg(),
            &RecoveryPolicy::default(),
        );
        assert!(r.clean(), "rungs: {:?}", r.rungs);
        assert_eq!(r.delivered, RungKind::Graphene);
        assert_eq!(r.ordered_ids, s.block.ids());
    }

    #[test]
    fn ladder_always_delivers_under_flaky_config() {
        // A deliberately under-assured configuration (low β, coarse IBLT
        // rate, no ping-pong) fails on ~4% of seeds; the ladder must still
        // deliver every block, with the deeper rungs rescuing those seeds.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let policy = RecoveryPolicy::default();
        let mut degraded = 0usize;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(&s.block, None, &s.receiver_mempool, &flaky, &policy);
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            assert!(r.rungs.last().is_some_and(|last| last.success), "seed {seed}");
            if !r.clean() {
                degraded += 1;
                // Deeper rungs imply all earlier rungs failed.
                for earlier in &r.rungs[..r.rungs.len() - 1] {
                    assert!(!earlier.success, "seed {seed}: {:?}", r.rungs);
                }
            }
        }
        assert!(degraded > 0, "flaky config never degraded; test is vacuous");
    }

    #[test]
    fn ladder_bytes_are_the_sum_of_rungs() {
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        for seed in 0..30u64 {
            let s = scenario(120, 1.0, 0.6, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky,
                &RecoveryPolicy::default(),
            );
            let rung_sum: usize = r.rungs.iter().map(|g| g.bytes).sum();
            assert_eq!(r.bytes.total(), rung_sum, "seed {seed}: {:?}", r.rungs);
            let rounds_sum: u32 = r.rungs.iter().map(|g| g.rounds).sum();
            assert_eq!(r.rounds, rounds_sum, "seed {seed}");
        }
    }

    #[test]
    fn ladder_handles_empty_mempool() {
        // With nothing in the mempool every body must travel regardless of
        // which rung delivers; the ladder must stay correct.
        let s = scenario(60, 0.0, 1.0, 9);
        let empty = Mempool::new();
        let r = relay_with_recovery(
            &s.block,
            None,
            &empty,
            &cfg(),
            &RecoveryPolicy { graphene_retries: 0, ..Default::default() },
        );
        assert_eq!(r.ordered_ids, s.block.ids());
        // Whichever rung delivered, the bodies all had to travel.
        let bodies: usize = s.block.txns().iter().map(|tx| tx.size()).sum();
        assert!(r.bytes.total() >= bodies);
    }

    fn flaky() -> GrapheneConfig {
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        flaky
    }

    #[test]
    fn rateless_rung_rescues_the_flaky_config() {
        // The "no retry cliff" ladder: every degraded seed must be rescued
        // by the rateless rung (never an inflated retry, and the deeper
        // rungs should not be needed — the stream just grows until it
        // decodes).
        let policy = RecoveryPolicy::rateless_first();
        let mut degraded = 0usize;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(&s.block, None, &s.receiver_mempool, &flaky(), &policy);
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            assert!(
                r.rungs.iter().all(|g| g.kind != RungKind::GrapheneRetry),
                "seed {seed}: the rateless ladder ran a retry rung: {:?}",
                r.rungs
            );
            if !r.clean() {
                degraded += 1;
                assert_eq!(r.delivered, RungKind::Rateless, "seed {seed}: {:?}", r.rungs);
                assert!(r.bytes.rateless > 0, "seed {seed}: rateless rung charged no bytes");
            }
        }
        assert!(degraded > 0, "flaky config never degraded; test is vacuous");
    }

    #[test]
    fn rateless_ladder_bytes_are_the_sum_of_rungs() {
        for seed in 0..30u64 {
            let s = scenario(120, 1.0, 0.6, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::rateless_first(),
            );
            let rung_sum: usize = r.rungs.iter().map(|g| g.bytes).sum();
            assert_eq!(r.bytes.total(), rung_sum, "seed {seed}: {:?}", r.rungs);
            let rounds_sum: u32 = r.rungs.iter().map(|g| g.rounds).sum();
            assert_eq!(r.rounds, rounds_sum, "seed {seed}");
        }
    }

    #[test]
    fn rateless_rung_cheaper_than_inflated_retries_when_degraded() {
        // The bad-difference-estimate regime, at unit scale: a big block
        // almost entirely held by the receiver, so the true difference is
        // tiny relative to `n` — yet the under-assured sketches fail. A
        // retry re-ships block-proportional sketches (fresh S + inflated I
        // + full P2); the rateless rung streams difference-proportional
        // cells instead, and must beat it on bytes AND rounds.
        let mut retry_bytes = 0usize;
        let mut retry_rounds = 0u32;
        let mut rateless_bytes = 0usize;
        let mut rateless_rounds = 0u32;
        let mut degraded = 0usize;
        for seed in 0..60u64 {
            let s = scenario(800, 1.0, 0.95, seed);
            let a = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::default(),
            );
            let b = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky(),
                &RecoveryPolicy::rateless_first(),
            );
            if a.clean() && b.clean() {
                continue;
            }
            degraded += 1;
            retry_bytes += a.bytes.total_excluding_txns();
            retry_rounds += a.rounds;
            rateless_bytes += b.bytes.total_excluding_txns();
            rateless_rounds += b.rounds;
        }
        assert!(degraded > 0, "no degraded seeds");
        assert!(
            rateless_bytes < retry_bytes,
            "rateless {rateless_bytes} B !< retry {retry_bytes} B over {degraded} degraded seeds"
        );
        assert!(
            rateless_rounds < retry_rounds,
            "rateless {rateless_rounds} rounds !< retry {retry_rounds}"
        );
    }

    #[test]
    fn full_block_rung_is_a_safety_net() {
        // With zero Graphene retries, any first-rung failure lands directly
        // on the deep (non-Graphene) rungs, which must charge fallback bytes.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let mut saw_deep = false;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_with_recovery(
                &s.block,
                None,
                &s.receiver_mempool,
                &flaky,
                &RecoveryPolicy { graphene_retries: 0, ..Default::default() },
            );
            assert_eq!(r.ordered_ids, s.block.ids(), "seed {seed}");
            if r.delivered >= RungKind::ShortIdFetch {
                saw_deep = true;
                assert!(r.bytes.fallback > 0, "seed {seed}: deep rung with no fallback bytes");
            }
        }
        assert!(saw_deep, "no run reached the deep rungs");
    }
}
