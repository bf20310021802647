//! The synchronous driver: a complete two-party relay with exact byte
//! accounting.
//!
//! [`exchange`] hands messages between a receiver [`RxEngine`] and a server
//! closure on a lossless, timer-free link; [`relay_block`] and
//! [`crate::recovery::relay_with_recovery`] run it against the stateless
//! [`respond`]er and fill the per-message byte breakdown that the paper's
//! figures plot from each message's `wire_size()`. [`exchange_once`] is the
//! same loop for the one-shot protocols — the baselines in
//! `graphene-baselines` and [`crate::mempool_sync`] — cut off after the
//! first attempt. The wire encodings come from `graphene-wire`, so every
//! byte counted here is a byte a real socket would carry.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::config::GrapheneConfig;
use crate::engine::{respond, Ladder, RungKind, RxEngine, Step};
use graphene_blockchain::{Block, Mempool, PeerView, Transaction, TxId};
use graphene_bloom::Membership;
use graphene_wire::messages::{InvMsg, Message};
use graphene_wire::varint::varint_len;
use std::cell::Cell;

/// The durable half of a node's relay state: what survives a crash.
///
/// Deployed clients persist the mempool and the accepted chain to disk;
/// everything receiver-side that belongs to an *in-flight* reconciliation —
/// the Protocol 1 [`CandidateSet`](crate::protocol1::CandidateSet), partial
/// short-ID resolutions, collected-but-unconfirmed bodies, retry timers —
/// is process memory and is lost on restart. This type encodes that split:
/// a crashed node restores from a `NodeSnapshot` and re-learns any block it
/// was mid-session on through the ordinary announcement path, never by
/// resuming decode state.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Unconfirmed transactions at snapshot time.
    pub mempool: Mempool,
    /// Fully validated blocks held at snapshot time.
    pub blocks: Vec<Block>,
}

impl NodeSnapshot {
    /// Drop every mempool transaction `keep` rejects — the "stale mempool"
    /// of a node rejoining after downtime (its pool aged out or was only
    /// partially flushed to disk). Deterministic given a deterministic
    /// predicate; accepted blocks are never trimmed.
    pub fn retain_mempool(&mut self, keep: impl Fn(&TxId) -> bool) {
        let drop: Vec<TxId> =
            self.mempool.iter().map(|tx| *tx.id()).filter(|id| !keep(id)).collect();
        for id in &drop {
            self.mempool.remove(id);
        }
    }
}

/// How the relay concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayOutcome {
    /// Protocol 1 sufficed (the common case, Fig. 12's 99.7%).
    DecodedP1,
    /// Protocol 2 recovered the block.
    DecodedP2 {
        /// Whether an extra round fetched `R` false positives.
        extra_fetch: bool,
    },
    /// Both protocols failed; the relay fell back to a full block.
    Failed {
        /// Bytes the fallback cost (full block + framing).
        fallback_bytes: usize,
    },
}

impl RelayOutcome {
    /// True if the block was reconstructed (by either protocol).
    pub fn is_success(&self) -> bool {
        !matches!(self, RelayOutcome::Failed { .. })
    }
}

/// Byte-level breakdown per message component (Fig. 17's categories).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBreakdown {
    /// Block announcement.
    pub inv: usize,
    /// `getdata` with mempool count (and inflated re-requests).
    pub getdata: usize,
    /// Bloom filter `S` payload.
    pub bloom_s: usize,
    /// IBLT `I` payload.
    pub iblt_i: usize,
    /// Prefilled (never-inv'd) transactions in the Protocol 1 message.
    pub prefilled: usize,
    /// Ordering permutation bytes (zero under CTOR).
    pub order: usize,
    /// Residual Protocol 1 framing (header, counts).
    pub p1_overhead: usize,
    /// Bloom filter `R` payload (Protocol 2 request).
    pub bloom_r: usize,
    /// Residual Protocol 2 request framing.
    pub p2_request_overhead: usize,
    /// Missing transactions shipped in the recovery message.
    pub missing_txns: usize,
    /// IBLT `J` payload.
    pub iblt_j: usize,
    /// Filter `F` (`m ≈ n` special case only).
    pub bloom_f: usize,
    /// Residual recovery framing.
    pub p2_response_overhead: usize,
    /// The extra round fetching `R` false positives by short ID.
    pub extra_fetch: usize,
    /// Rateless-rung structural bytes: coded-cell windows and their
    /// requests (bodies fetched afterwards land in `missing_txns`).
    pub rateless: usize,
    /// Structural bytes of non-Graphene fallback rungs (short-ID fetch or
    /// full block, including framing; bodies land in `missing_txns`).
    pub fallback: usize,
}

/// Wire bytes of `txns` as a message carries them, less the count prefix.
fn body_bytes(txns: &[Transaction]) -> usize {
    txns.iter().map(|tx| varint_len(tx.size() as u64) + tx.size()).sum()
}

impl ByteBreakdown {
    /// Sum of every component.
    pub fn total(&self) -> usize {
        self.inv
            + self.getdata
            + self.bloom_s
            + self.iblt_i
            + self.prefilled
            + self.order
            + self.p1_overhead
            + self.bloom_r
            + self.p2_request_overhead
            + self.missing_txns
            + self.iblt_j
            + self.bloom_f
            + self.p2_response_overhead
            + self.extra_fetch
            + self.rateless
            + self.fallback
    }

    /// Total excluding transaction bodies — the quantity Figs. 14/17/18
    /// plot ("we exclude the cost of sending the missing transactions
    /// themselves for both protocols").
    pub fn total_excluding_txns(&self) -> usize {
        self.total() - self.missing_txns - self.prefilled
    }

    /// Charge `msg`, sent or received on `rung`, to its components and
    /// return its wire size. Bodies always land in `missing_txns` (or
    /// `prefilled`); the structural remainder of a repair or fallback
    /// message lands in the lane of the rung that needed it.
    pub fn charge(&mut self, rung: RungKind, msg: &Message) -> usize {
        let wire = msg.wire_size();
        match msg {
            Message::Inv(_) => self.inv += wire,
            Message::GetData(_) | Message::GetGrapheneRetry(_) => self.getdata += wire,
            Message::GrapheneBlock(m) => {
                let (s, i) = (m.bloom_s.serialized_size(), m.iblt_i.serialized_size());
                let (prefilled, order) = (body_bytes(&m.prefilled), m.order_bytes.len());
                self.bloom_s += s;
                self.iblt_i += i;
                self.prefilled += prefilled;
                self.order += order;
                self.p1_overhead += wire - s - i - prefilled - order;
            }
            Message::GrapheneRequest(m) => {
                let r = m.bloom_r.serialized_size();
                self.bloom_r += r;
                self.p2_request_overhead += wire - r;
            }
            Message::GrapheneRecovery(m) => {
                let (missing, j) = (body_bytes(&m.missing), m.iblt_j.serialized_size());
                let f = m.bloom_f.as_ref().map_or(0, Membership::serialized_size);
                self.missing_txns += missing;
                self.iblt_j += j;
                self.bloom_f += f;
                self.p2_response_overhead += wire - missing - j - f;
            }
            other => {
                let bodies = match other {
                    Message::BlockTxn(m) => body_bytes(&m.txns),
                    Message::XthinBlock(m) => body_bytes(&m.missing),
                    Message::FullBlock(m) => body_bytes(&m.txns),
                    _ => 0,
                };
                self.missing_txns += bodies;
                let lane = match rung {
                    RungKind::Graphene | RungKind::GrapheneRetry => &mut self.extra_fetch,
                    RungKind::Rateless => &mut self.rateless,
                    RungKind::ShortIdFetch | RungKind::FullBlock => &mut self.fallback,
                };
                *lane += wire - bodies;
            }
        }
        wire
    }
}

/// Result of a relay attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayReport {
    /// How it ended.
    pub outcome: RelayOutcome,
    /// Network round trips used (1 = Protocol 1 only; each additional
    /// protocol phase adds one).
    pub rounds: u32,
    /// Exact bytes by component.
    pub bytes: ByteBreakdown,
    /// The reconstructed block-order transaction IDs (when successful).
    pub ordered_ids: Option<Vec<TxId>>,
}

/// Run `engine` to completion against `serve` on a lossless, timer-free
/// link, and return the block's ordered transaction IDs (`None` only if
/// even the full block `serve` returned did not validate).
///
/// Every request is answered at once, so the only way an attempt ends
/// without a block is a response the engine cannot use; where a real
/// receiver would sit out its timer, this driver gives the engine the timer
/// input immediately — it escalates on decode failure exactly where a
/// timed driver does. `observe` sees every message in order, with the rung
/// it belongs to and whether it is a request opening a new attempt.
pub fn exchange(
    engine: &mut RxEngine,
    mempool: &Mempool,
    mut serve: impl FnMut(&Message) -> Option<Message>,
    mut observe: impl FnMut(RungKind, &Message, bool),
) -> Option<Vec<TxId>> {
    let mut step = Step::Send { msg: engine.start(mempool), retry: true };
    loop {
        step = match step {
            Step::Send { msg, retry } => {
                let rung = engine.rung();
                observe(rung, &msg, retry);
                match serve(&msg) {
                    Some(reply) => {
                        observe(rung, &reply, false);
                        engine.on_message(&reply, mempool)
                    }
                    None => engine.on_timeout(mempool),
                }
            }
            Step::Done { ordered_ids, .. } => return Some(ordered_ids),
            Step::Exhausted => return None,
            // Nothing else is in flight: the timer is all that is left. A
            // two-party relay has no other server to turn to, so provable
            // misbehaviour climbs the ladder too.
            Step::Ignore | Step::Misbehaviour(_) => engine.on_timeout(mempool),
        };
    }
}

/// [`exchange`] for the one-shot protocols the figures compare — Compact
/// Blocks, XThin, a full block, a mempool sync — which have no second
/// attempt: once the engine opens one (its second `retry` request) the
/// server stops answering and `observe` stops seeing messages, so the
/// engine times out down its ladder to `None`. A relay that does not
/// reconstruct thus reports the messages of its one attempt and no more.
pub fn exchange_once(
    engine: &mut RxEngine,
    mempool: &Mempool,
    mut serve: impl FnMut(&Message) -> Option<Message>,
    mut observe: impl FnMut(RungKind, &Message),
) -> Option<Vec<TxId>> {
    let attempts = Cell::new(0u32);
    exchange(
        engine,
        mempool,
        |req| if attempts.get() == 1 { serve(req) } else { None },
        |rung, msg, opens| {
            attempts.set(attempts.get() + u32::from(opens));
            if attempts.get() == 1 {
                observe(rung, msg);
            }
        },
    )
}

/// Relay `block` from a sender to a receiver holding `receiver_mempool`:
/// the paper's client — one Graphene attempt (Protocol 1, then 2, then the
/// extra fetch), then the full block.
///
/// `peer` optionally carries the sender's inv log for this receiver
/// (enables prefilling). The exchange is simulated in-process but every
/// message is sized through its real wire encoding.
///
/// ```
/// use graphene::{relay_block, GrapheneConfig};
/// use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction};
/// use graphene_hashes::Digest;
///
/// let txns: Vec<Transaction> = (0..100u64)
///     .map(|i| Transaction::new(i.to_le_bytes().to_vec()))
///     .collect();
/// let block = Block::assemble(Digest::ZERO, 0, txns.clone(), OrderingScheme::Ctor);
/// let mempool: Mempool = txns.into_iter().collect();
///
/// let report = relay_block(&block, None, &mempool, &GrapheneConfig::default());
/// assert!(report.outcome.is_success());
/// assert!(report.bytes.total_excluding_txns() < 6 * 100); // beats Compact Blocks
/// ```
pub fn relay_block(
    block: &Block,
    peer: Option<&PeerView>,
    receiver_mempool: &Mempool,
    cfg: &GrapheneConfig,
) -> RelayReport {
    let m = receiver_mempool.len();
    let serve = |req: &Message| respond(block, peer, req, m, cfg);
    let mut engine = RxEngine::new(block.id(), Ladder::Graphene(*cfg, None));
    let mut bytes = ByteBreakdown::default();
    bytes.charge(RungKind::Graphene, &Message::Inv(InvMsg { block_id: block.id() }));
    let mut rounds = 1u32;
    let mut decoded = RelayOutcome::DecodedP1;
    let mut fallback_bytes = 0usize;
    let ordered_ids = exchange(&mut engine, receiver_mempool, serve, |rung, msg, _| {
        let wire = bytes.charge(rung, msg);
        // Each server message closes one round trip.
        rounds += u32::from(msg.response_block_id().is_some());
        match msg {
            // A real client does not stop at "failed": it fetches the full
            // block, and those bytes belong in the accounting.
            _ if rung == RungKind::FullBlock => fallback_bytes += wire,
            Message::GrapheneRecovery(_) => {
                decoded = RelayOutcome::DecodedP2 { extra_fetch: false }
            }
            Message::BlockTxn(_) => decoded = RelayOutcome::DecodedP2 { extra_fetch: true },
            _ => {}
        }
    });
    let outcome =
        if fallback_bytes > 0 { RelayOutcome::Failed { fallback_bytes } } else { decoded };
    let ordered_ids = ordered_ids.filter(|_| outcome.is_success());
    RelayReport { outcome, rounds, bytes, ordered_ids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol1::{self, RetryTweak};
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
    fn p1_path_report() {
        let s = scenario(500, 2.0, 1.0, 1);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        assert_eq!(r.outcome, RelayOutcome::DecodedP1);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.ordered_ids.as_deref(), Some(&s.block.ids()[..]));
        assert!(r.bytes.bloom_s > 0);
        assert!(r.bytes.iblt_i > 0);
        assert_eq!(r.bytes.bloom_r, 0);
        // Headline claim sanity: well under Compact Blocks' ~6n bytes.
        assert!(
            r.bytes.total_excluding_txns() < 6 * 500,
            "{} bytes",
            r.bytes.total_excluding_txns()
        );
    }

    #[test]
    fn p2_path_report() {
        let s = scenario(300, 1.0, 0.5, 2);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        assert!(r.outcome.is_success(), "{:?}", r.outcome);
        assert!(r.rounds >= 3);
        assert!(r.bytes.bloom_r > 0);
        assert!(r.bytes.iblt_j > 0);
        assert!(r.bytes.missing_txns > 0);
        if let Some(ids) = &r.ordered_ids {
            assert_eq!(ids, &s.block.ids());
        }
    }

    #[test]
    fn success_rate_over_many_relays() {
        let mut p1 = 0;
        let mut p2 = 0;
        let mut failed = 0;
        for seed in 0..60u64 {
            let held = if seed % 3 == 0 { 1.0 } else { 0.7 };
            let s = scenario(120, 1.5, held, seed);
            let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            match r.outcome {
                RelayOutcome::DecodedP1 => p1 += 1,
                RelayOutcome::DecodedP2 { .. } => p2 += 1,
                RelayOutcome::Failed { .. } => failed += 1,
            }
            if let Some(ids) = &r.ordered_ids {
                assert_eq!(ids, &s.block.ids(), "seed {seed}");
            }
        }
        assert!(p1 >= 18, "P1 successes: {p1}");
        assert!(p2 >= 30, "P2 successes: {p2}");
        assert!(failed <= 1, "failures: {failed}");
    }

    #[test]
    fn direct_fetch_skips_protocol2() {
        // A receiver missing a handful of transactions, with an IBLT that
        // still decodes completely: direct fetch must resolve without the
        // Protocol 2 structures and cost less.
        let mut hit = 0usize;
        for seed in 0..40u64 {
            let s = scenario(300, 1.0, 0.99, seed); // missing ~3 of 300
            let mut direct = cfg();
            direct.direct_fetch = true;
            let r_direct = relay_block(&s.block, None, &s.receiver_mempool, &direct);
            let r_paper = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            assert!(r_direct.outcome.is_success(), "seed {seed}: {:?}", r_direct.outcome);
            if let Some(ids) = &r_direct.ordered_ids {
                assert_eq!(ids, &s.block.ids(), "seed {seed}");
            }
            // Only compare costs when the direct path actually engaged
            // (i.e. the P1 IBLT decoded despite the missing txns).
            if r_direct.bytes.bloom_r == 0 && r_direct.bytes.extra_fetch > 0 {
                hit += 1;
                assert!(
                    r_direct.bytes.total_excluding_txns() < r_paper.bytes.total_excluding_txns(),
                    "seed {seed}: direct {} !< paper {}",
                    r_direct.bytes.total_excluding_txns(),
                    r_paper.bytes.total_excluding_txns()
                );
            }
        }
        assert!(hit >= 20, "direct-fetch path engaged only {hit}/40 times");
    }

    #[test]
    fn failed_relay_accounts_fallback_bytes() {
        // Outright failures need an under-assured config (β low, coarse
        // IBLT table rate, no ping-pong rescue): ~4% of these seeds fail.
        let mut flaky = cfg();
        flaky.beta = 0.51;
        flaky.iblt_rate_denom = 3;
        flaky.pingpong = false;
        let mut checked = 0;
        for seed in 0..100u64 {
            let s = scenario(100, 1.0, 0.5, seed);
            let r = relay_block(&s.block, None, &s.receiver_mempool, &flaky);
            if let RelayOutcome::Failed { fallback_bytes, .. } = r.outcome {
                assert!(fallback_bytes > 0, "seed {seed}: zero-cost failure");
                assert!(r.bytes.fallback > 0, "seed {seed}");
                // The fallback round ships every body; totals must reflect it.
                let bodies: usize = s.block.txns().iter().map(|tx| tx.size()).sum();
                assert!(r.bytes.total() > bodies, "seed {seed}");
                // Structure-only metric stays clean of the shipped bodies.
                assert!(r.bytes.total_excluding_txns() < r.bytes.total(), "seed {seed}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no failing seed found; weaken the scenario");
    }

    #[test]
    fn retry_tweak_inflates_and_resalts() {
        let s = scenario(200, 1.5, 0.9, 3);
        let c = cfg();
        let m = s.receiver_mempool.len() as u64;
        let (base, base_choice) = protocol1::sender_encode(&s.block, m, None, &c);
        let t = RetryTweak::for_attempt(&c, 2);
        assert!(t.beta > c.beta);
        let (retry, retry_choice) = protocol1::sender_encode_retry(&s.block, m, None, &c, &t);
        assert_ne!(retry.iblt_i.salt(), base.iblt_i.salt(), "retry must re-salt");
        assert!(
            retry_choice.iblt.c > base_choice.iblt.c,
            "retry IBLT not inflated: {} vs {}",
            retry_choice.iblt.c,
            base_choice.iblt.c
        );
        // The receiver needs no special handling: everything rides in the
        // message.
        let got = protocol1::receiver_decode(&retry, &s.receiver_mempool, &c);
        if let Ok(ok) = got {
            assert_eq!(ok.ordered_ids, s.block.ids());
        }
    }

    #[test]
    fn breakdown_totals_consistent() {
        let s = scenario(200, 1.0, 0.6, 11);
        let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
        let b = &r.bytes;
        assert_eq!(
            b.total(),
            b.inv
                + b.getdata
                + b.bloom_s
                + b.iblt_i
                + b.prefilled
                + b.order
                + b.p1_overhead
                + b.bloom_r
                + b.p2_request_overhead
                + b.missing_txns
                + b.iblt_j
                + b.bloom_f
                + b.p2_response_overhead
                + b.extra_fetch
                + b.rateless
                + b.fallback
        );
        assert!(b.total_excluding_txns() <= b.total());
    }
}
