//! Adversarial peer model: fault injection at the protocol layer.
//!
//! Link-level faults (drop / corrupt) model an unreliable network; this
//! module models a *hostile peer* — one that speaks the protocol well
//! enough to pass wire decoding but lies in the payload. The attacks are
//! the ones the paper analyses: the §6.1 malformed-IBLT attack (insert a
//! value into only `k−1` of its cells so the victim's peeling loop
//! recovers it twice), §6.2 resource-exhaustion via oversized filters,
//! inconsistent declared counts, stalling (accept the request, never
//! answer), and garbage repair responses.
//!
//! An adversarial peer is honest on its *receiving* side — it decodes and
//! stores blocks normally — but mangles what it serves. All mangling
//! decisions are drawn from a counter-based deterministic stream so
//! simulations stay bit-identical for any thread count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use graphene_blockchain::Transaction;
use graphene_bloom::BloomFilter;
use graphene_wire::Message;

/// How a peer behaves as a block server.
#[derive(Clone, Debug, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Mangles served messages per the attached configuration.
    Adversarial(AdversaryConfig),
}

/// Per-attack firing probabilities (each checked independently per
/// served message) plus the adversary's private decision seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdversaryConfig {
    /// Insert a phantom value into k−1 IBLT cells (§6.1 double-decode).
    pub malformed_iblt: f64,
    /// Replace an outgoing Bloom filter with one far beyond the §6.2 cap.
    pub oversized_filter: f64,
    /// Declare a block transaction count inconsistent with the payload.
    pub count_skew: f64,
    /// Accept the request but never answer (response silently dropped).
    pub stall: f64,
    /// Answer repair requests with well-formed but useless transactions.
    pub garbage: f64,
    /// Answer correctly but late: hold each response back by
    /// [`tarpit_hold`](Self::tarpit_hold). The payload is honest, so the
    /// attack is never provable — it only works by soaking up sessions,
    /// which is exactly what the adaptive failure detector punishes.
    pub tarpit: f64,
    /// Extra delay a tarpitted response is held for. Tuned (in sweeps) to
    /// sit *under* the fixed 2 s timer's jitter floor but *over* the
    /// adaptive arm's 1 s initial RTO, so only the adaptive arm reacts.
    pub tarpit_hold: crate::time::SimTime,
    /// Decision-stream seed.
    pub seed: u64,
}

/// SplitMix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One uniform draw in [0,1) from `(seed, nonce, channel)`.
fn roll(seed: u64, nonce: u64, channel: u64) -> f64 {
    let h = mix64(seed ^ nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ channel);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A well-formed transaction that belongs to no block.
fn garbage_txn(seed: u64, nonce: u64, i: u64) -> Transaction {
    let h = mix64(seed ^ nonce ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
    let mut payload = Vec::with_capacity(24);
    payload.extend_from_slice(b"garbage:");
    payload.extend_from_slice(&h.to_le_bytes());
    payload.extend_from_slice(&i.to_le_bytes());
    Transaction::new(payload)
}

/// A Bloom filter comfortably beyond [`crate::caps::MessageCaps`]'
/// default `max_filter_bytes` (but small enough to encode quickly).
fn oversized_filter(salt: u64) -> BloomFilter {
    BloomFilter::new(75_000, 0.001, salt)
}

impl AdversaryConfig {
    /// Mangle one outgoing message. `nonce` is the peer's private decision
    /// counter, advanced once per served message by the caller. Returns
    /// `None` when the adversary stalls (the message is never sent).
    pub fn mangle(&self, nonce: u64, msg: Message) -> Option<Message> {
        if self.stall > 0.0 && roll(self.seed, nonce, 0x57a1) < self.stall && stallable(&msg) {
            return None;
        }
        Some(match msg {
            Message::GrapheneBlock(mut m) => {
                if self.malformed_iblt > 0.0 && roll(self.seed, nonce, 0x1b17) < self.malformed_iblt
                {
                    let copies = m.iblt_i.hash_count().saturating_sub(1).max(1);
                    let phantom = mix64(self.seed ^ nonce) | 1;
                    m.iblt_i.insert_partial(phantom, copies);
                }
                if self.oversized_filter > 0.0
                    && roll(self.seed, nonce, 0xb100) < self.oversized_filter
                {
                    m.bloom_s = oversized_filter(self.seed ^ nonce);
                }
                if self.count_skew > 0.0 && roll(self.seed, nonce, 0xc057) < self.count_skew {
                    // Declare fewer transactions than we prefill: provably
                    // inconsistent, caught by the §6.2 cap check.
                    if m.prefilled.is_empty() {
                        m.prefilled.push(garbage_txn(self.seed, nonce, 0));
                    }
                    m.block_tx_count = (m.prefilled.len() - 1) as u64;
                }
                Message::GrapheneBlock(m)
            }
            Message::GrapheneRecovery(mut m) => {
                if self.malformed_iblt > 0.0 && roll(self.seed, nonce, 0x1b17) < self.malformed_iblt
                {
                    let copies = m.iblt_j.hash_count().saturating_sub(1).max(1);
                    let phantom = mix64(self.seed ^ nonce ^ 0x2) | 1;
                    m.iblt_j.insert_partial(phantom, copies);
                }
                if self.garbage > 0.0 && roll(self.seed, nonce, 0x6a1b) < self.garbage {
                    m.missing = (0..m.missing.len().max(1) as u64)
                        .map(|i| garbage_txn(self.seed, nonce, i))
                        .collect();
                }
                Message::GrapheneRecovery(m)
            }
            Message::BlockTxn(mut m) => {
                if self.garbage > 0.0 && roll(self.seed, nonce, 0x6a1b) < self.garbage {
                    m.txns = (0..m.txns.len() as u64)
                        .map(|i| garbage_txn(self.seed, nonce, i))
                        .collect();
                }
                Message::BlockTxn(m)
            }
            Message::XthinBlock(mut m) => {
                if self.garbage > 0.0 && roll(self.seed, nonce, 0x6a1b) < self.garbage {
                    m.missing = (0..m.missing.len() as u64)
                        .map(|i| garbage_txn(self.seed, nonce, i))
                        .collect();
                }
                Message::XthinBlock(m)
            }
            Message::FullBlock(mut m) => {
                if self.garbage > 0.0 && roll(self.seed, nonce, 0x6a1b) < self.garbage {
                    // Swap one body out: header no longer matches the txns,
                    // so the victim's engine never reports it `Done`.
                    if !m.txns.is_empty() {
                        m.txns[0] = garbage_txn(self.seed, nonce, 0);
                    }
                }
                Message::FullBlock(m)
            }
            Message::XthinGetData(mut m) => {
                if self.oversized_filter > 0.0
                    && roll(self.seed, nonce, 0xb100) < self.oversized_filter
                {
                    m.mempool_filter = oversized_filter(self.seed ^ nonce);
                }
                Message::XthinGetData(m)
            }
            Message::GrapheneRequest(mut m) => {
                if self.oversized_filter > 0.0
                    && roll(self.seed, nonce, 0xb100) < self.oversized_filter
                {
                    m.bloom_r = oversized_filter(self.seed ^ nonce);
                }
                Message::GrapheneRequest(m)
            }
            Message::RatelessCells(mut m) => {
                if self.garbage > 0.0 && roll(self.seed, nonce, 0x6a1b) < self.garbage {
                    // Fold one phantom value into every cell of the window,
                    // with live checksums keyed by the honest salt. Once the
                    // genuine difference peels away, each remaining cell is
                    // the pure phantom — recovered once, cancelled only on
                    // its true mapping, then recovered again from the cells
                    // off that mapping: a provable double-decode (the §6.1
                    // attack in rateless form).
                    let phantom = mix64(self.seed ^ nonce ^ 0x15c3) | 1;
                    let check = graphene_iblt::cell::check_hash(m.salt, phantom);
                    for cell in &mut m.cells {
                        cell.apply(phantom, check, 1);
                    }
                }
                Message::RatelessCells(m)
            }
            other => other,
        })
    }

    /// How long the tarpit holds `msg` back, if it does. Only responses
    /// are tarpitted (same scope as stalling — delaying our own requests
    /// would punish nobody but ourselves), and the decision draws its own
    /// channel of the per-nonce stream so it composes with every other
    /// attack without disturbing their rolls.
    pub fn tarpit_delay(&self, nonce: u64, msg: &Message) -> Option<crate::time::SimTime> {
        if self.tarpit > 0.0 && roll(self.seed, nonce, 0x7a12) < self.tarpit && stallable(msg) {
            return Some(self.tarpit_hold);
        }
        None
    }
}

/// Only *responses* stall — suppressing our own requests or inv relays
/// would merely make the adversary a quieter node, not an attack.
fn stallable(msg: &Message) -> bool {
    matches!(
        msg,
        Message::GrapheneBlock(_)
            | Message::GrapheneRecovery(_)
            | Message::CmpctBlock(_)
            | Message::XthinBlock(_)
            | Message::BlockTxn(_)
            | Message::FullBlock(_)
            | Message::Txns(_)
            | Message::RatelessCells(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_wire::messages::{FullBlockMsg, InvMsg};

    fn full_block_msg() -> Message {
        let tx = Transaction::new(vec![9; 40]);
        let block = graphene_blockchain::Block::assemble(
            graphene_hashes::Digest::ZERO,
            1,
            vec![tx],
            graphene_blockchain::OrderingScheme::Ctor,
        );
        Message::FullBlock(FullBlockMsg { header: *block.header(), txns: block.txns().to_vec() })
    }

    #[test]
    fn honest_default_is_identity() {
        let cfg = AdversaryConfig::default();
        let msg = full_block_msg();
        let before = graphene_wire::Encode::to_vec(&msg);
        let after = cfg.mangle(0, msg).map(|m| graphene_wire::Encode::to_vec(&m));
        assert_eq!(after.as_deref(), Some(&before[..]));
    }

    #[test]
    fn stall_drops_responses_but_not_invs() {
        let cfg = AdversaryConfig { stall: 1.0, ..Default::default() };
        assert!(cfg.mangle(1, full_block_msg()).is_none());
        let inv = Message::Inv(InvMsg { block_id: graphene_hashes::Digest::ZERO });
        assert!(cfg.mangle(1, inv).is_some());
    }

    #[test]
    fn mangling_is_deterministic() {
        let cfg = AdversaryConfig { garbage: 0.5, stall: 0.5, seed: 42, ..Default::default() };
        for nonce in 0..32 {
            let a = cfg.mangle(nonce, full_block_msg()).map(|m| graphene_wire::Encode::to_vec(&m));
            let b = cfg.mangle(nonce, full_block_msg()).map(|m| graphene_wire::Encode::to_vec(&m));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stall_covers_the_cell_stream() {
        use graphene_wire::messages::RatelessCellsMsg;
        let cfg = AdversaryConfig { stall: 1.0, ..Default::default() };
        let cells = Message::RatelessCells(RatelessCellsMsg {
            block_id: graphene_hashes::Digest::ZERO,
            salt: 7,
            start_index: 0,
            cells: vec![graphene_iblt::Cell::default(); 8],
        });
        assert!(cfg.mangle(1, cells).is_none(), "mid-stream stall must drop the window");
    }

    #[test]
    fn garbage_cells_force_a_provable_double_decode() {
        use graphene_iblt::rateless::{CellStream, RatelessDecoder, RatelessError};
        use graphene_wire::messages::RatelessCellsMsg;
        let cfg = AdversaryConfig { garbage: 1.0, seed: 8, ..Default::default() };
        let salt = 0x524c_u64;
        let remote: Vec<u64> = (0..60u64).map(|i| i.wrapping_mul(0x9e37) | 1).collect();
        let local: Vec<u64> = remote[2..].to_vec(); // honest difference of 2
        let msg = Message::RatelessCells(RatelessCellsMsg {
            block_id: graphene_hashes::Digest::ZERO,
            salt,
            start_index: 0,
            cells: CellStream::new(salt, remote.iter().copied()).cells(24),
        });
        let Some(Message::RatelessCells(mangled)) = cfg.mangle(3, msg) else {
            panic!("expected a RatelessCells back");
        };
        let mut d = RatelessDecoder::new(salt, local.iter().copied());
        let mut start = 0u64;
        let mut outcome = d.push_cells(start, &mangled.cells);
        start += mangled.cells.len() as u64;
        // The poisoned stream must never decode cleanly; within a couple of
        // honest follow-up windows it pins the double-decode on the sender.
        let mut honest = CellStream::new(salt, remote.iter().copied());
        honest.skip(start);
        for _ in 0..4 {
            if matches!(outcome, Err(RatelessError::Malformed(_))) {
                return;
            }
            let cells = honest.cells(d.suggested_batch());
            outcome = d.push_cells(start, &cells);
            start += cells.len() as u64;
        }
        panic!("garbage cells never provoked the double-decode: {outcome:?}");
    }

    #[test]
    fn tarpit_holds_responses_but_not_invs() {
        use crate::time::SimTime;
        let cfg = AdversaryConfig {
            tarpit: 1.0,
            tarpit_hold: SimTime::from_millis(1_300),
            ..Default::default()
        };
        let msg = full_block_msg();
        assert_eq!(cfg.tarpit_delay(1, &msg), Some(SimTime::from_millis(1_300)));
        let inv = Message::Inv(InvMsg { block_id: graphene_hashes::Digest::ZERO });
        assert_eq!(cfg.tarpit_delay(1, &inv), None, "announcements are never tarpitted");
    }

    #[test]
    fn tarpit_rolls_its_own_channel() {
        // A half-probability tarpit must not perturb the stall channel:
        // the same nonces stall with and without tarpit configured.
        let plain = AdversaryConfig { stall: 0.5, seed: 11, ..Default::default() };
        let mixed = AdversaryConfig {
            stall: 0.5,
            tarpit: 0.5,
            tarpit_hold: crate::time::SimTime::from_millis(500),
            seed: 11,
            ..Default::default()
        };
        for nonce in 0..64 {
            assert_eq!(
                plain.mangle(nonce, full_block_msg()).is_none(),
                mixed.mangle(nonce, full_block_msg()).is_none(),
                "tarpit channel leaked into the stall stream at nonce {nonce}"
            );
        }
    }

    #[test]
    fn garbage_full_block_breaks_the_merkle_root() {
        use graphene::engine::{Ladder, RxEngine, Step};
        let cfg = AdversaryConfig { garbage: 1.0, seed: 3, ..Default::default() };
        let honest = full_block_msg();
        let block_id = honest.response_block_id().expect("a block payload");
        let verdict = |msg: &Message| {
            let mut victim = RxEngine::new(block_id, Ladder::Plain);
            let pool = graphene_blockchain::Mempool::new();
            victim.start(&pool);
            victim.on_message(msg, &pool)
        };
        assert!(matches!(verdict(&honest), Step::Done { .. }));
        let mangled = cfg.mangle(5, honest).expect("garbage does not stall");
        assert_eq!(mangled.response_block_id(), Some(block_id), "the header is left alone");
        assert!(matches!(verdict(&mangled), Step::Ignore), "mangled block must not validate");
    }
}
