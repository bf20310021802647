//! Compact Blocks (BIP152), low-bandwidth mode.
//!
//! The sender announces the block with 6-byte short IDs
//! (`SipHash-2-4(header-derived key, txid)`, low 48 bits). The receiver
//! matches them against her mempool and requests unmatched indexes with a
//! differentially encoded `getblocktxn`; the sender answers with the bodies.
//! Ambiguous short IDs (two mempool candidates) are re-requested, as the
//! BIP mandates. Both halves live in [`graphene::engine`]: the receiver is
//! [`Ladder::Plain`], the sender [`build_cmpctblock`] and [`respond_plain`].

use crate::{relay_once, BaselineReport};
use graphene::engine::{build_cmpctblock, respond_plain, Ladder};
use graphene_blockchain::{Block, Mempool};
use graphene_wire::messages::Message;

/// Relay `block` via Compact Blocks to a receiver holding `mempool`.
///
/// The first transaction (coinbase in a real chain) is prefilled, matching
/// deployment behaviour and the paper's cost model.
pub fn compact_blocks_relay(block: &Block, mempool: &Mempool) -> BaselineReport {
    relay_once(block, mempool, Ladder::Plain, |req| match req {
        Message::GetData(_) => Some(Message::CmpctBlock(build_cmpctblock(block))),
        _ => respond_plain(block, req),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn full_mempool_one_round() {
        let s = scenario(500, 1.0, 1.0, 1);
        let r = compact_blocks_relay(&s.block, &s.receiver_mempool);
        assert!(r.success);
        assert_eq!(r.rounds, 1);
        // ≈ 6 bytes per transaction plus fixed overhead and the coinbase.
        let floor = 6 * 499;
        assert!(r.total_excluding_txns() >= floor);
        assert!(
            r.total_excluding_txns() < floor + 300,
            "{} vs floor {floor}",
            r.total_excluding_txns()
        );
    }

    #[test]
    fn missing_txns_trigger_repair_round() {
        let s = scenario(400, 1.0, 0.7, 2);
        let r = compact_blocks_relay(&s.block, &s.receiver_mempool);
        assert!(r.success);
        assert_eq!(r.rounds, 2);
        assert!(r.txn_bytes > 0);
        // ~120 missing transactions of ~250 B each.
        assert!(r.txn_bytes > 100 * 200, "txn bytes {}", r.txn_bytes);
    }

    #[test]
    fn empty_mempool_ships_everything() {
        let s = scenario(100, 0.0, 1.0, 3);
        let empty = Mempool::new();
        let r = compact_blocks_relay(&s.block, &empty);
        assert!(r.success);
        let total_body: usize = s.block.txns().iter().map(|t| t.size()).sum();
        assert_eq!(r.txn_bytes, total_body);
    }

    #[test]
    fn deterministic_accounting() {
        let s = scenario(200, 2.0, 0.9, 4);
        let a = compact_blocks_relay(&s.block, &s.receiver_mempool);
        let b = compact_blocks_relay(&s.block, &s.receiver_mempool);
        assert_eq!(a, b);
    }

    #[test]
    fn single_txn_block() {
        let s = scenario(1, 5.0, 1.0, 5);
        let r = compact_blocks_relay(&s.block, &s.receiver_mempool);
        assert!(r.success);
        assert_eq!(r.rounds, 1, "coinbase is prefilled; nothing to request");
    }
}
