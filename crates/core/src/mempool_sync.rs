//! Mempool synchronization (paper §3.2.1): two peers obtain the union of
//! their transaction pools using the same machinery as block relay.
//!
//! The sender (ideally the peer with the *smaller* pool — `S` scales with
//! the sender's set) places his entire mempool in `S` and `I`. The receiver
//! partitions her pool into `Z` (passes `S`) and `H` (fails `S` — hers
//! alone, definitely unknown to the sender). Reconciliation then proceeds
//! exactly as Protocols 1/2 over the pseudo-block "sender's mempool": the
//! receiver learns the sender-only transactions, and ships `H` plus any
//! discovered `S` false positives back. Because `m ≈ n` is the common shape
//! here, the §3.3.1 special case (filter `F`) triggers routinely — Fig. 18
//! evaluates exactly this path.
//!
//! "Exactly as Protocols 1/2" is literal: [`sync_mempools`] is a driver of
//! the relay's [`RxEngine`] and stateless [`respond`]er, run for one
//! attempt by [`exchange_once`] — a sync that does not reconcile has no
//! full-block rung to fall to; the receiver ships `H` alone and reports
//! failure. Bytes are charged by [`ByteBreakdown::charge`] and the
//! delivered bodies are read off the messages the exchange carried.

use crate::config::GrapheneConfig;
use crate::engine::{respond, Ladder, RxEngine};
use crate::session::{exchange_once, ByteBreakdown};
use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction, TxId};
use graphene_hashes::Digest;
use graphene_wire::messages::{BlockTxnMsg, Message};
use std::collections::HashSet;

/// Result of a synchronization round.
#[derive(Debug, Clone)]
pub struct SyncReport {
    /// Whether both peers ended with the exact union.
    pub success: bool,
    /// Byte breakdown of the Graphene structures (tx bodies accounted in
    /// `missing_txns`/`extra_fetch`/`h_transfer`).
    pub bytes: ByteBreakdown,
    /// Bytes spent shipping the receiver-only transactions (`H` + false
    /// positives) back to the sender.
    pub h_transfer: usize,
    /// Messages exchanged: two per request/response pair.
    pub rounds: u32,
    /// Size of the final union.
    pub union_size: usize,
}

/// Synchronize two mempools; returns the report plus both updated pools.
pub fn sync_mempools(
    sender: &Mempool,
    receiver: &Mempool,
    cfg: &GrapheneConfig,
) -> (SyncReport, Mempool, Mempool) {
    let m = receiver.len();
    // The pseudo-block: the sender's entire pool, CTOR-ordered so the
    // Merkle commitment doubles as the reconciliation check.
    let txns: Vec<_> = sender.iter().cloned().collect();
    let block = Block::assemble(Digest::ZERO, 0, txns, OrderingScheme::Ctor);

    let mut engine = RxEngine::new(block.id(), Ladder::Graphene(*cfg, None));
    let mut bytes = ByteBreakdown::default();
    let mut responses = 0u32;
    let mut receiver_pool = receiver.clone();
    let mut bloom_s = None;
    let sender_ids = exchange_once(
        &mut engine,
        receiver,
        |req| respond(&block, None, req, m, cfg),
        |rung, msg| {
            bytes.charge(rung, msg);
            responses += u32::from(msg.response_block_id().is_some());
            if let Message::GrapheneBlock(p1) = msg {
                bloom_s = Some(p1.bloom_s.clone());
            }
            // Sender-only transactions delivered outright enter the
            // receiver's pool, whether or not the sync then reconciles.
            let delivered: &[Transaction] = match msg {
                Message::GrapheneRecovery(rec) => &rec.missing,
                Message::BlockTxn(fetched) => &fetched.txns,
                _ => &[],
            };
            for tx in delivered {
                receiver_pool.insert(tx.clone());
            }
        },
    );

    // Ship back everything the sender lacks. A receiver that reconstructed
    // the sender's pool exactly knows that is everything of hers outside it
    // (`H` plus the `S` false positives reconciliation identified); after a
    // failed sync she falls back to `H` alone, the definite negatives of `S`.
    let h_txns: Vec<Transaction> = match &sender_ids {
        Some(ids) => {
            let known: HashSet<&TxId> = ids.iter().collect();
            receiver.iter().filter(|tx| !known.contains(tx.id())).cloned().collect()
        }
        None => match &bloom_s {
            Some(s) => {
                let hits = s.contains_batch_by(receiver.txns(), Transaction::id);
                let misses = receiver.txns().iter().enumerate().filter(|(j, _)| !hits.get(*j));
                misses.map(|(_, tx)| tx.clone()).collect()
            }
            None => Vec::new(),
        },
    };
    let mut sender_pool = sender.clone();
    for tx in &h_txns {
        sender_pool.insert(tx.clone());
    }
    let h_transfer = if h_txns.is_empty() {
        0
    } else {
        Message::BlockTxn(BlockTxnMsg { block_id: block.id(), txns: h_txns }).wire_size()
    };

    // Ground truth: both pools must now equal the union.
    let mut union_ids: Vec<TxId> =
        sender.iter().chain(receiver.iter()).map(|tx| *tx.id()).collect();
    union_ids.sort();
    union_ids.dedup();
    let success = sender_ids.is_some()
        && union_ids.iter().all(|id| sender_pool.contains(id) && receiver_pool.contains(id));

    let report = SyncReport {
        success,
        bytes,
        h_transfer,
        rounds: 2 * responses,
        union_size: union_ids.len(),
    };
    (report, sender_pool, receiver_pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, TxProfile};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    fn pools(n: usize, common: f64, seed: u64) -> (Mempool, Mempool) {
        Scenario::mempool_sync(n, common, TxProfile::Fixed(150), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn identical_pools_trivial() {
        let (a, b) = pools(300, 1.0, 1);
        let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
        assert!(report.success);
        assert_eq!(report.union_size, 300);
        assert_eq!(sa.len(), 300);
        assert_eq!(sb.len(), 300);
        assert_eq!(report.h_transfer, 0);
    }

    #[test]
    fn partial_overlap_unions() {
        for common in [0.0, 0.3, 0.7, 0.9] {
            let (a, b) = pools(200, common, (common * 100.0) as u64 + 2);
            let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
            assert!(report.success, "common = {common}: {report:?}");
            assert_eq!(sa.len(), report.union_size, "common = {common}");
            assert_eq!(sb.len(), report.union_size, "common = {common}");
            let expect = 200 + 200 - (200.0 * common).round() as usize;
            assert_eq!(report.union_size, expect, "common = {common}");
        }
    }

    #[test]
    fn disjoint_pools_full_exchange() {
        let (a, b) = pools(100, 0.0, 9);
        let (report, sa, sb) = sync_mempools(&a, &b, &cfg());
        assert!(report.success);
        assert_eq!(report.union_size, 200);
        assert_eq!(sa.len(), 200);
        assert_eq!(sb.len(), 200);
        assert!(report.h_transfer > 0, "receiver-only txns must ship back");
    }

    #[test]
    fn smaller_sender_cheaper() {
        // §3.2.1: "more efficient if the peer with the smaller mempool acts
        // as the sender since S will be smaller." Model the natural shape:
        // one peer's pool is a subset of the other's.
        let mut rng = StdRng::seed_from_u64(10);
        let (big, _) = Scenario::mempool_sync(2000, 1.0, TxProfile::Fixed(150), &mut rng);
        let small: Mempool = big.iter().take(500).cloned().collect();

        let (r1, sa1, sb1) = sync_mempools(&small, &big, &cfg());
        let (r2, sa2, sb2) = sync_mempools(&big, &small, &cfg());
        assert!(r1.success && r2.success);
        for p in [&sa1, &sb1, &sa2, &sb2] {
            assert_eq!(p.len(), 2000);
        }
        // Structure bytes only (tx bodies dominate the reverse direction and
        // are accounted separately).
        let structures = |r: &SyncReport| {
            r.bytes.bloom_s + r.bytes.iblt_i + r.bytes.bloom_r + r.bytes.iblt_j + r.bytes.bloom_f
        };
        assert!(
            structures(&r1) < structures(&r2),
            "small-sender {} vs big-sender {}",
            structures(&r1),
            structures(&r2)
        );
    }
}
