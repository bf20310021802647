//! Baseline block-relay protocols the paper evaluates Graphene against.
//!
//! * [`compact`] — Compact Blocks (BIP152): 6-byte SipHash short IDs,
//!   index-based repair round. Deployed in Bitcoin Core/ABC/Unlimited.
//! * [`xthin`] — Xtreme Thinblocks (BUIP010): receiver sends a Bloom filter
//!   of her mempool; sender answers with 8-byte IDs plus whatever misses the
//!   filter. `XThin*` (Fig. 12) is the same with the receiver-filter bytes
//!   excluded from the comparison.
//! * [`fullblock`] — the uncompressed baseline.
//! * [`diffdigest`] — an IBLT-only reconciliation in the style of Eppstein
//!   et al.'s Difference Digest (strata estimator + doubled IBLT), the
//!   alternative §5.3.2 reports as several times costlier than Graphene.
//! * [`cpisync`] — Characteristic Polynomial Interpolation (Minsky et al.),
//!   §2.1's smaller-but-slower exact reconciliation, built on from-scratch
//!   GF(2^61−1) arithmetic ([`gf`]) and polynomial algebra ([`poly`]).
//!
//! Every simulator consumes the same inputs (a [`graphene_blockchain::Block`]
//! and the receiver's [`graphene_blockchain::Mempool`]) and produces a
//! [`BaselineReport`] with exact wire bytes, so the figures compare like for
//! like.
//!
//! The three relay baselines are drivers of the receiver engine Graphene
//! itself runs on ([`graphene::engine`]): each picks a [`Ladder`] and a
//! server, and `relay_once` runs them for **one attempt** — request,
//! response, at most one repair round — summing each message's
//! `wire_size()` into the report. Where the simulator's peer would
//! re-request and finally fetch the full block, a baseline relay that does
//! not reconstruct (the §6.1 forged short-ID collision) stops and reports
//! `success: false` with that attempt's bytes and rounds only. The Compact
//! Blocks and XThin the figures measure are therefore the ones the
//! simulator relays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod cpisync;
pub mod diffdigest;
pub mod fullblock;
pub mod gf;
pub mod poly;
pub mod xthin;

pub use compact::compact_blocks_relay;
pub use cpisync::{reconcile as cpisync_reconcile, sketch as cpisync_sketch, CpiError, CpiSketch};
pub use diffdigest::diff_digest_relay;
pub use fullblock::full_block_relay;
pub use xthin::{xthin_relay, XthinAccounting};

use graphene::engine::{Ladder, RxEngine};
use graphene::session::exchange_once;
use graphene_blockchain::{Block, Mempool, Transaction};
use graphene_bloom::Membership;
use graphene_wire::messages::{InvMsg, Message};

/// Announce `block`, then run one attempt of `ladder` against `serve` for a
/// receiver holding `mempool`, accounting every message.
fn relay_once(
    block: &Block,
    mempool: &Mempool,
    ladder: Ladder,
    serve: impl FnMut(&Message) -> Option<Message>,
) -> BaselineReport {
    let inv = Message::Inv(InvMsg { block_id: block.id() });
    let mut report = BaselineReport { total: inv.wire_size(), ..Default::default() };
    let mut engine = RxEngine::new(block.id(), ladder);
    let ids = exchange_once(&mut engine, mempool, serve, |_, msg| {
        report.total += msg.wire_size();
        // Each server message closes one round trip.
        report.rounds += u32::from(msg.response_block_id().is_some());
        let bodies: usize = match msg {
            Message::CmpctBlock(m) => m.prefilled.iter().map(|(_, tx)| tx.size()).sum(),
            Message::XthinBlock(m) => m.missing.iter().map(Transaction::size).sum(),
            Message::BlockTxn(m) => m.txns.iter().map(Transaction::size).sum(),
            Message::FullBlock(m) => m.txns.iter().map(Transaction::size).sum(),
            _ => 0,
        };
        report.txn_bytes += bodies;
        if let Message::XthinGetData(m) = msg {
            report.receiver_filter_bytes = m.mempool_filter.serialized_size();
        }
    });
    // The engine only returns IDs that hash to the header's Merkle root.
    report.success = ids.is_some();
    report
}

/// Byte/round accounting common to every baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineReport {
    /// Whether the receiver reconstructed the block exactly.
    pub success: bool,
    /// Round trips consumed (1 round trip = request + response).
    pub rounds: u32,
    /// Total bytes, including transaction bodies.
    pub total: usize,
    /// Bytes of transaction bodies shipped (missing/prefilled).
    pub txn_bytes: usize,
    /// Bytes of the receiver-side filter, where the protocol has one
    /// (XThin); separated so Fig. 12's XThin* accounting can exclude it.
    pub receiver_filter_bytes: usize,
}

impl BaselineReport {
    /// Total minus transaction bodies — the encoding-size metric the
    /// paper's simulation figures plot.
    pub fn total_excluding_txns(&self) -> usize {
        self.total - self.txn_bytes
    }

    /// The Fig. 12 XThin* metric: exclude the receiver's mempool filter too.
    pub fn total_xthin_star(&self) -> usize {
        self.total_excluding_txns() - self.receiver_filter_bytes
    }
}

/// The block and receiver mempool the relay tests run on.
#[cfg(test)]
fn scenario(n: usize, extra: f64, held: f64, seed: u64) -> graphene_blockchain::Scenario {
    use rand::SeedableRng;
    let params = graphene_blockchain::ScenarioParams {
        block_size: n,
        extra_mempool_multiple: extra,
        block_fraction_in_mempool: held,
        ..Default::default()
    };
    graphene_blockchain::Scenario::generate(&params, &mut rand::rngs::StdRng::seed_from_u64(seed))
}
