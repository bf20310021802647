//! Xtreme Thinblocks (BUIP010), as deployed in Bitcoin Unlimited.
//!
//! The receiver's `getdata` carries a Bloom filter of her mempool txids; the
//! sender replies with the block's 8-byte short IDs plus, in full, every
//! transaction that misses the filter. A filter false positive makes the
//! sender skip a transaction the receiver actually lacks — detected at
//! reconstruction and repaired with one extra round.
//!
//! The receiver ([`Ladder::Xthin`]) resolves short IDs against her mempool
//! first, as deployed clients do, and falls back to delivered bodies. That
//! precedence is what the §6.1 manufactured-collision attack exploits: a
//! mempool transaction whose short ID collides with a block transaction
//! shadows it, every position resolves, and the Merkle check fails.
//!
//! The paper's deployment comparison (Fig. 12) uses **XThin***: identical
//! except the receiver-filter bytes are excluded to make the one-way cost
//! comparable; [`BaselineReport::total_xthin_star`] implements that view.

use crate::{relay_once, BaselineReport};
use graphene::engine::{respond_plain, Ladder};
use graphene_blockchain::{Block, Mempool};

/// Accounting knobs for the XThin simulation.
#[derive(Clone, Copy, Debug)]
pub struct XthinAccounting {
    /// False-positive rate of the receiver's mempool filter (BU targets a
    /// low rate; 0.001 is representative).
    pub mempool_filter_fpr: f64,
}

impl Default for XthinAccounting {
    fn default() -> Self {
        XthinAccounting { mempool_filter_fpr: 0.001 }
    }
}

/// Relay `block` via XThin to a receiver holding `mempool`. XThin's
/// bandwidth grows with the mempool (the paper's key criticism): see
/// [`BaselineReport::receiver_filter_bytes`].
pub fn xthin_relay(block: &Block, mempool: &Mempool, acct: &XthinAccounting) -> BaselineReport {
    let ladder = Ladder::Xthin { filter_fpr: acct.mempool_filter_fpr };
    relay_once(block, mempool, ladder, |req| respond_plain(block, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn full_mempool_single_round() {
        let s = scenario(300, 1.0, 1.0, 1);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert!(r.success);
        assert_eq!(r.rounds, 1);
        // 8 bytes per txn dominates the XThin* view.
        assert!(r.total_xthin_star() >= 8 * 300);
        assert!(r.total_xthin_star() < 8 * 300 + 300);
    }

    #[test]
    fn filter_grows_with_mempool() {
        let small = scenario(200, 0.5, 1.0, 2);
        let big = scenario(200, 5.0, 1.0, 3);
        let rs = xthin_relay(&small.block, &small.receiver_mempool, &XthinAccounting::default());
        let rb = xthin_relay(&big.block, &big.receiver_mempool, &XthinAccounting::default());
        assert!(
            rb.receiver_filter_bytes > rs.receiver_filter_bytes * 2,
            "{} vs {}",
            rb.receiver_filter_bytes,
            rs.receiver_filter_bytes
        );
    }

    #[test]
    fn missing_txns_delivered_inline() {
        let s = scenario(250, 1.0, 0.6, 4);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert!(r.success);
        // 40% of 250 ≈ 100 txns ship in the first response.
        assert!(r.txn_bytes > 80 * 200, "txn bytes {}", r.txn_bytes);
    }

    #[test]
    fn xthin_star_excludes_filter() {
        let s = scenario(100, 2.0, 1.0, 5);
        let r = xthin_relay(&s.block, &s.receiver_mempool, &XthinAccounting::default());
        assert_eq!(r.total_xthin_star(), r.total_excluding_txns() - r.receiver_filter_bytes);
    }

    #[test]
    fn empty_mempool() {
        let s = scenario(60, 0.0, 1.0, 6);
        let r = xthin_relay(&s.block, &Mempool::new(), &XthinAccounting::default());
        assert!(r.success);
        let body: usize = s.block.txns().iter().map(|t| t.size()).sum();
        assert_eq!(r.txn_bytes, body);
    }
}
