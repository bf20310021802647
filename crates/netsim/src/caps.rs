//! §6.2-style resource caps on inbound messages.
//!
//! Graphene's sender chooses the Bloom filter and IBLT sizes, so a hostile
//! sender can pick pathological parameters and make the receiver allocate
//! and hash far beyond what any honest block needs (the DoS vector of
//! §6.2). Deployed implementations clamp every attacker-controlled length
//! before acting on the message; this module is that clamp for the
//! simulator. A message that violates a cap is *provably* hostile — honest
//! encodes never approach the limits, and link corruption cannot forge one
//! (the wire layer's length checks reject frames whose declared lengths
//! disagree with the payload) — so a violation is grounds for banning.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use graphene_wire::Message;

/// Upper bounds on attacker-chosen message dimensions.
#[derive(Clone, Copy, Debug)]
pub struct MessageCaps {
    /// Largest acceptable Bloom filter, in bytes (any role: `S`, `R`, the
    /// xthin mempool filter, or the ping-pong `F`).
    pub max_filter_bytes: usize,
    /// Largest acceptable IBLT, in cells.
    pub max_iblt_cells: usize,
    /// Most prefilled transactions in one `GrapheneBlock`.
    pub max_prefilled: usize,
    /// Most transaction bodies in one recovery / repair response.
    pub max_txns: usize,
}

impl Default for MessageCaps {
    fn default() -> Self {
        // An honest filter for a 1M-entry mempool at fpr 1e-3 is ~1.8 MB/8
        // ≈ 225 KB of bits; cap well above any simulated scenario but far
        // below the wire layer's 1M-element ceilings.
        MessageCaps {
            max_filter_bytes: 64 * 1024,
            max_iblt_cells: 1 << 16,
            max_prefilled: 4096,
            max_txns: 1 << 16,
        }
    }
}

impl MessageCaps {
    fn filter_ok(&self, f: &graphene_bloom::BloomFilter) -> bool {
        f.bit_len().div_ceil(8) <= self.max_filter_bytes
    }

    /// Check one inbound message against the caps. `Err` names the violated
    /// bound; the caller should treat it as a provable protocol offence.
    pub fn validate(&self, msg: &Message) -> Result<(), &'static str> {
        match msg {
            Message::GrapheneBlock(m) => {
                if !self.filter_ok(&m.bloom_s) {
                    return Err("oversized bloom filter S");
                }
                if m.iblt_i.cell_count() > self.max_iblt_cells {
                    return Err("oversized IBLT I");
                }
                if m.prefilled.len() > self.max_prefilled {
                    return Err("too many prefilled transactions");
                }
                if m.prefilled.len() as u64 > m.block_tx_count {
                    return Err("prefilled count exceeds declared block size");
                }
                Ok(())
            }
            Message::GrapheneRequest(m) => {
                if !self.filter_ok(&m.bloom_r) {
                    return Err("oversized bloom filter R");
                }
                Ok(())
            }
            Message::GrapheneRecovery(m) => {
                if m.iblt_j.cell_count() > self.max_iblt_cells {
                    return Err("oversized IBLT J");
                }
                if m.missing.len() > self.max_txns {
                    return Err("too many missing transactions");
                }
                if let Some(f) = &m.bloom_f {
                    if !self.filter_ok(f) {
                        return Err("oversized ping-pong filter F");
                    }
                }
                Ok(())
            }
            Message::XthinGetData(m) => {
                if !self.filter_ok(&m.mempool_filter) {
                    return Err("oversized mempool filter");
                }
                Ok(())
            }
            Message::BlockTxn(m) if m.txns.len() > self.max_txns => {
                Err("too many repair transactions")
            }
            Message::RatelessCells(m)
                if m.cells.len() > graphene_iblt::rateless::MAX_CELLS_PER_BATCH =>
            {
                Err("oversized rateless cell batch")
            }
            Message::GetMoreCells(m)
                if m.count as usize > graphene_iblt::rateless::MAX_CELLS_PER_BATCH =>
            {
                Err("oversized rateless cell request")
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_bloom::BloomFilter;
    use graphene_hashes::Digest;
    use graphene_iblt::Iblt;
    use graphene_wire::messages::{GrapheneRequestMsg, XthinGetDataMsg};

    fn big_filter() -> BloomFilter {
        // ~135 KB of bits: decodes fine at the wire layer, violates the cap.
        BloomFilter::new(75_000, 0.001, 7)
    }

    #[test]
    fn honest_sizes_pass() {
        let caps = MessageCaps::default();
        let m = Message::GrapheneRequest(GrapheneRequestMsg {
            block_id: Digest::ZERO,
            bloom_r: BloomFilter::new(2000, 0.01, 1),
            y_star: 10,
            b: 8,
            special_mn: false,
        });
        assert!(caps.validate(&m).is_ok());
    }

    #[test]
    fn oversized_filter_rejected() {
        let caps = MessageCaps::default();
        let m = Message::XthinGetData(XthinGetDataMsg {
            block_id: Digest::ZERO,
            mempool_filter: big_filter(),
        });
        assert!(caps.validate(&m).is_err());
    }

    #[test]
    fn oversized_iblt_rejected() {
        let caps = MessageCaps::default();
        let m = Message::GrapheneRecovery(graphene_wire::messages::GrapheneRecoveryMsg {
            block_id: Digest::ZERO,
            missing: Vec::new(),
            iblt_j: Iblt::new(caps.max_iblt_cells + 1, 3, 1),
            bloom_f: None,
        });
        assert_eq!(caps.validate(&m), Err("oversized IBLT J"));
    }

    #[test]
    fn oversized_rateless_batch_rejected() {
        use graphene_iblt::rateless::MAX_CELLS_PER_BATCH;
        use graphene_wire::messages::{GetMoreCellsMsg, RatelessCellsMsg};
        let caps = MessageCaps::default();
        let cell = graphene_iblt::Cell { count: 1, key_sum: 7, check_sum: 9 };
        let over = Message::RatelessCells(RatelessCellsMsg {
            block_id: Digest::ZERO,
            salt: 1,
            start_index: 0,
            cells: vec![cell; MAX_CELLS_PER_BATCH + 1],
        });
        assert_eq!(caps.validate(&over), Err("oversized rateless cell batch"));
        let at_cap = Message::RatelessCells(RatelessCellsMsg {
            block_id: Digest::ZERO,
            salt: 1,
            start_index: 0,
            cells: vec![cell; MAX_CELLS_PER_BATCH],
        });
        assert!(caps.validate(&at_cap).is_ok());
        let greedy = Message::GetMoreCells(GetMoreCellsMsg {
            block_id: Digest::ZERO,
            from_index: 0,
            count: MAX_CELLS_PER_BATCH as u32 + 1,
        });
        assert_eq!(caps.validate(&greedy), Err("oversized rateless cell request"));
    }

    #[test]
    fn prefilled_count_must_fit_declared_size() {
        let caps = MessageCaps::default();
        let tx = graphene_blockchain::Transaction::new(vec![1, 2, 3]);
        let block = graphene_blockchain::Block::assemble(
            Digest::ZERO,
            1,
            vec![tx.clone()],
            graphene_blockchain::OrderingScheme::Ctor,
        );
        let m = Message::GrapheneBlock(graphene_wire::messages::GrapheneBlockMsg {
            header: *block.header(),
            block_tx_count: 0,
            bloom_s: BloomFilter::new(10, 0.1, 1),
            iblt_i: Iblt::new(12, 3, 1),
            prefilled: vec![tx],
            order_bytes: Vec::new(),
        });
        assert!(caps.validate(&m).is_err());
    }
}
