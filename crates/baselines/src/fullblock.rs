//! The uncompressed baseline: ship the whole block (Fig. 13's left facet).

use crate::{relay_once, BaselineReport};
use graphene::engine::{respond_plain, Ladder};
use graphene_blockchain::{Block, Mempool};
use graphene_wire::messages::{GetFullBlockMsg, Message};

/// Relay `block` in full: a plain `getdata` answered with the block itself.
pub fn full_block_relay(block: &Block) -> BaselineReport {
    let full = Message::GetFullBlock(GetFullBlockMsg { block_id: block.id() });
    relay_once(block, &Mempool::new(), Ladder::Plain, |_| respond_plain(block, &full))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams, TxProfile};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn size_tracks_payloads() {
        let params = ScenarioParams {
            block_size: 100,
            profile: TxProfile::Fixed(200),
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(1));
        let r = full_block_relay(&s.block);
        assert!(r.success);
        assert_eq!(r.txn_bytes, 100 * 200);
        // Everything except headers/framing is transaction bodies.
        assert!(r.total_excluding_txns() < 600, "{}", r.total_excluding_txns());
    }
}
