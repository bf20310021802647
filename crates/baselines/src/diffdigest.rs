//! IBLT-only reconciliation in the style of Eppstein et al.'s Difference
//! Digest (SIGCOMM 2011), the paper's §5.3.2 comparison point.
//!
//! The sender announces `n`; the receiver answers with a *strata estimator*
//! — `⌈log2 m⌉` small IBLTs (80 cells each) where each element is assigned
//! to stratum `i` with probability `2^-(i+1)` by trailing zeros of its
//! hash — from which the sender estimates the symmetric difference `d`,
//! then ships one IBLT with `2·d̂` cells ("twice the number of cells as the
//! estimate, to account for an under-estimate"). The receiver subtracts and
//! peels as usual.

use crate::BaselineReport;
use graphene_blockchain::{Block, Mempool};
use graphene_hashes::{short_id_8, siphash24, SipKey};
use graphene_iblt::{Iblt, PeelScratch, CELL_BYTES, HEADER_BYTES};
use graphene_wire::messages::{GetDataMsg, InvMsg, Message};
use graphene_wire::varint::varint_len;

const STRATA_CELLS: usize = 80;
const STRATA_K: u32 = 4;

/// Number of strata for a universe of `m` elements.
fn strata_levels(m: usize) -> usize {
    (usize::BITS - m.max(2).leading_zeros()) as usize
}

/// Which stratum an element falls into: the number of trailing zeros of an
/// independent hash of it.
fn stratum_of(salt: u64, value: u64, levels: usize) -> usize {
    let h = siphash24(SipKey::new(salt, 0x5354_5241), &value.to_le_bytes());
    (h.trailing_zeros() as usize).min(levels - 1)
}

/// Build the strata estimator over a set of short IDs.
fn build_strata(values: impl Iterator<Item = u64>, levels: usize, salt: u64) -> Vec<Iblt> {
    let mut strata: Vec<Iblt> =
        (0..levels).map(|i| Iblt::new(STRATA_CELLS, STRATA_K, salt ^ (i as u64) << 8)).collect();
    for v in values {
        let s = stratum_of(salt, v, levels);
        strata[s].insert(v);
    }
    strata
}

/// Estimate the symmetric difference between two sets from their strata.
///
/// Decodes from the deepest stratum downward; once a stratum fails, scales
/// the count recovered so far by the sampling rate (the standard strata
/// estimator procedure).
fn estimate_difference(mine: &[Iblt], theirs: &[Iblt]) -> usize {
    let mut count = 0usize;
    // One difference buffer and one peel scratch for all strata.
    let mut diff = Iblt::new(STRATA_CELLS, STRATA_K, 0);
    let mut scratch = PeelScratch::new();
    for i in (0..mine.len()).rev() {
        if mine[i].subtract_into(&theirs[i], &mut diff).is_err() {
            return count << (i + 1);
        }
        match diff.peel_in_place(&mut scratch) {
            Ok(r) if r.complete => count += r.len(),
            _ => {
                // Stratum i failed: everything below is unsampled; scale.
                return (count.max(1)) << (i + 1);
            }
        }
    }
    count.max(1)
}

/// Relay `block` with the IBLT-only protocol.
pub fn diff_digest_relay(block: &Block, mempool: &Mempool) -> BaselineReport {
    let mut report = BaselineReport { success: false, rounds: 2, ..Default::default() };
    let salt = block.id().low_u64() ^ 0xd1f;
    let m = mempool.len();
    let levels = strata_levels(m.max(block.len()));

    // inv (with n) / strata exchange.
    report.total += Message::Inv(InvMsg { block_id: block.id() }).wire_size();
    report.total += Message::GetData(GetDataMsg { block_id: block.id(), mempool_count: m as u64 })
        .wire_size()
        + varint_len(block.len() as u64);

    let receiver_strata = build_strata(mempool.iter().map(|tx| short_id_8(tx.id())), levels, salt);
    // The whole estimator crosses the wire.
    report.total += levels * (HEADER_BYTES + STRATA_CELLS * CELL_BYTES);

    let sender_strata =
        build_strata(block.txns().iter().map(|tx| short_id_8(tx.id())), levels, salt);
    let estimate = estimate_difference(&sender_strata, &receiver_strata);

    // Sender ships an IBLT with 2·d̂ cells.
    let cells = (2 * estimate).max(8);
    let mut iblt = Iblt::new(cells, 4, salt ^ 0xface);
    iblt.insert_batch_by(block.txns(), |tx| short_id_8(tx.id()));
    report.total += iblt.serialized_size();

    // Receiver subtracts her whole mempool and peels.
    let mut mine = Iblt::new(iblt.cell_count(), iblt.hash_count(), iblt.salt());
    mine.insert_batch_by(mempool.txns(), |tx| short_id_8(tx.id()));
    // Consume the local table as the difference buffer.
    if mine.subtract_from(&iblt).is_err() {
        return report;
    }
    let mut diff = mine;
    let decoded = match diff.peel() {
        Ok(r) => r,
        Err(_) => return report,
    };
    if !decoded.complete {
        return report;
    }

    // Fetch the block transactions the mempool lacks.
    let missing = decoded.only_left.len();
    if missing > 0 {
        report.rounds += 1;
        report.total += 5 + 32 + varint_len(missing as u64) + 8 * missing;
        let bodies: usize = block
            .txns()
            .iter()
            .filter(|tx| decoded.only_left.contains(&short_id_8(tx.id())))
            .map(|tx| varint_len(tx.size() as u64) + tx.size())
            .sum();
        report.total += 5 + 32 + bodies;
        report.txn_bytes += bodies;
    }
    report.success = true;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Scenario, ScenarioParams};
    use rand::{rngs::StdRng, SeedableRng};

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
    fn strata_levels_sane() {
        assert_eq!(strata_levels(2), 2);
        assert_eq!(strata_levels(1024), 11);
    }

    #[test]
    fn estimator_tracks_true_difference() {
        // Two sets with a known difference of 200.
        let salt = 42;
        let levels = strata_levels(2000);
        let a = build_strata(0..2000u64, levels, salt);
        let b = build_strata(100..2100u64, levels, salt);
        let est = estimate_difference(&a, &b);
        assert!((50..=800).contains(&est), "estimate {est} wildly off from true 200");
    }

    #[test]
    fn reconciles_superset_mempool() {
        let s = scenario(300, 2.0, 1.0, 1);
        let r = diff_digest_relay(&s.block, &s.receiver_mempool);
        assert!(r.success);
        assert_eq!(r.txn_bytes, 0, "receiver already had everything");
    }

    #[test]
    fn costlier_than_graphene() {
        // §5.3.2: "several times more expensive than Graphene."
        let s = scenario(2000, 1.0, 1.0, 2);
        let dd = diff_digest_relay(&s.block, &s.receiver_mempool);
        assert!(dd.success);
        let g = graphene::relay_block(
            &s.block,
            None,
            &s.receiver_mempool,
            &graphene::GrapheneConfig::default(),
        );
        assert!(g.outcome.is_success());
        assert!(
            dd.total_excluding_txns() > 2 * g.bytes.total_excluding_txns(),
            "diff digest {} vs graphene {}",
            dd.total_excluding_txns(),
            g.bytes.total_excluding_txns()
        );
    }

    #[test]
    fn recovers_missing_transactions() {
        let s = scenario(200, 1.0, 0.8, 3);
        let r = diff_digest_relay(&s.block, &s.receiver_mempool);
        assert!(r.success);
        assert!(r.txn_bytes > 0);
        assert_eq!(r.rounds, 3);
    }
}
