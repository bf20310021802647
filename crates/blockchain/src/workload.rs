//! Synthetic workload generation for every evaluation scenario.
//!
//! The paper's deployments measured live BCH/ETH traffic; our substitute is
//! a deterministic generator (seeded `StdRng`) that controls exactly the
//! variables the figures sweep:
//!
//! * block size `n` (200 / 2000 / 10000 in the simulations);
//! * receiver mempool size `m` as a multiple of `n` (Fig. 14);
//! * the fraction of the block already in the receiver's mempool
//!   (Figs. 16–17);
//! * mempool-synchronization overlap with `m = n` (Fig. 18);
//! * transaction-size profiles approximating BCH and ETH traffic
//!   (Figs. 12–13).
//!
//! Two tiers are provided: [`Scenario`] carries full [`Transaction`]s (for
//! byte-exact full-block/missing-transaction accounting) and [`IdScenario`]
//! carries bare txids (an order of magnitude faster; decode-rate Monte
//! Carlo needs tens of thousands of trials and never looks at payloads).

use crate::block::{Block, OrderingScheme};
use crate::mempool::Mempool;
use crate::tx::{Transaction, TxId};
use graphene_hashes::Digest;
use rand::{rngs::StdRng, RngExt};

/// Transaction-size distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TxProfile {
    /// Every transaction exactly this many bytes.
    Fixed(usize),
    /// Uniform in `[min, max]`.
    Uniform(usize, usize),
    /// Bitcoin-Cash-like: most transactions 190–420 bytes, occasional large
    /// consolidations.
    BtcLike,
    /// Ethereum-like: small RLP transactions, 100–160 bytes.
    EthLike,
}

impl TxProfile {
    /// Draw one transaction size.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            TxProfile::Fixed(s) => s.max(8),
            TxProfile::Uniform(min, max) => rng.random_range(min.max(8)..=max.max(min).max(8)),
            TxProfile::BtcLike => {
                if rng.random_range(0..100) < 5 {
                    rng.random_range(600..2000) // consolidation / multisig
                } else {
                    rng.random_range(190..=420)
                }
            }
            TxProfile::EthLike => rng.random_range(100..=160),
        }
    }

    /// Mean size in bytes (used when estimating repair-transmission cost
    /// without materializing payloads).
    pub fn mean(&self) -> f64 {
        match *self {
            TxProfile::Fixed(s) => s.max(8) as f64,
            TxProfile::Uniform(min, max) => (min.max(8) + max.max(min).max(8)) as f64 / 2.0,
            TxProfile::BtcLike => 0.95 * 305.0 + 0.05 * 1300.0,
            TxProfile::EthLike => 130.0,
        }
    }
}

/// Parameters for a block-relay scenario.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioParams {
    /// Transactions in the block (`n`).
    pub block_size: usize,
    /// Extra receiver-mempool transactions, as a multiple of `n` — the
    /// x-axis of Fig. 14. `m = n·fraction_of_block + extras`.
    pub extra_mempool_multiple: f64,
    /// Fraction of the block's transactions the receiver already has —
    /// the x-axis of Figs. 16–17 (1.0 for Protocol 1 scenarios).
    pub block_fraction_in_mempool: f64,
    /// Transaction-size distribution.
    pub profile: TxProfile,
    /// Block transaction ordering.
    pub ordering: OrderingScheme,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            block_size: 200,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: 1.0,
            profile: TxProfile::Fixed(250),
            ordering: OrderingScheme::Ctor,
        }
    }
}

/// A fully materialized block-relay scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The block the sender relays.
    pub block: Block,
    /// The receiver's mempool.
    pub receiver_mempool: Mempool,
}

impl Scenario {
    /// Generate a scenario from `params`, deterministically from `rng`.
    pub fn generate(params: &ScenarioParams, rng: &mut StdRng) -> Scenario {
        let n = params.block_size;
        let mut payload = Vec::new();
        let mut mk_tx = |rng: &mut StdRng| random_tx(params.profile, rng, &mut payload);

        let block_txns: Vec<Transaction> = (0..n).map(|_| mk_tx(rng)).collect();
        let held = ((n as f64) * params.block_fraction_in_mempool).round() as usize;
        let extras = ((n as f64) * params.extra_mempool_multiple).round() as usize;

        let held = block_txns.iter().take(held).cloned();
        let receiver_mempool: Mempool = held.chain((0..extras).map(|_| mk_tx(rng))).collect();

        let block = Block::assemble(Digest::ZERO, 1_700_000_000, block_txns, params.ordering);
        Scenario { block, receiver_mempool }
    }

    /// Generate a mempool-synchronization scenario (Fig. 18): both peers
    /// hold `n` transactions, a `fraction_common` of which are shared; the
    /// rest of each pool is unrelated. Returns `(sender, receiver)` pools.
    pub fn mempool_sync(
        n: usize,
        fraction_common: f64,
        profile: TxProfile,
        rng: &mut StdRng,
    ) -> (Mempool, Mempool) {
        let common = ((n as f64) * fraction_common).round() as usize;
        let mut payload = Vec::new();
        let mut mk_tx = |rng: &mut StdRng| random_tx(profile, rng, &mut payload);
        let shared: Vec<Transaction> = (0..common).map(|_| mk_tx(rng)).collect();
        let mut sender: Mempool = shared.iter().cloned().collect();
        let mut receiver: Mempool = shared.into_iter().collect();
        for _ in common..n {
            sender.insert(mk_tx(rng));
            receiver.insert(mk_tx(rng));
        }
        (sender, receiver)
    }
}

/// A transaction of `profile`'s size with random bytes, drawn into
/// `payload` — one buffer for a whole scenario, so a transaction costs
/// the one allocation its own payload takes.
fn random_tx(profile: TxProfile, rng: &mut StdRng, payload: &mut Vec<u8>) -> Transaction {
    payload.clear();
    payload.resize(profile.sample(rng), 0);
    rng.fill(&mut payload[..]);
    Transaction::new(&payload[..])
}

/// A lightweight, IDs-only scenario for high-volume Monte Carlo.
#[derive(Clone, Debug)]
pub struct IdScenario {
    /// IDs in the sender's block.
    pub block_ids: Vec<TxId>,
    /// IDs in the receiver's mempool (some block IDs plus extras).
    pub receiver_ids: Vec<TxId>,
    /// How many of `block_ids` the receiver holds (prefix of `block_ids`).
    pub held: usize,
}

impl IdScenario {
    /// Generate random 32-byte IDs directly — statistically identical to
    /// hashing random payloads, ~10× faster.
    pub fn generate(
        n: usize,
        extra_mempool_multiple: f64,
        block_fraction_in_mempool: f64,
        rng: &mut StdRng,
    ) -> IdScenario {
        let block_ids: Vec<TxId> = (0..n).map(|_| Digest(rng.random())).collect();
        let held = ((n as f64) * block_fraction_in_mempool).round() as usize;
        let extras = ((n as f64) * extra_mempool_multiple).round() as usize;
        let mut receiver_ids: Vec<TxId> = block_ids[..held.min(n)].to_vec();
        receiver_ids.extend((0..extras).map(|_| Digest(rng.random())));
        IdScenario { block_ids, receiver_ids, held: held.min(n) }
    }

    /// Receiver mempool size `m`.
    pub fn mempool_size(&self) -> usize {
        self.receiver_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn scenario_shapes() {
        let params = ScenarioParams {
            block_size: 100,
            extra_mempool_multiple: 0.5,
            block_fraction_in_mempool: 1.0,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut rng(1));
        assert_eq!(s.block.len(), 100);
        assert_eq!(s.receiver_mempool.len(), 150);
        // Receiver holds the whole block.
        assert!(s.block.ids().iter().all(|id| s.receiver_mempool.contains(id)));
    }

    #[test]
    fn partial_block_possession() {
        let params = ScenarioParams {
            block_size: 200,
            extra_mempool_multiple: 1.0,
            block_fraction_in_mempool: 0.6,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut rng(2));
        let held = s.block.ids().iter().filter(|id| s.receiver_mempool.contains(id)).count();
        assert_eq!(held, 120);
        assert_eq!(s.receiver_mempool.len(), 120 + 200);
    }

    #[test]
    fn deterministic_given_seed() {
        let params = ScenarioParams::default();
        let a = Scenario::generate(&params, &mut rng(7));
        let b = Scenario::generate(&params, &mut rng(7));
        assert_eq!(a.block.id(), b.block.id());
    }

    #[test]
    fn mempool_sync_overlap() {
        let (s, r) = Scenario::mempool_sync(1000, 0.3, TxProfile::Fixed(100), &mut rng(3));
        assert_eq!(s.len(), 1000);
        assert_eq!(r.len(), 1000);
        let common = s.iter().filter(|t| r.contains(t.id())).count();
        assert_eq!(common, 300);
    }

    #[test]
    fn id_scenario_shapes() {
        let s = IdScenario::generate(500, 2.0, 0.8, &mut rng(4));
        assert_eq!(s.block_ids.len(), 500);
        assert_eq!(s.held, 400);
        assert_eq!(s.mempool_size(), 400 + 1000);
        // The held prefix is in the receiver's set.
        assert!(s.receiver_ids[..400].iter().zip(&s.block_ids[..400]).all(|(a, b)| a == b));
    }

    #[test]
    fn profiles_sample_in_range() {
        let mut r = rng(5);
        for _ in 0..200 {
            let s = TxProfile::BtcLike.sample(&mut r);
            assert!((190..2000).contains(&s));
            let e = TxProfile::EthLike.sample(&mut r);
            assert!((100..=160).contains(&e));
            assert_eq!(TxProfile::Fixed(3).sample(&mut r), 8); // clamped
        }
    }

    #[test]
    fn profile_means_sane() {
        assert!((TxProfile::Fixed(250).mean() - 250.0).abs() < 1e-9);
        assert!(TxProfile::BtcLike.mean() > 300.0);
        assert!(TxProfile::EthLike.mean() < 160.0);
    }
}
