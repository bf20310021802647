//! One Monte Carlo trial of Protocols 1 and 2, run on the code that ships.
//!
//! The decode-rate figures (15, 16) and the theorem validations (19, 20)
//! need thousands of relays per point. A trial draws random transaction
//! IDs, forges transactions with empty bodies around them — so nothing is
//! hashed but the block's Merkle tree — and builds a CTOR [`Block`] and the
//! receiver's [`Mempool`] from them. Everything after that is the
//! production relay: [`relay_block`] for the outcome, and
//! `protocol1::receiver_decode` + `protocol2::receiver_request` for the
//! `z`, `x*` and `y*` a receiver computes. Salts derive from the block ID,
//! so two relays of one trial under different configurations build the
//! same `S`, `I`, `R` and `J`.

use graphene::error::P1Failure;
use graphene::session::{relay_block, RelayOutcome};
use graphene::{protocol1, protocol2, GrapheneConfig};
use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction};
use graphene_hashes::Digest;
use rand::{rngs::StdRng, RngExt};

/// A block and a receiver's mempool drawn for one trial.
#[derive(Debug)]
pub struct Trial {
    /// The block relayed, in CTOR order.
    pub block: Block,
    /// The receiver's mempool: `held` block transactions, then the extras.
    pub mempool: Mempool,
    /// `x`: how many of the block's transactions the receiver holds.
    pub held: usize,
}

/// Theorems 2 and 3 on one trial whose relay reached Protocol 2.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    /// Theorem 2: `x* ≤ x`.
    pub x_star_holds: bool,
    /// Theorem 3: `y* ≥ y`, where `y = z − x` are the false positives of `S`.
    pub y_star_holds: bool,
}

impl Trial {
    /// An `n`-transaction block of which the receiver holds
    /// `round(n · fraction_held)`, plus `extras` unrelated transactions in
    /// its mempool.
    pub fn draw(n: usize, fraction_held: f64, extras: usize, rng: &mut StdRng) -> Trial {
        let held = ((n as f64) * fraction_held).round().min(n as f64) as usize;
        let mut forge = || Transaction::forge_with_id(Vec::new(), Digest(rng.random()));
        let txns: Vec<Transaction> = (0..n).map(|_| forge()).collect();
        let extra: Vec<Transaction> = (0..extras).map(|_| forge()).collect();
        let mempool = txns[..held].iter().cloned().chain(extra).collect();
        let block = Block::assemble(Digest::ZERO, 0, txns, OrderingScheme::Ctor);
        Trial { block, mempool, held }
    }

    /// How the production relay ends under `cfg`.
    pub fn relay(&self, cfg: &GrapheneConfig) -> RelayOutcome {
        relay_block(&self.block, None, &self.mempool, cfg).outcome
    }

    /// Run the receiver to its Protocol 2 request and check the bounds it
    /// sized that request with against the truth; `None` when the relay
    /// sends no such request.
    ///
    /// This mirrors the routing of `RxEngine::on_graphene_block`: Protocol
    /// 1 decoding ends the relay, a malformed IBLT is the sender's
    /// misbehaviour, and every other failure goes to Protocol 2. A change
    /// to that routing changes this too. The direct-fetch extension, which
    /// skips Protocol 2 on some failures, is not mirrored.
    pub fn bounds(&self, cfg: &GrapheneConfig) -> Option<Bounds> {
        assert!(!cfg.direct_fetch, "bounds does not follow the direct-fetch route");
        let (n, m) = (self.block.len(), self.mempool.len());
        let (msg, _) = protocol1::sender_encode(&self.block, m as u64, None, cfg);
        let state = match protocol1::receiver_decode(&msg, &self.mempool, cfg) {
            Ok(_) | Err((P1Failure::Malformed(_), _)) => return None,
            Err((_, state)) => state,
        };
        let (_, req) = protocol2::receiver_request(&state, self.block.id(), n, m, cfg);
        // S has no false negatives, so every held transaction is in Z.
        let y = state.z - self.held;
        Some(Bounds { x_star_holds: req.x_star <= self.held, y_star_holds: req.y_star >= y })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg() -> GrapheneConfig {
        GrapheneConfig::default()
    }

    #[test]
    fn p1_succeeds_when_holding_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut failures = 0;
        for _ in 0..200 {
            let trial = Trial::draw(200, 1.0, 200, &mut rng);
            if trial.relay(&cfg()) != RelayOutcome::DecodedP1 {
                failures += 1;
            }
        }
        assert!(failures <= 3, "{failures}/200 P1 failures");
    }

    #[test]
    fn p2_recovers_partial_blocks() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut p2_failures = 0;
        for _ in 0..200 {
            match Trial::draw(200, 0.5, 200, &mut rng).relay(&cfg()) {
                RelayOutcome::DecodedP1 => panic!("P1 cannot succeed at 50% possession"),
                RelayOutcome::DecodedP2 { .. } => {}
                RelayOutcome::Failed { .. } => p2_failures += 1,
            }
        }
        assert!(p2_failures <= 3, "{p2_failures}/200 P2 failures");
    }

    #[test]
    fn bounds_hold_at_beta_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut xs_bad, mut ys_bad) = (0, 0);
        for _ in 0..300 {
            let b = Trial::draw(500, 0.6, 500, &mut rng).bounds(&cfg());
            let b = b.expect("P1 cannot succeed at 60% possession");
            xs_bad += usize::from(!b.x_star_holds);
            ys_bad += usize::from(!b.y_star_holds);
        }
        // β = 239/240 ⇒ expect ≲ 2 violations in 300.
        assert!(xs_bad <= 4, "x* violated {xs_bad}/300");
        assert!(ys_bad <= 4, "y* violated {ys_bad}/300");
    }

    /// A mempool topped up with unrelated transactions to exactly `m = n`:
    /// `f_S` degenerates, the §3.3.1 special case sends filter `F`, and the
    /// relay still recovers without ping-pong.
    #[test]
    fn m_equals_n_special_path_runs() {
        let single = GrapheneConfig { pingpong: false, ..cfg() };
        let mut rng = StdRng::seed_from_u64(4);
        let mut successes = 0;
        for _ in 0..100 {
            let (n, held) = (300, 120);
            let trial = Trial::draw(n, 0.4, n - held, &mut rng);
            assert_eq!((trial.held, trial.mempool.len()), (held, n));
            let report = relay_block(&trial.block, None, &trial.mempool, &single);
            assert!(report.bytes.bloom_f > 0, "special case not taken");
            if report.outcome.is_success() {
                successes += 1;
            }
        }
        assert!(successes >= 95, "{successes}/100 m≈n recoveries");
    }
}
