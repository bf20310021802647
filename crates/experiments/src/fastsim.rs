//! ID-level Monte Carlo of Protocols 1 and 2.
//!
//! Decode-rate figures (15, 16) and the theorem validations (Figs. 19, 20)
//! need tens of thousands of trials per point; materializing transaction
//! bodies and Merkle trees would waste almost all of that time. This module
//! replays the exact same mathematics as `graphene::protocol1/2` — the same
//! `optimal_a`/`x*`/`y*`/`optimal_b` calls, the same real Bloom filters and
//! IBLTs — over bare txids. A unit test cross-validates its Protocol 1
//! behaviour against the full implementation.

use graphene::config::GrapheneConfig;
use graphene::params::{optimal_a, optimal_b, x_star, y_star};
use graphene_blockchain::TxId;
use graphene_bloom::BloomFilter;
use graphene_hashes::{short_id_8, Digest};
use graphene_iblt::{ping_pong_decode, Iblt};
use graphene_iblt_params::params_for;
use rand::{rngs::StdRng, RngExt};
use std::collections::HashSet;

/// Scenario knobs for one trial.
#[derive(Clone, Copy, Debug)]
pub struct FastConfig {
    /// Block size `n`.
    pub n: usize,
    /// Extra mempool transactions as a multiple of `n`.
    pub extra_multiple: f64,
    /// Fraction of the block the receiver holds.
    pub fraction_held: f64,
    /// If set, top the mempool up with unrelated transactions so `m = n`
    /// exactly (the Fig. 18 shape).
    pub force_m_equals_n: bool,
}

/// Everything a trial observes.
#[derive(Clone, Debug, Default)]
pub struct FastOutcome {
    /// Protocol 1 decoded (IBLT complete, no missing, set correct).
    pub p1_success: bool,
    /// Protocol 2 decoded with ping-pong enabled.
    pub p2_success: bool,
    /// Protocol 2 decoded *without* ping-pong (Fig. 16's ablation).
    pub p2_success_no_pingpong: bool,
    /// Theorem 2 bound held (`x* ≤ x`).
    pub x_star_ok: bool,
    /// Theorem 3 bound held (`y* ≥ y`).
    pub y_star_ok: bool,
    /// Observed candidate-set size `z`.
    pub z: usize,
    /// True count of block transactions held.
    pub x: usize,
    /// True count of S false positives.
    pub y: usize,
}

/// Run one trial: generate ids, run Protocol 1, and (if the receiver was
/// missing transactions or the decode failed) Protocol 2 both with and
/// without ping-pong.
pub fn simulate_relay(fc: &FastConfig, cfg: &GrapheneConfig, rng: &mut StdRng) -> FastOutcome {
    let n = fc.n;
    let held = ((n as f64) * fc.fraction_held).round() as usize;
    let extras = if fc.force_m_equals_n {
        n - held.min(n)
    } else {
        ((n as f64) * fc.extra_multiple).round() as usize
    };

    let block_ids: Vec<TxId> = (0..n).map(|_| Digest(rng.random())).collect();
    let mut mempool_ids: Vec<TxId> = block_ids[..held.min(n)].to_vec();
    mempool_ids.extend((0..extras).map(|_| Digest(rng.random())));
    let m = mempool_ids.len();

    let mut out = FastOutcome::default();
    let salt = rng.random::<u64>();

    // --- Protocol 1 sender ---
    let choice = optimal_a(n, m, cfg.beta, cfg.iblt_rate_denom);
    let mut bloom_s = BloomFilter::new(n.max(1), choice.fpr, salt ^ 0x51);
    let mut iblt_i = Iblt::new(choice.iblt.c, choice.iblt.k, salt ^ 0x49);
    bloom_s.insert_batch(&block_ids);
    iblt_i.insert_batch_by(&block_ids, short_id_8);

    // --- Protocol 1 receiver ---
    let candidates = passing(&bloom_s, &mempool_ids, true);
    out.z = candidates.len();
    out.x = held.min(n);
    out.y = out.z - out.x; // no false negatives: all held block ids pass

    let mut iblt_prime = Iblt::new(iblt_i.cell_count(), iblt_i.hash_count(), iblt_i.salt());
    iblt_prime.insert_batch_by(&candidates, short_id_8);
    // I ⊖ I′ computed in place into I′ — no third table per relay.
    if iblt_prime.subtract_from(&iblt_i).is_err() {
        return out;
    }
    let mut i_delta = iblt_prime;
    let p1 = match i_delta.peel() {
        Ok(r) => r,
        Err(_) => return out,
    };
    if p1.complete && p1.only_left.is_empty() {
        // Candidate set minus FPs must equal the block.
        out.p1_success = verify_set(&block_ids, &candidates, &p1.only_right);
        if out.p1_success {
            out.p2_success = true;
            out.p2_success_no_pingpong = true;
            // Bounds are vacuously fine; don't count toward theorem stats.
            out.x_star_ok = true;
            out.y_star_ok = true;
            return out;
        }
    }

    // --- Protocol 2 receiver request ---
    let fpr_s = if bloom_s.bit_len() == 0 {
        1.0
    } else {
        graphene_bloom::params::theoretical_fpr(bloom_s.bit_len(), bloom_s.hash_count(), n)
    };
    let xs = x_star(out.z, m, fpr_s, cfg.beta, out.z.min(n));
    let ys = y_star(m, xs, fpr_s, cfg.beta);
    out.x_star_ok = xs <= out.x;
    out.y_star_ok = ys >= out.y;
    let bchoice = optimal_b(out.z, n, xs, ys, cfg.iblt_rate_denom);
    // §3.3.1 special-case trigger: z ≈ m and y* ≈ m (mirrors protocol2).
    let special = m > 0 && out.z * 10 >= m * 9 && ys * 10 >= m * 9;
    let fpr_r = if special { cfg.special_case_fpr } else { bchoice.fpr };

    let mut bloom_r = BloomFilter::new(out.z.max(1), fpr_r, salt ^ 0x52);
    bloom_r.insert_batch(&candidates);

    // --- Protocol 2 sender ---
    let missing = passing(&bloom_r, &block_ids, false);
    let (j_capacity, bloom_f) = if special {
        let h = missing.len();
        let z2 = n - h;
        let fpr_r_real = if bloom_r.bit_len() == 0 {
            1.0
        } else {
            graphene_bloom::params::theoretical_fpr(
                bloom_r.bit_len(),
                bloom_r.hash_count(),
                bloom_r.inserted().max(z2),
            )
        };
        let xs2 = x_star(z2, n, fpr_r_real, cfg.beta, z2);
        let ys2 = y_star(n, xs2, fpr_r_real, cfg.beta);
        let c2 = optimal_b(z2, m, xs2, ys2, cfg.iblt_rate_denom);
        let mut f = BloomFilter::new(z2.max(1), c2.fpr, salt ^ 0x46);
        f.insert_batch(&passing(&bloom_r, &block_ids, true));
        (c2.b + ys2, Some(f))
    } else {
        (bchoice.b + ys, None)
    };
    let jp = params_for(j_capacity.max(1), cfg.iblt_rate_denom);
    let mut iblt_j = Iblt::new(jp.c, jp.k, salt ^ 0x4a);
    iblt_j.insert_batch_by(&block_ids, short_id_8);

    // --- Protocol 2 receiver completion ---
    let c_set: Vec<TxId> = match &bloom_f {
        Some(f) => [passing(f, &candidates, true), missing.clone()].concat(),
        None => candidates.iter().chain(missing.iter()).copied().collect(),
    };
    let mut j_prime = Iblt::new(iblt_j.cell_count(), iblt_j.hash_count(), iblt_j.salt());
    j_prime.insert_batch_by(&c_set, short_id_8);
    if j_prime.subtract_from(&iblt_j).is_err() {
        return out;
    }
    let j_delta = j_prime;

    // Without ping-pong.
    {
        let mut jd = j_delta.clone();
        if let Ok(r) = jd.peel() {
            // `only_left` values are R false positives fetched in one extra
            // round by the real protocol — they complete the set.
            out.p2_success_no_pingpong =
                r.complete && verify_p2(&block_ids, &c_set, &r.only_right, &r.only_left);
        }
    }

    // With ping-pong (normal path only; the F-path differences diverge).
    if cfg.pingpong && bloom_f.is_none() {
        let mut jd = j_delta;
        // Align: the delivered T values sat on the block-only side of
        // I ⊖ I′; cancel them (accounting for the partial peel).
        let pl: HashSet<u64> = p1.only_left.iter().copied().collect();
        let t_set: HashSet<u64> = missing.iter().map(short_id_8).collect();
        for s in &t_set {
            if !pl.contains(s) {
                i_delta.cancel(*s, 1);
            }
        }
        for l in &pl {
            if !t_set.contains(l) {
                jd.cancel(*l, 1);
            }
        }
        for r in &p1.only_right {
            jd.cancel(*r, -1);
        }
        if let Ok(r) = ping_pong_decode(&mut i_delta, &mut jd) {
            if r.complete {
                let mut fps: Vec<u64> = r.only_right.clone();
                fps.extend(&p1.only_right);
                let mut fetched: Vec<u64> = r.only_left.clone();
                fetched.extend(&p1.only_left);
                out.p2_success = verify_p2(&block_ids, &c_set, &fps, &fetched);
            }
        }
    } else {
        out.p2_success = out.p2_success_no_pingpong;
    }
    out
}

/// The `ids` whose membership in `filter` equals `want`, in input order.
fn passing(filter: &BloomFilter, ids: &[TxId], want: bool) -> Vec<TxId> {
    let hits = filter.contains_batch(ids);
    ids.iter().enumerate().filter(|(j, _)| hits.get(*j) == want).map(|(_, id)| *id).collect()
}

/// Check that `candidates` minus the false positives `fps` equals the block
/// id set (by short id, as the protocol resolves them).
fn verify_set(block_ids: &[TxId], candidates: &[TxId], fps: &[u64]) -> bool {
    verify_p2(block_ids, candidates, fps, &[])
}

/// Protocol 2 variant: `fetched` short IDs (decoded on the block-only side)
/// arrive via the extra-fetch round and complete the set.
fn verify_p2(block_ids: &[TxId], candidates: &[TxId], fps: &[u64], fetched: &[u64]) -> bool {
    let fp_set: HashSet<u64> = fps.iter().copied().collect();
    let mut resolved: HashSet<u64> =
        candidates.iter().map(short_id_8).filter(|s| !fp_set.contains(s)).collect();
    resolved.extend(fetched.iter().copied());
    let expect: HashSet<u64> = block_ids.iter().map(short_id_8).collect();
    resolved == expect
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
        let fc =
            FastConfig { n: 200, extra_multiple: 1.0, fraction_held: 1.0, force_m_equals_n: false };
        let mut rng = StdRng::seed_from_u64(1);
        let mut failures = 0;
        for _ in 0..200 {
            if !simulate_relay(&fc, &cfg(), &mut rng).p1_success {
                failures += 1;
            }
        }
        assert!(failures <= 3, "{failures}/200 P1 failures");
    }

    #[test]
    fn p2_recovers_partial_blocks() {
        let fc =
            FastConfig { n: 200, extra_multiple: 1.0, fraction_held: 0.5, force_m_equals_n: false };
        let mut rng = StdRng::seed_from_u64(2);
        let mut p2_failures = 0;
        for _ in 0..200 {
            let o = simulate_relay(&fc, &cfg(), &mut rng);
            assert!(!o.p1_success, "P1 cannot succeed at 50% possession");
            if !o.p2_success {
                p2_failures += 1;
            }
        }
        assert!(p2_failures <= 3, "{p2_failures}/200 P2 failures");
    }

    #[test]
    fn bounds_hold_at_beta_rate() {
        let fc =
            FastConfig { n: 500, extra_multiple: 1.0, fraction_held: 0.6, force_m_equals_n: false };
        let mut rng = StdRng::seed_from_u64(3);
        let (mut xs_bad, mut ys_bad) = (0, 0);
        for _ in 0..300 {
            let o = simulate_relay(&fc, &cfg(), &mut rng);
            if !o.x_star_ok {
                xs_bad += 1;
            }
            if !o.y_star_ok {
                ys_bad += 1;
            }
        }
        // β = 239/240 ⇒ expect ≲ 2 violations in 300.
        assert!(xs_bad <= 4, "x* violated {xs_bad}/300");
        assert!(ys_bad <= 4, "y* violated {ys_bad}/300");
    }

    #[test]
    fn m_equals_n_special_path_runs() {
        let fc =
            FastConfig { n: 300, extra_multiple: 0.0, fraction_held: 0.4, force_m_equals_n: true };
        let mut rng = StdRng::seed_from_u64(4);
        let mut successes = 0;
        for _ in 0..100 {
            let o = simulate_relay(&fc, &cfg(), &mut rng);
            if o.p2_success_no_pingpong {
                successes += 1;
            }
        }
        assert!(successes >= 95, "{successes}/100 m≈n recoveries");
    }

    /// Cross-validate against the full (Transaction-level) implementation:
    /// at the same parameters both should have statistically similar
    /// Protocol 1 success behaviour.
    #[test]
    fn agrees_with_full_protocol() {
        use graphene::session::{relay_block, RelayOutcome};
        use graphene_blockchain::{Scenario, ScenarioParams};

        let trials = 60;
        let mut full_p1 = 0;
        let mut fast_p1 = 0;
        for seed in 0..trials {
            let params = ScenarioParams {
                block_size: 150,
                extra_mempool_multiple: 2.0,
                block_fraction_in_mempool: 1.0,
                ..Default::default()
            };
            let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(seed));
            let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            if r.outcome == RelayOutcome::DecodedP1 {
                full_p1 += 1;
            }
            let fc = FastConfig {
                n: 150,
                extra_multiple: 2.0,
                fraction_held: 1.0,
                force_m_equals_n: false,
            };
            if simulate_relay(&fc, &cfg(), &mut StdRng::seed_from_u64(seed)).p1_success {
                fast_p1 += 1;
            }
        }
        let diff = (full_p1 as i64 - fast_p1 as i64).unsigned_abs();
        assert!(diff <= 5, "full {full_p1} vs fast {fast_p1} P1 successes");
    }

    /// Protocol 2 cross-validation: with the receiver holding only half the
    /// block, both the full (Transaction-level) relay and the fast model
    /// must fall through Protocol 1 and recover via Protocol 2 at
    /// statistically similar rates.
    #[test]
    fn agrees_with_full_protocol_on_p2() {
        use graphene::session::{relay_block, RelayOutcome};
        use graphene_blockchain::{Scenario, ScenarioParams};

        let trials = 60;
        let mut full_p2 = 0;
        let mut fast_p2 = 0;
        for seed in 0..trials {
            let params = ScenarioParams {
                block_size: 150,
                extra_mempool_multiple: 2.0,
                block_fraction_in_mempool: 0.5,
                ..Default::default()
            };
            let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(seed));
            let r = relay_block(&s.block, None, &s.receiver_mempool, &cfg());
            assert_ne!(
                r.outcome,
                RelayOutcome::DecodedP1,
                "P1 cannot succeed at 50% possession (seed {seed})"
            );
            if matches!(r.outcome, RelayOutcome::DecodedP2 { .. }) {
                full_p2 += 1;
            }
            let fc = FastConfig {
                n: 150,
                extra_multiple: 2.0,
                fraction_held: 0.5,
                force_m_equals_n: false,
            };
            let o = simulate_relay(&fc, &cfg(), &mut StdRng::seed_from_u64(seed));
            assert!(!o.p1_success, "fast P1 cannot succeed at 50% possession (seed {seed})");
            if o.p2_success {
                fast_p2 += 1;
            }
        }
        // Protocol 2 targets a 1/240 failure rate; both sides should be
        // near-perfect here and certainly within a few trials of each other.
        assert!(full_p2 >= trials - 3, "full P2 only {full_p2}/{trials}");
        let diff = (full_p2 as i64 - fast_p2 as i64).unsigned_abs();
        assert!(diff <= 5, "full {full_p2} vs fast {fast_p2} P2 successes");
    }
}
