//! The statistical gate on the sketches' index derivations.
//!
//! `tests/equivalence.rs` holds the production paths to their oracles bit
//! for bit, which says nothing about whether the derivation both share is a
//! good one: a hash that spreads values badly over cells still matches its
//! own oracle. This suite measures what the paper promises instead. An IBLT
//! sized by `params_for(d, 240)` must fail to decode `d` values no more than
//! once in 240 (§3.1, Algorithm 1), and a Bloom filter sized for a
//! false-positive rate must deliver it (§3.3.1) — on the production
//! `Iblt::insert_batch` + `peel` and `BloomFilter::insert_batch` +
//! `contains_batch`, with fixed seeds, at trial counts that tell 1/240 from
//! 1/120.

use graphene::optimal_a;
use graphene_bloom::BloomFilter;
use graphene_experiments::stats::proportion_ci95;
use graphene_hashes::Digest;
use graphene_iblt::{Iblt, PeelScratch};
use graphene_iblt_params::params_for;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// The production IBLT over `trials` fresh tables of `params_for(d, 240)`
/// geometry holding `d` random values each: a sized IBLT fails no more
/// often than the table it was sized from says — the observed failure count
/// stays under the upper end of the Wilson interval of a true 1/240 rate.
fn assert_decode_failures_under_one_in_240(d: usize, trials: usize) {
    let mut rng = StdRng::seed_from_u64(0x1b17 + d as u64);
    let p = params_for(d, 240);
    let mut scratch = PeelScratch::new();
    let mut values = vec![0u64; d];
    let failed = |_: &usize| {
        values.iter_mut().for_each(|v| *v = rng.random());
        let mut table = Iblt::new(p.c, p.k, rng.random());
        table.insert_batch(&values);
        let decoded = table.peel_in_place(&mut scratch).expect("honest table");
        !(decoded.complete && decoded.only_left.len() == d)
    };
    let failures = (0..trials).filter(failed).count();
    let (_, _, hi) = proportion_ci95(trials / 240, trials);
    let bound = (hi * trials as f64) as usize;
    println!("iblt d={d}: {failures} failures in {trials} (bound {bound})");
    assert!(failures <= bound, "d={d}: {failures} of {trials} failed, bound {bound}");
}

/// 24 000 trials a point: 100 failures expected at exactly 1/240, 200 at
/// 1/120, and the bound sits at 121.
#[test]
fn small_iblts_fail_to_decode_under_once_in_240() {
    for d in [3, 10, 30] {
        assert_decode_failures_under_one_in_240(d, 24_000);
    }
}

/// A 400-value table is a hundred times the work of a 3-value one. At
/// 12 000 and 6 000 trials 1/120 (100 and 50 failures expected) still lies
/// outside the bounds (65 and 36).
#[test]
fn large_iblts_fail_to_decode_under_once_in_240() {
    assert_decode_failures_under_one_in_240(100, 12_000);
    assert_decode_failures_under_one_in_240(400, 6_000);
}

/// False positives of double hashing done with random numbers: `filters`
/// arrays of `bits` bits, `n` members and `probes` non-members each, every
/// one of them an `h1` and an odd `h2` straight from the generator, index
/// `i` at `(h1 + i·h2) mod bits`. It is what a filter whose hashes are as
/// good as random does — including the few percent by which double hashing
/// at a couple of thousand bits exceeds `k` independent probes.
fn ideal_false_positives(
    rng: &mut StdRng,
    (bits, k, n): (usize, u32, usize),
    filters: usize,
    probes: usize,
) -> usize {
    let mut walk = |visit: &mut dyn FnMut(usize) -> bool| {
        let (h1, h2) = (rng.random::<u64>(), rng.random::<u64>() | 1);
        (0..k as u64).all(|i| visit((h1.wrapping_add(i.wrapping_mul(h2)) % bits as u64) as usize))
    };
    let mut hits = 0;
    for _ in 0..filters {
        let mut array = vec![false; bits];
        for _ in 0..n {
            walk(&mut |bit| {
                array[bit] = true;
                true
            });
        }
        hits += (0..probes).filter(|_| walk(&mut |bit| array[bit])).count();
    }
    hits
}

/// A filter sized for the false-positive rate `optimal_a` picks at the
/// paper's operating points (a block of `n`, a mempool of `2n`) delivers
/// it: the Wilson interval of the observed rate overlaps that of double
/// hashing with truly random `h1`, `h2` — measured on four times the
/// probes, both being samples — and the target lies within a tenth of it.
#[test]
fn bloom_false_positive_rate_is_the_one_it_was_sized_for() {
    for (n, filters, probes) in [(200usize, 1_000usize, 2_000usize), (2_000, 200, 20_000)] {
        let fpr = optimal_a(n, 2 * n, 239.0 / 240.0, 240).fpr;
        let mut rng = StdRng::seed_from_u64(0xb100 + n as u64);
        let mut random_ids =
            |count: usize| -> Vec<Digest> { (0..count).map(|_| Digest(rng.random())).collect() };
        let mut hits = 0;
        for salt in 0..filters as u64 {
            let mut filter = BloomFilter::new(n, fpr, salt);
            filter.insert_batch(&random_ids(n));
            hits += filter.contains_batch(&random_ids(probes)).count_ones();
        }
        let (observed, lo, hi) = proportion_ci95(hits, filters * probes);
        let shape = BloomFilter::new(n, fpr, 0);
        let geometry = (shape.bit_len(), shape.hash_count(), n);
        let ideal_hits = ideal_false_positives(&mut rng, geometry, filters, 4 * probes);
        let (ideal, ideal_lo, ideal_hi) = proportion_ci95(ideal_hits, filters * 4 * probes);
        println!(
            "bloom n={n}: target {fpr:.5}, ideal {ideal:.5} [{ideal_lo:.5}, {ideal_hi:.5}], \
             observed {observed:.5} [{lo:.5}, {hi:.5}] ({hits} of {})",
            filters * probes
        );
        assert!(
            lo <= ideal_hi && ideal_lo <= hi,
            "n={n}: observed [{lo:.5}, {hi:.5}] apart from ideal [{ideal_lo:.5}, {ideal_hi:.5}]"
        );
        assert!((observed / fpr - 1.0).abs() < 0.1, "n={n}: observed {observed:.5}, target {fpr}");
    }
}
