//! Ping-pong decoding across two IBLTs (paper §4.2).
//!
//! When two IBLTs of different geometry are built over (roughly) the same
//! set — in Graphene, `I ⊖ I′` from Protocol 1 and `J ⊖ J′` from Protocol 2 —
//! values decoded from one can be cancelled out of the other, potentially
//! unblocking its 2-core, and vice versa. Iterating this "ping-pong" until
//! neither side makes progress squares the failure rate (Fig. 11) at
//! negligible computational cost.
//!
//! The IBLTs must use *different salts* so their hypergraphs are independent
//! (the paper: "the IBLTs should use different seeds in their hash functions
//! for independence").

use crate::table::{DecodeError, DecodeResult, Iblt, PeelScratch};

/// Jointly decode two IBLT differences covering the same symmetric
/// difference.
///
/// Returns the union of recovered values (deduplicated) with `complete` set
/// if *either* IBLT fully drained — at that point the whole difference is
/// known.
pub fn ping_pong_decode(a: &mut Iblt, b: &mut Iblt) -> Result<DecodeResult, DecodeError> {
    let mut merged = DecodeResult::default();
    let mut seen_left: Vec<u64> = Vec::new();
    let mut seen_right: Vec<u64> = Vec::new();
    // One scratch across every peel of the ping-pong loop.
    let mut scratch = PeelScratch::new();

    loop {
        let ra = a.peel_in_place(&mut scratch)?;
        transfer(&ra, b, &mut seen_left, &mut seen_right);
        let rb = b.peel_in_place(&mut scratch)?;
        transfer(&rb, a, &mut seen_left, &mut seen_right);

        let progressed = !ra.is_empty() || !rb.is_empty();
        if a.is_drained() || b.is_drained() || !progressed {
            merged.only_left = seen_left;
            merged.only_right = seen_right;
            merged.complete = a.is_drained() || b.is_drained();
            merged.only_left.sort_unstable();
            merged.only_left.dedup();
            merged.only_right.sort_unstable();
            merged.only_right.dedup();
            return Ok(merged);
        }
    }
}

/// Cancel freshly decoded values out of the sibling IBLT, tracking the union.
fn transfer(from: &DecodeResult, into: &mut Iblt, left: &mut Vec<u64>, right: &mut Vec<u64>) {
    for &v in &from.only_left {
        if !left.contains(&v) {
            left.push(v);
            into.cancel(v, 1);
        }
    }
    for &v in &from.only_right {
        if !right.contains(&v) {
            right.push(v);
            into.cancel(v, -1);
        }
    }
}

/// Jointly decode *any number* of IBLT differences covering the same
/// symmetric difference — the paper's §4.2 extension: "a receiver could ask
/// many neighbors for the same block and the IBLTs can be jointly decoded."
///
/// Each table must have an independent salt. Every value decoded anywhere
/// is cancelled out of all other tables, re-enabling their peels, until no
/// table makes progress. `complete` is set once any table drains.
pub fn joint_decode(tables: &mut [Iblt]) -> Result<DecodeResult, DecodeError> {
    let mut seen_left: Vec<u64> = Vec::new();
    let mut seen_right: Vec<u64> = Vec::new();
    let mut scratch = PeelScratch::new();
    loop {
        let mut progressed = false;
        for i in 0..tables.len() {
            let r = tables[i].peel_in_place(&mut scratch)?;
            if r.is_empty() {
                continue;
            }
            progressed = true;
            for &v in &r.only_left {
                if !seen_left.contains(&v) {
                    seen_left.push(v);
                    for (j, other) in tables.iter_mut().enumerate() {
                        if j != i {
                            other.cancel(v, 1);
                        }
                    }
                }
            }
            for &v in &r.only_right {
                if !seen_right.contains(&v) {
                    seen_right.push(v);
                    for (j, other) in tables.iter_mut().enumerate() {
                        if j != i {
                            other.cancel(v, -1);
                        }
                    }
                }
            }
        }
        let complete = tables.iter().any(Iblt::is_drained);
        if complete || !progressed {
            seen_left.sort_unstable();
            seen_left.dedup();
            seen_right.sort_unstable();
            seen_right.dedup();
            return Ok(DecodeResult { only_left: seen_left, only_right: seen_right, complete });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_pair(values: &[u64], ca: usize, cb: usize, ka: u32, kb: u32) -> (Iblt, Iblt) {
        let mut a = Iblt::new(ca, ka, 0xaaaa);
        let mut b = Iblt::new(cb, kb, 0xbbbb);
        for &v in values {
            a.insert(v);
            b.insert(v);
        }
        (a, b)
    }

    #[test]
    fn both_decodable_agree() {
        let values: Vec<u64> = (0..10).collect();
        let (mut a, mut b) = build_pair(&values, 40, 30, 4, 3);
        let r = ping_pong_decode(&mut a, &mut b).unwrap();
        assert!(r.complete);
        assert_eq!(r.only_left, values);
    }

    #[test]
    fn sibling_rescues_undersized_iblt() {
        // `a` is far too small to decode 60 items alone; a sibling of
        // adequate size rescues the joint decode.
        let values: Vec<u64> = (100..160).collect();
        let (mut a, mut b) = build_pair(&values, 12, 120, 3, 4);
        assert!(!a.clone().peel().unwrap().complete, "a should fail alone");
        let r = ping_pong_decode(&mut a, &mut b).unwrap();
        assert!(r.complete);
        assert_eq!(r.only_left, values);
    }

    #[test]
    fn mutual_rescue_beats_either_alone() {
        // Find a case where each IBLT fails alone but ping-pong succeeds.
        // Sized right at the failure edge (τ ≈ 1.0) this happens regularly.
        let mut rescued = 0;
        let mut trials = 0;
        for seed in 0..300u64 {
            let values: Vec<u64> = (0..24).map(|i| seed * 10_000 + i).collect();
            let mut a = Iblt::new(26, 3, seed.wrapping_mul(2) + 1);
            let mut b = Iblt::new(26, 4, seed.wrapping_mul(3) + 2);
            for &v in &values {
                a.insert(v);
                b.insert(v);
            }
            let fa = !a.clone().peel().unwrap().complete;
            let fb = !b.clone().peel().unwrap().complete;
            if fa && fb {
                trials += 1;
                let r = ping_pong_decode(&mut a, &mut b).unwrap();
                if r.complete {
                    rescued += 1;
                }
            }
        }
        // At least one joint rescue should occur across 300 trials; if the
        // edge cases never appear the test setup is wrong.
        assert!(trials > 0, "no both-fail trials generated");
        assert!(rescued > 0, "ping-pong never rescued ({trials} both-fail trials)");
    }

    #[test]
    fn failure_rate_squared_empirically() {
        // Single-IBLT failure rate at this geometry is noticeable; joint
        // failure should be dramatically rarer (Fig. 11).
        let mut single_failures = 0;
        let mut joint_failures = 0;
        let trials = 400u64;
        for seed in 0..trials {
            let values: Vec<u64> = (0..20).map(|i| seed * 7919 + i).collect();
            let mut a = Iblt::new(24, 3, seed * 2 + 1);
            let mut b = Iblt::new(24, 3, seed * 2 + 2);
            for &v in &values {
                a.insert(v);
                b.insert(v);
            }
            if !a.clone().peel().unwrap().complete {
                single_failures += 1;
            }
            if !ping_pong_decode(&mut a, &mut b).unwrap().complete {
                joint_failures += 1;
            }
        }
        assert!(
            joint_failures * 4 <= single_failures.max(1),
            "joint {joint_failures} vs single {single_failures}"
        );
    }

    #[test]
    fn joint_decode_matches_pairwise_for_two() {
        let values: Vec<u64> = (0..30).collect();
        let (a1, b1) = build_pair(&values, 50, 40, 4, 3);
        let (mut a2, mut b2) = (a1.clone(), b1.clone());
        let pair = ping_pong_decode(&mut a2, &mut b2).unwrap();
        let mut tables = [a1, b1];
        let joint = crate::pingpong::joint_decode(&mut tables).unwrap();
        assert_eq!(pair.complete, joint.complete);
        assert_eq!(pair.only_left, joint.only_left);
    }

    #[test]
    fn many_neighbors_rescue_threshold_tables() {
        // §4.2 multi-neighbor scenario: tables sized *below* the peeling
        // threshold (τ ≈ 1.05 for 40 items at k = 3) almost always fail
        // alone; five of them jointly decode far more often, because every
        // value peeled anywhere unlocks cells everywhere. (Grossly
        // overloaded tables cannot be rescued — peeling needs at least one
        // pure cell somewhere to bootstrap.)
        let mut alone_failures = 0usize;
        let mut joint_failures = 0usize;
        let trials = 60u64;
        for seed in 0..trials {
            let values: Vec<u64> = (0..40).map(|i| seed * 10_000 + i).collect();
            let mut tables: Vec<Iblt> = (0..5u64)
                .map(|i| {
                    let mut t = Iblt::new(42, 3, seed * 7 + i);
                    for &v in &values {
                        t.insert(v);
                    }
                    t
                })
                .collect();
            if !tables[0].clone().peel().unwrap().complete {
                alone_failures += 1;
            }
            if !crate::pingpong::joint_decode(&mut tables).unwrap().complete {
                joint_failures += 1;
            }
        }
        assert!(
            alone_failures > trials as usize / 2,
            "τ=1.05 should usually fail alone: {alone_failures}/{trials}"
        );
        assert!(
            joint_failures * 3 < alone_failures,
            "joint {joint_failures} vs alone {alone_failures}"
        );
    }

    #[test]
    fn joint_decode_rate_improves_with_neighbor_count() {
        // Failure rate should fall (roughly geometrically) as neighbors are
        // added at fixed per-table geometry.
        let trials = 150u64;
        let mut failures = [0usize; 3]; // 1, 2, 4 tables
        for seed in 0..trials {
            let values: Vec<u64> = (0..24).map(|i| seed * 1000 + i).collect();
            let build = |salt: u64| {
                let mut t = Iblt::new(27, 3, salt);
                for &v in &values {
                    t.insert(v);
                }
                t
            };
            for (slot, count) in [(0usize, 1usize), (1, 2), (2, 4)] {
                let mut tables: Vec<Iblt> =
                    (0..count as u64).map(|i| build(seed * 31 + i)).collect();
                if !crate::pingpong::joint_decode(&mut tables).unwrap().complete {
                    failures[slot] += 1;
                }
            }
        }
        assert!(
            failures[2] <= failures[1] && failures[1] <= failures[0],
            "failures must be monotone in neighbor count: {failures:?}"
        );
    }

    #[test]
    fn subtraction_pair_pingpong() {
        // The Graphene use: differences (not raw sets) ping-pong decoded.
        let shared: Vec<u64> = (0..50).collect();
        let only_a = [1000u64, 1001];
        let mut a1 = Iblt::new(8, 3, 1);
        let mut a2 = Iblt::new(8, 3, 1);
        let mut b1 = Iblt::new(12, 4, 2);
        let mut b2 = Iblt::new(12, 4, 2);
        for &v in shared.iter().chain(&only_a) {
            a1.insert(v);
            b1.insert(v);
        }
        for &v in &shared {
            a2.insert(v);
            b2.insert(v);
        }
        let mut da = a1.subtract(&a2).unwrap();
        let mut db = b1.subtract(&b2).unwrap();
        let r = ping_pong_decode(&mut da, &mut db).unwrap();
        assert!(r.complete);
        assert_eq!(r.only_left, only_a.to_vec());
    }
}
