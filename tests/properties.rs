//! Cross-crate property-based tests on the suite's core invariants.

use graphene_bloom::{BloomFilter, Membership};
use graphene_hashes::{merkle_root, sha256, Digest, MerkleTree};
use graphene_iblt::Iblt;
use graphene_wire::messages::{GetDataMsg, InvMsg, Message};
use graphene_wire::{Decode, Encode};
use proptest::prelude::*;
use std::collections::HashSet;

fn digests(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

proptest! {
    /// Bloom filters never produce false negatives, for any size/FPR combo.
    #[test]
    fn bloom_no_false_negatives(n in 1usize..400, fpr in 0.001f64..0.9, salt: u64) {
        let ids = digests(n, salt);
        let mut f = BloomFilter::new(n, fpr, salt);
        for id in &ids {
            f.insert(id);
        }
        prop_assert!(ids.iter().all(|id| f.contains(id)));
    }

    /// IBLT subtraction recovers exactly the symmetric difference whenever
    /// the table is large enough — and never recovers a phantom value.
    #[test]
    fn iblt_difference_exact(
        shared in 0usize..150,
        only_a in 0usize..20,
        only_b in 0usize..20,
        salt: u64,
    ) {
        let diff = only_a + only_b;
        let cells = (diff * 3).max(12); // generous τ = 3
        let mut a = Iblt::new(cells, 3, salt);
        let mut b = Iblt::new(cells, 3, salt);
        let base = salt as u64 | 1;
        for i in 0..shared as u64 {
            a.insert(base.wrapping_add(i));
            b.insert(base.wrapping_add(i));
        }
        let a_vals: Vec<u64> = (0..only_a as u64).map(|i| base.wrapping_mul(31).wrapping_add(i)).collect();
        let b_vals: Vec<u64> = (0..only_b as u64).map(|i| base.wrapping_mul(37).wrapping_add(i)).collect();
        // Guard against accidental overlap in the synthetic values.
        let a_set: HashSet<u64> = a_vals.iter().copied().collect();
        prop_assume!(b_vals.iter().all(|v| !a_set.contains(v)));
        prop_assume!(a_vals.iter().all(|v| (*v).wrapping_sub(base) >= shared as u64));
        prop_assume!(b_vals.iter().all(|v| (*v).wrapping_sub(base) >= shared as u64));
        for v in &a_vals { a.insert(*v); }
        for v in &b_vals { b.insert(*v); }
        let mut d = a.subtract(&b).unwrap();
        let r = d.peel().unwrap();
        if r.complete {
            let left: HashSet<u64> = r.only_left.iter().copied().collect();
            let right: HashSet<u64> = r.only_right.iter().copied().collect();
            prop_assert_eq!(left, a_vals.into_iter().collect::<HashSet<u64>>());
            prop_assert_eq!(right, b_vals.into_iter().collect::<HashSet<u64>>());
        } else {
            // Partial results must still be subsets of the true difference.
            prop_assert!(r.only_left.iter().all(|v| a_vals.contains(v)));
            prop_assert!(r.only_right.iter().all(|v| b_vals.contains(v)));
        }
    }

    /// Merkle proofs verify for every leaf and fail for any other leaf.
    #[test]
    fn merkle_proofs_sound(n in 1usize..60, probe in 0usize..60, salt: u64) {
        let leaves = digests(n, salt);
        let tree = MerkleTree::new(&leaves);
        prop_assert_eq!(tree.root(), merkle_root(&leaves));
        let idx = probe % n;
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&leaves[idx], &tree.root()));
        if n > 1 {
            let other = (idx + 1) % n;
            prop_assert!(!proof.verify(&leaves[other], &tree.root()));
        }
    }

    /// Wire frames round-trip for arbitrary digests and counts.
    #[test]
    fn wire_roundtrip_inv_getdata(id_bytes: [u8; 32], count: u64) {
        let inv = Message::Inv(InvMsg { block_id: Digest(id_bytes) });
        let bytes = inv.to_vec();
        prop_assert_eq!(bytes.len(), inv.wire_size());
        prop_assert!(Message::decode_exact(&bytes).is_ok());

        let gd = Message::GetData(GetDataMsg { block_id: Digest(id_bytes), mempool_count: count });
        let bytes = gd.to_vec();
        prop_assert_eq!(bytes.len(), gd.wire_size());
        match Message::decode_exact(&bytes).unwrap() {
            Message::GetData(m) => prop_assert_eq!(m.mempool_count, count),
            _ => prop_assert!(false, "wrong variant"),
        }
    }

    /// `encode_into` (the reusable-buffer wire path) produces exactly
    /// `encode` + fresh Vec, whatever was in the buffer before.
    #[test]
    fn encode_into_matches_encode(n in 0usize..50, salt: u64, junk in 0usize..64) {
        let mut f = BloomFilter::new(n.max(1), 0.02, salt);
        for id in digests(n, salt) {
            f.insert(&id);
        }
        let mut buf = vec![0xee; junk]; // stale garbage must be cleared
        f.encode_into(&mut buf);
        prop_assert_eq!(buf, f.to_vec());
    }

    /// The Theorem 1 padding is monotone and always exceeds its input.
    #[test]
    fn a_star_monotone(a in 1usize..5000) {
        let beta = 239.0 / 240.0;
        let cur = graphene::params::a_star(a as f64, beta);
        let next = graphene::params::a_star((a + 1) as f64, beta);
        prop_assert!(cur > a);
        prop_assert!(next >= cur);
    }
}
