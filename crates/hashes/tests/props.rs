//! Property-based tests for the hash substrate.

use graphene_hashes::merkle::next_level;
use graphene_hashes::sha256::sha256d_64;
use graphene_hashes::{
    merkle_root, sha256, sha256d, siphash24, Digest, MerkleTree, Sha256, SipHasher24, SipKey,
    SHA_LANES,
};
use proptest::prelude::*;

/// Longest batch the pair-kernel property feeds a level: two full chunks
/// and a ragged tail of one.
const MAX_BATCH: usize = 2 * SHA_LANES + 1;

proptest! {
    /// Streaming SHA-256 equals one-shot for any chunking.
    #[test]
    fn sha256_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        splits in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let expect = sha256(&data);
        let mut h = Sha256::new();
        let mut rest = &data[..];
        for s in splits {
            if rest.is_empty() { break; }
            let cut = (s as usize) % rest.len().max(1);
            let (head, tail) = rest.split_at(cut);
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), expect);
    }

    /// Streaming SipHash equals one-shot for any chunking.
    #[test]
    fn siphash_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        cut in any::<u16>(),
        k0: u64, k1: u64,
    ) {
        let key = SipKey::new(k0, k1);
        let expect = siphash24(key, &data);
        let cut = (cut as usize) % data.len().max(1);
        let mut h = SipHasher24::new(key);
        h.update(&data[..cut.min(data.len())]);
        h.update(&data[cut.min(data.len())..]);
        prop_assert_eq!(h.finalize(), expect);
    }

    /// Lane `l` of the pair kernel is scalar `sha256d(left ‖ right)`, and a
    /// level of any batch length — full chunks, ragged tails whose spare
    /// lanes are padding, the few pairs hashed one at a time — comes out as
    /// the scalar hash of each of its pairs, in order.
    #[test]
    fn pair_kernel_lanes_match_scalar(
        nodes in proptest::collection::vec(any::<[u8; 32]>(), MAX_BATCH * 2..MAX_BATCH * 2 + 1),
    ) {
        let nodes: Vec<Digest> = nodes.into_iter().map(Digest).collect();
        let scalar: Vec<Digest> =
            nodes.chunks(2).map(|p| sha256d(&[p[0].0, p[1].0].concat())).collect();

        let wide: [Digest; SHA_LANES] =
            sha256d_64(core::array::from_fn(|l| (&nodes[2 * l], &nodes[2 * l + 1])));
        prop_assert_eq!(&wide[..], &scalar[..SHA_LANES]);

        for pairs in 1..=MAX_BATCH {
            let mut level = nodes[..2 * pairs].to_vec();
            next_level(&mut level);
            prop_assert_eq!(&level[..], &scalar[..pairs], "batch of {} pairs", pairs);
        }
    }

    /// Every Merkle proof verifies; any tamper breaks it.
    #[test]
    fn merkle_soundness(seeds in proptest::collection::vec(any::<u64>(), 1..40), probe: u8) {
        let leaves: Vec<Digest> = seeds.iter().map(|s| sha256(&s.to_le_bytes())).collect();
        let tree = MerkleTree::new(&leaves);
        prop_assert_eq!(tree.root(), merkle_root(&leaves));
        let idx = (probe as usize) % leaves.len();
        let proof = tree.prove(idx).unwrap();
        prop_assert!(proof.verify(&leaves[idx], &tree.root()));
        let mut tampered = leaves[idx];
        tampered.0[0] ^= 1;
        prop_assert!(!proof.verify(&tampered, &tree.root()));
    }

    /// Digest hex round-trips.
    #[test]
    fn digest_hex_roundtrip(bytes: [u8; 32]) {
        let d = Digest(bytes);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }
}
