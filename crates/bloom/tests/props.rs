//! Property-based tests for the membership structures.

use graphene_bloom::{bitvec::BitVec, BloomFilter, GcsBuilder, Membership};
use graphene_hashes::sha256;
use proptest::prelude::*;

fn digest(seed: u64) -> graphene_hashes::Digest {
    sha256(&seed.to_le_bytes())
}

proptest! {
    /// No Bloom false negatives, any geometry.
    #[test]
    fn bloom_no_false_negatives(
        seeds in proptest::collection::hash_set(any::<u64>(), 1..200),
        fpr in 0.0005f64..0.9,
        salt: u64,
    ) {
        let mut f = BloomFilter::new(seeds.len(), fpr, salt);
        let ids: Vec<_> = seeds.iter().map(|s| digest(*s)).collect();
        for id in &ids {
            f.insert(id);
        }
        prop_assert!(ids.iter().all(|id| f.contains(id)));
    }

    /// GCS: every member matches after build.
    #[test]
    fn gcs_members_match(
        seeds in proptest::collection::hash_set(any::<u64>(), 1..150),
        fpr in 0.001f64..0.3,
        salt: u64,
    ) {
        let mut b = GcsBuilder::new(seeds.len(), fpr, salt);
        let ids: Vec<_> = seeds.iter().map(|s| digest(*s)).collect();
        for id in &ids {
            b.insert(id);
        }
        let g = b.build();
        prop_assert!(ids.iter().all(|id| g.contains(id)));
    }

    /// BitVec round-trips through bytes at any length.
    #[test]
    fn bitvec_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let mut v = BitVec::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i);
            }
        }
        let bytes = v.to_bytes();
        let back = BitVec::from_bytes(&bytes, bits.len()).expect("roundtrip");
        prop_assert_eq!(back, v);
    }

    /// The degenerate (match-all) filter accepts everything.
    #[test]
    fn match_all_accepts_all(seed: u64) {
        let f = BloomFilter::new(10, 1.0, 0);
        prop_assert!(f.contains(&digest(seed)));
    }
}
