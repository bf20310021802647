//! Optimized-vs-reference equivalence: the zero-allocation hot paths must
//! be *bit-identical* to the pre-optimization implementations they replaced
//! (kept in `graphene_bench::reference`), and a set of committed golden
//! vectors pins the exact bytes so a behavior change cannot hide behind a
//! matching pair of bugs.
//!
//! The same layer proves the encode-once relay cache is *transparent*:
//! a frame served from the cache is byte-identical to a fresh canonical
//! encode for any block, mempool-size bucket, eviction pressure, or
//! crash/restore interleaving.

use graphene::encode_cache::{EncodeCache, MBucket};
use graphene::protocol1::{self, RetryTweak};
use graphene::GrapheneConfig;
use graphene_bench::reference::{ref_merkle_root, ref_peel, ref_subtract_peel, RefBloom, RefGcs};
use graphene_blockchain::{Block, OrderingScheme, Transaction};
use graphene_bloom::{BloomFilter, GcsBuilder, HashStrategy, Membership};
use graphene_hashes::{hex, merkle_root, sha256, Digest};
use graphene_iblt::{Iblt, PeelScratch};
use graphene_wire::Encode;
use proptest::prelude::*;

fn digests(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

fn test_block(n: usize, tag: u64) -> Block {
    let txns: Vec<Transaction> = (0..n as u64)
        .map(|i| Transaction::new([tag.to_le_bytes(), i.to_le_bytes()].concat()))
        .collect();
    Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor)
}

proptest! {
    /// Optimized Bloom insert/contains sets exactly the bits the old
    /// Vec-collecting path set, for both hash strategies, and answers
    /// membership identically for members and non-members.
    #[test]
    fn bloom_matches_reference(
        n in 1usize..300,
        fpr in 0.001f64..0.5,
        salt: u64,
        kpiece: bool,
    ) {
        let strategy = if kpiece { HashStrategy::KPiece } else { HashStrategy::DoubleHashing };
        let set = digests(n, salt);
        let probes = digests(200, salt ^ 0xabcd);
        let mut f = BloomFilter::with_strategy(n, fpr, salt, strategy);
        let mut r = RefBloom::with_strategy(n, fpr, salt, strategy);
        prop_assert_eq!(f.hash_count(), r.hash_count());
        for id in &set {
            f.insert(id);
            r.insert(id);
        }
        prop_assert_eq!(f.bit_vec().to_bytes(), r.bit_bytes());
        for id in set.iter().chain(&probes) {
            prop_assert_eq!(f.contains(id), r.contains(id));
        }
    }

    /// The three subtraction paths agree, and the scratch-reusing peel
    /// recovers exactly what the old allocating peel recovered — same
    /// values, same order, same completeness — with identical serialized
    /// bytes for the peeled remainder.
    #[test]
    fn iblt_matches_reference(
        only_a in 0usize..25,
        only_b in 0usize..25,
        shared in 0usize..100,
        salt: u64,
    ) {
        let cells = ((only_a + only_b) * 3).max(12);
        let mut a = Iblt::new(cells, 3, salt);
        let mut b = Iblt::new(cells, 3, salt);
        let base = 1_000_000u64;
        for i in 0..shared as u64 {
            a.insert(base + i);
            b.insert(base + i);
        }
        for i in 0..only_a as u64 {
            a.insert(2 * base + i);
        }
        for i in 0..only_b as u64 {
            b.insert(3 * base + i);
        }

        // subtract == subtract_into == subtract_from, cell for cell.
        let diff = a.subtract(&b).unwrap();
        let mut into = Iblt::new(1, 1, 0);
        a.subtract_into(&b, &mut into).unwrap();
        prop_assert_eq!(&into, &diff);
        let mut from = b.clone();
        from.subtract_from(&a).unwrap();
        prop_assert_eq!(&from, &diff);

        // Allocating reference peel == scratch-reusing peel, element order
        // included; the partially-peeled remainders serialize identically.
        let reference = ref_peel(&diff);
        let combined = ref_subtract_peel(&a, &b);
        prop_assert_eq!(&reference, &combined);
        let mut scratch = PeelScratch::new();
        let mut peeled = diff.clone();
        let optimized = peeled.peel_in_place(&mut scratch);
        prop_assert_eq!(&reference, &optimized);
        let mut legacy = diff.clone();
        let plain = legacy.peel();
        prop_assert_eq!(&plain, &optimized);
        prop_assert_eq!(legacy.to_bytes(), peeled.to_bytes());
    }

    /// The cached-decode GCS answers every query exactly as the
    /// re-decode-per-query reference, over identical wire bytes.
    #[test]
    fn gcs_matches_reference(n in 1usize..300, fpr in 0.001f64..0.3, salt: u64) {
        let set = digests(n, salt);
        let probes = digests(200, salt ^ 0x6c5);
        let mut b = GcsBuilder::new(n, fpr, salt);
        for id in &set {
            b.insert(id);
        }
        let g = b.build();
        let r = RefGcs::build(&set, n, fpr, salt);
        prop_assert_eq!(g.data(), r.data());
        prop_assert_eq!(g.len(), r.len());
        for id in set.iter().chain(&probes) {
            prop_assert_eq!(g.contains(id), r.contains(id));
        }
    }

    /// The level-per-pass Merkle root equals the pairwise scalar fold at
    /// block sizes past the exhaustive range below.
    #[test]
    fn merkle_root_matches_reference(n in 131usize..5001, salt: u64) {
        let ids = digests(n, salt);
        prop_assert_eq!(merkle_root(&ids), ref_merkle_root(&ids));
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

    /// A relay-cache frame — whether it was just encoded (miss) or served
    /// back (hit) — is byte-identical to the cache-free canonical encode
    /// for any block and any mempool count, and every count in the same
    /// power-of-two bucket shares the one frame.
    #[test]
    fn cached_frame_matches_fresh_encode(
        n in 1usize..100,
        tag: u64,
        m_counts in proptest::collection::vec(1u64..5000, 1..8),
    ) {
        let cfg = GrapheneConfig::default();
        let tweak = RetryTweak::initial(&cfg);
        let block = test_block(n, tag);
        let cache = EncodeCache::new(1 << 20);
        for &m in &m_counts {
            let first =
                protocol1::sender_encode_cached(&block, m, None, &cfg, &tweak, Some(&cache));
            let again =
                protocol1::sender_encode_cached(&block, m, None, &cfg, &tweak, Some(&cache));
            let fresh = protocol1::sender_encode_cached(&block, m, None, &cfg, &tweak, None);
            prop_assert!(again.from_cache, "second lookup of m={} must hit", m);
            prop_assert_eq!(&first.frame, &fresh.frame);
            prop_assert_eq!(&again.frame, &fresh.frame);
            // The bucket's canonical count resolves to the same frame.
            let canon = MBucket::for_count(m).canonical_m();
            let sibling =
                protocol1::sender_encode_cached(&block, canon, None, &cfg, &tweak, Some(&cache));
            prop_assert!(sibling.from_cache);
            prop_assert_eq!(&sibling.frame, &fresh.frame);
        }
    }

    /// Equivalence survives eviction pressure: with a cache far too small
    /// for the working set, every served frame — hit, miss, or re-encode
    /// of an evicted entry — still equals the fresh oracle, and occupancy
    /// never exceeds the budget.
    #[test]
    fn eviction_pressure_preserves_equivalence(
        tags in proptest::collection::vec(any::<u64>(), 2..10),
        m in 1u64..3000,
        cap_kb in 1u64..4,
    ) {
        let cfg = GrapheneConfig::default();
        let tweak = RetryTweak::initial(&cfg);
        let cache = EncodeCache::new(cap_kb * 1024);
        let check = |tag: u64| -> Result<(), TestCaseError> {
            // Block size derived from the tag: 1..=59 transactions.
            let block = test_block((tag % 59 + 1) as usize, tag);
            let served =
                protocol1::sender_encode_cached(&block, m, None, &cfg, &tweak, Some(&cache));
            let fresh = protocol1::sender_encode_cached(&block, m, None, &cfg, &tweak, None);
            prop_assert_eq!(&served.frame, &fresh.frame);
            prop_assert!(
                cache.used_bytes() <= cache.capacity_bytes(),
                "occupancy {} over budget {}",
                cache.used_bytes(),
                cache.capacity_bytes()
            );
            Ok(())
        };
        for &tag in &tags {
            check(tag)?;
        }
        // Revisit in reverse: recently-used entries hit, evicted ones
        // re-encode — either way the bytes must not change.
        for &tag in tags.iter().rev() {
            check(tag)?;
        }
    }
}

/// Every small tree, and n = 2^k ± 1 so that an odd level — Bitcoin's
/// duplicate-last rule — occurs at every height and in every position of
/// a lane chunk.
#[test]
fn merkle_root_matches_reference_at_every_small_size() {
    let ids = digests(4097, 0x6d65_726b);
    let around_powers = (3..=12).flat_map(|k| [(1usize << k) - 1, (1 << k) + 1]);
    for n in (0..=130).chain(around_powers) {
        assert_eq!(merkle_root(&ids[..n]), ref_merkle_root(&ids[..n]), "n = {n}");
    }
}

/// Crash/restore: the relay cache is volatile process memory. The durable
/// `NodeSnapshot` must not carry it across a crash — the restored node
/// starts with an *empty* (but re-enabled) cache, and re-encoding after
/// the crash reproduces the pre-crash frame byte for byte.
#[test]
fn crash_restore_drops_the_cache_but_not_equivalence() {
    use graphene_blockchain::Mempool;
    use graphene_netsim::peer::Peer;
    use graphene_netsim::{PeerId, RelayProtocol};
    use graphene_wire::messages::{GetDataMsg, Message};

    let mut p =
        Peer::new(PeerId(0), RelayProtocol::Graphene(GrapheneConfig::default()), Mempool::new());
    p.enable_encode_cache();
    let block = test_block(40, 0xc4a5);
    let id = block.id();
    p.originate(block, &[]);

    let getdata = || Message::GetData(GetDataMsg { block_id: id, mempool_count: 80 });
    let before = p.handle(PeerId(1), getdata(), &[]).send_frames[0].1.clone();
    assert!(!p.encode_cache().expect("cache enabled").is_empty());

    let snap = p.snapshot();
    p.restore(snap);
    let cache = p.encode_cache().expect("cache must be re-enabled after restore");
    assert!(cache.is_empty(), "NodeSnapshot leaked cache entries across the crash");
    assert_eq!(cache.used_bytes(), 0);

    let after = p.handle(PeerId(1), getdata(), &[]).send_frames[0].1.clone();
    assert_eq!(before, after, "post-crash re-encode diverged from the pre-crash frame");
    let stats = p.cache_stats().expect("cache enabled");
    assert_eq!((stats.hits, stats.misses), (0, 1), "restore preserved a cache entry");
}

// ---------------------------------------------------------------------------
// Golden vectors: the exact bytes of the optimized structures, committed.
// If one of these fails, the "optimization" changed observable behavior.
// ---------------------------------------------------------------------------

#[test]
fn golden_bloom_double_hashing() {
    let mut f = BloomFilter::with_strategy(8, 0.1, 42, HashStrategy::DoubleHashing);
    for id in digests(8, 7) {
        f.insert(&id);
    }
    assert_eq!(hex::encode(&f.to_vec()), GOLDEN_BLOOM_DOUBLE);
}

#[test]
fn golden_bloom_kpiece() {
    let mut f = BloomFilter::with_strategy(8, 0.1, 42, HashStrategy::KPiece);
    for id in digests(8, 7) {
        f.insert(&id);
    }
    assert_eq!(hex::encode(&f.to_vec()), GOLDEN_BLOOM_KPIECE);
}

#[test]
fn golden_iblt_after_peel() {
    let mut a = Iblt::new(12, 3, 7);
    let mut b = Iblt::new(12, 3, 7);
    for v in [1u64, 2, 3, 4] {
        a.insert(v);
    }
    for v in [3u64, 4, 5] {
        b.insert(v);
    }
    let mut d = a.subtract(&b).unwrap();
    assert_eq!(hex::encode(&d.to_bytes()), GOLDEN_IBLT_DIFF);
    let r = d.peel_in_place(&mut PeelScratch::new()).unwrap();
    assert!(r.complete);
    let mut left = r.only_left.clone();
    left.sort_unstable();
    assert_eq!(left, vec![1, 2]);
    assert_eq!(r.only_right, vec![5]);
    assert!(d.is_drained());
}

#[test]
fn golden_gcs() {
    let mut b = GcsBuilder::new(8, 0.05, 3);
    for id in digests(8, 9) {
        b.insert(&id);
    }
    let g = b.build();
    assert_eq!(hex::encode(g.data()), GOLDEN_GCS);
}

const GOLDEN_BLOOM_DOUBLE: &str = "0027000000032a0000000000000008da34ba19";
const GOLDEN_BLOOM_KPIECE: &str = "0227000000032a0000000000000028f7c1b32f";
const GOLDEN_IBLT_DIFF: &str = "0c00000003070000000000000000000000040000000000000082adf228\
     0000000000000000000000000000000000000000000000000000000000000000010000000200000000000000\
     eedf099700000000000000000000000000000000ffffffff0500000000000000e6a0bbcf0100000002000000\
     00000000eedf0997010000000100000000000000640d49e7010000000200000000000000eedf0997ffffffff\
     0500000000000000e6a0bbcf00000000000000000000000000000000010000000100000000000000640d49e7";
const GOLDEN_GCS: &str = "2d085e0255c0";
