//! The encode-once relay cache is *transparent*: a frame served from the
//! cache is byte-identical to a fresh canonical encode for any block,
//! mempool-size bucket, eviction pressure, or crash/restore interleaving.

use graphene::encode_cache::{EncodeCache, MBucket};
use graphene::protocol1::{self, RetryTweak};
use graphene::GrapheneConfig;
use graphene_blockchain::{Block, OrderingScheme, Transaction};
use graphene_hashes::Digest;
use proptest::prelude::*;

fn test_block(n: usize, tag: u64) -> Block {
    let txns: Vec<Transaction> = (0..n as u64)
        .map(|i| Transaction::new([tag.to_le_bytes(), i.to_le_bytes()].concat()))
        .collect();
    Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor)
}

proptest! {
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
