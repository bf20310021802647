//! Encode-once relay cache: canonical Graphene encodings shared across
//! receivers (ROADMAP open item 2, the relay-node architecture).
//!
//! Protocol 1's sender-side work — sizing `a*`, building Bloom filter `S`
//! and IBLT `I`, serializing the frame — depends only on the block and the
//! receiver's mempool size `m`. A relay node serving a block to thousands
//! of peers therefore repeats near-identical work per peer. This module
//! caches the *encoded wire frame* keyed by `(block id, m-bucket, protocol
//! variant)` and hands out refcounted [`Bytes`] clones, so one encoding
//! serves every receiver in the same mempool-size class (the same
//! encode-once/serve-many shape BIP-152 compact-block relays use).
//!
//! # Keying and canonicalization
//!
//! Receivers are bucketed by rounding their reported mempool count **up**
//! to the next power of two ([`MBucket::for_count`]); the cached frame is
//! encoded at the bucket's upper bound ([`MBucket::canonical_m`]). Rounding
//! up is the conservative direction: a larger `m` sizes a larger `a*` and a
//! lower `f_S`, and a receiver whose true mempool is smaller than the
//! canonical `m` passes *fewer* items through `S` than the filter was
//! sized for. β-assurance is preserved for every receiver in the bucket.
//!
//! # What must never be cached
//!
//! * **Retry-rung encodings.** Every rung of the recovery ladder re-salts
//!   `S` and `I` ([`RetryTweak::for_attempt`]) precisely so a failed decode
//!   is retried against *independent* hash functions. Serving a cached
//!   attempt-0 frame in response to a `GetGrapheneRetryMsg` would silently
//!   reuse the salts that just failed. The [`EncodeCache::cacheable`] guard
//!   admits only `attempt == 0 && salt_tweak == 0` encodings.
//! * **Peer-specific frames.** When prefilling is on and a per-peer inv log
//!   is supplied, the prefilled transaction list differs per receiver.
//! * **Protocol 2 responses.** `GrapheneRecoveryMsg` is a function of the
//!   receiver's Bloom filter `R` — receiver-dependent by construction.
//! * **Rateless cell windows.** A `RatelessCellsMsg` answers a window
//!   request keyed by its start index, and every request names a window the
//!   stream has not served that receiver yet — a cached frame could only
//!   replay cells the receiver already consumed (the decoder rejects the
//!   duplicate as a gap). Servers regenerate any window statelessly from
//!   `(block, salt)` and count the encode as a bypass.
//!
//! Bypasses are counted ([`CacheStats::bypasses`]) so the fan-out
//! experiment can report them as encodings performed.
//!
//! # Bounds
//!
//! The cache holds at most `capacity_bytes` of frame payload, evicting the
//! least-recently-used entry first. The capacity is meant to be wired into
//! the node's resource accounting (netsim's `ResourceLimits` counts it
//! toward the accounted ceiling). The cache is process memory: it is
//! deliberately absent from `NodeSnapshot`, and a crash/restore cycle
//! restarts it empty.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::protocol1::RetryTweak;
use bytes::Bytes;
use graphene_hashes::Digest;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A mempool-size class: receivers whose reported `m` rounds up to the
/// same power of two share one canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MBucket {
    canonical: u64,
}

impl MBucket {
    /// The bucket for variants with no mempool-size dependence (full
    /// blocks).
    pub const NONE: MBucket = MBucket { canonical: 0 };

    /// Bucket a reported mempool count: round up to the next power of two
    /// (minimum 1, so `m = 0` and `m = 1` share a bucket).
    pub fn for_count(m: u64) -> MBucket {
        MBucket { canonical: m.max(1).next_power_of_two() }
    }

    /// The canonical `m` the bucket's shared encoding is sized for — its
    /// upper bound, the conservative direction for β-assurance.
    pub fn canonical_m(&self) -> u64 {
        self.canonical
    }
}

/// Which sender-side encoding a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheVariant {
    /// The Protocol 1 `GrapheneBlockMsg` frame (`S` + `I`).
    Graphene,
    /// A `FullBlockMsg` frame (the ladder's terminal rung).
    FullBlock,
}

/// Cache key: one canonical encoding per (block, size class, variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The block being relayed.
    pub block: Digest,
    /// The receiver's mempool-size class ([`MBucket::NONE`] for variants
    /// with no `m` dependence).
    pub bucket: MBucket,
    /// Which encoding this entry holds.
    pub variant: CacheVariant,
}

impl CacheKey {
    /// Key for the Protocol 1 frame serving mempool-size class `bucket`.
    pub fn graphene(block: Digest, bucket: MBucket) -> CacheKey {
        CacheKey { block, bucket, variant: CacheVariant::Graphene }
    }

    /// Key for the full-block frame (no `m` dependence).
    pub fn full_block(block: Digest) -> CacheKey {
        CacheKey { block, bucket: MBucket::NONE, variant: CacheVariant::FullBlock }
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (each one is an encoding *not*
    /// performed).
    pub hits: u64,
    /// Lookups that missed and forced a fresh encoding.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Frame bytes whose encoding was skipped thanks to a hit.
    pub bytes_saved: u64,
    /// Encodings that were not cache-eligible (retry rungs, peer-specific
    /// prefill, receiver-dependent Protocol 2 responses).
    pub bypasses: u64,
}

struct Entry {
    frame: Bytes,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    used_bytes: u64,
    tick: u64,
    stats: CacheStats,
}

/// A bounded, LRU-evicting cache of encoded wire frames.
///
/// Interior mutability (a `Mutex`) lets sender entry points
/// take `&EncodeCache`, so one cache can be threaded through the whole
/// relay path without plumbing `&mut` everywhere.
pub struct EncodeCache {
    capacity_bytes: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for EncodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("EncodeCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("used_bytes", &inner.used_bytes)
            .field("entries", &inner.map.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl EncodeCache {
    /// A cache holding at most `capacity_bytes` of frame payload.
    pub fn new(capacity_bytes: u64) -> EncodeCache {
        EncodeCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                used_bytes: 0,
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// The cache state. A poisoned lock is recovered: the critical sections
    /// are straight-line map and counter updates that call nothing outside
    /// this module, and a cache is only ever an optimisation.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guard deciding whether an encoding may be served from / stored
    /// into the cache. Only the canonical attempt-0 encoding with no
    /// per-peer prefill qualifies; see the module docs for why retry rungs
    /// must always re-encode.
    pub fn cacheable(tweak: &RetryTweak, peer_specific: bool) -> bool {
        tweak.attempt == 0 && tweak.salt_tweak == 0 && !peer_specific
    }

    /// Look up a frame, bumping its LRU position. Counts a hit (and the
    /// bytes whose encoding was skipped) or a miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Bytes> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let frame = entry.frame.clone();
                inner.stats.hits += 1;
                inner.stats.bytes_saved += frame.len() as u64;
                Some(frame)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a frame, evicting least-recently-used entries until the
    /// byte budget holds. A frame larger than the whole budget is not
    /// stored (it could only ever evict everything else for one entry).
    pub fn insert(&self, key: CacheKey, frame: Bytes) {
        let len = frame.len() as u64;
        if len > self.capacity_bytes {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.used_bytes -= old.frame.len() as u64;
        }
        while inner.used_bytes + len > self.capacity_bytes {
            let victim = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = inner.map.remove(&k) {
                        inner.used_bytes -= e.frame.len() as u64;
                        inner.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
        inner.used_bytes += len;
        inner.map.insert(key, Entry { frame, last_used: tick });
    }

    /// Record a non-cacheable encoding (retry rung, peer-specific prefill,
    /// Protocol 2 response).
    pub fn note_bypass(&self) {
        self.lock().stats.bypasses += 1;
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Bytes of frame payload currently held.
    pub fn used_bytes(&self) -> u64 {
        self.lock().used_bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no frames are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrapheneConfig;

    fn frame(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    fn key(tag: u8, m: u64) -> CacheKey {
        CacheKey::graphene(Digest([tag; 32]), MBucket::for_count(m))
    }

    #[test]
    fn buckets_round_up_to_powers_of_two() {
        assert_eq!(MBucket::for_count(0).canonical_m(), 1);
        assert_eq!(MBucket::for_count(1).canonical_m(), 1);
        assert_eq!(MBucket::for_count(2).canonical_m(), 2);
        assert_eq!(MBucket::for_count(3).canonical_m(), 4);
        assert_eq!(MBucket::for_count(1000).canonical_m(), 1024);
        assert_eq!(MBucket::for_count(1024).canonical_m(), 1024);
        assert_eq!(MBucket::for_count(1025).canonical_m(), 2048);
        // Same bucket ⇒ same key; adjacent buckets differ.
        assert_eq!(MBucket::for_count(513), MBucket::for_count(1024));
        assert_ne!(MBucket::for_count(512), MBucket::for_count(513));
    }

    #[test]
    fn hit_miss_and_bytes_saved_counters() {
        let c = EncodeCache::new(1 << 16);
        assert!(c.lookup(&key(1, 100)).is_none());
        c.insert(key(1, 100), frame(64, 0xaa));
        let got = c.lookup(&key(1, 100)).expect("hit");
        assert_eq!(&got[..], &[0xaa; 64][..]);
        // A different bucket of the same block misses.
        assert!(c.lookup(&key(1, 5000)).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.bytes_saved, 64);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let c = EncodeCache::new(256);
        c.insert(key(1, 10), frame(100, 1));
        c.insert(key(2, 10), frame(100, 2));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(c.lookup(&key(1, 10)).is_some());
        c.insert(key(3, 10), frame(100, 3));
        assert!(c.used_bytes() <= 256);
        assert!(c.lookup(&key(1, 10)).is_some(), "recently used entry evicted");
        assert!(c.lookup(&key(2, 10)).is_none(), "LRU entry survived over budget");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_frame_is_not_stored() {
        let c = EncodeCache::new(64);
        c.insert(key(1, 10), frame(65, 9));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let c = EncodeCache::new(1024);
        c.insert(key(1, 10), frame(100, 1));
        c.insert(key(1, 10), frame(40, 2));
        assert_eq!(c.used_bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cacheable_guard_rejects_retries_and_prefill() {
        let cfg = GrapheneConfig::default();
        assert!(EncodeCache::cacheable(&RetryTweak::initial(&cfg), false));
        assert!(!EncodeCache::cacheable(&RetryTweak::initial(&cfg), true));
        for attempt in 1..4 {
            let t = RetryTweak::for_attempt(&cfg, attempt);
            assert!(!EncodeCache::cacheable(&t, false), "attempt {attempt} admitted");
            assert_ne!(t.salt_tweak, 0);
        }
    }
}
