//! The classic Bloom filter (Bloom 1970), sized per the paper's formulas.
//!
//! # Index derivation
//!
//! One keyed hash per id (paper §6.3, "Reducing Processing Time": do not
//! rehash an id `k` times; §6.1: key the one hash, so nobody without the
//! salt can aim an id at chosen bits). `h1` is SipHash-2-4 of the 32-byte
//! id under the filter's salted key, `h2 = mix64(h1) | 1`, and index `i` is
//! `(h1 + i·h2 mod 2^64) mod m` — Kirsch–Mitzenmacher double hashing with
//! the second hash taken from the first, for any `k`.
//!
//! There is one derivation, a walk over an id's indexes with a visitor
//! (`walk_rest`): inserting sets the bits it visits, probing tests them,
//! and the single-id forms are the batch forms over a slice of one. Every
//! batch form also comes as `*_by`, which reads the id out of each item of
//! any slice — a block's or a mempool's `&[Transaction]` — so no caller
//! copies ids out to call a filter.
//!
//! # The mempool pass
//!
//! A receiver puts her whole mempool through the sender's filter (§6.3),
//! nearly all of it non-members, so `probe` is built for the miss. It runs
//! in two stages per tile of ids: `h1` and index 0 for all, then the other
//! `k − 1` indexes for the survivors only — half the pool at an optimally
//! filled filter is a hash, a remainder and a bit test. Indexes are reduced
//! by a reciprocal multiply (`FastRem`), not a divide, and a survivor's
//! bits are tested four to a branch, each one being a coin flip. None of
//! this changes an index: bits and answers are those of the
//! element-at-a-time oracle the walk is tested against, `RefBloom` in
//! `graphene-bench`.

use crate::bitvec::BitVec;
use crate::params::{bloom_bits, optimal_hash_count, theoretical_fpr};
use crate::Membership;
use graphene_hashes::{mix64, siphash24_batch, Digest, FastRem, SipKey};

/// How bit indexes are derived from a 32-byte ID. One way; the type, like
/// [`BloomFilter::strategy`] and [`BloomFilter::from_parts`]' last
/// argument, is kept only for `benchmark/`, which a product change may not
/// edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashStrategy {
    /// Kirsch–Mitzenmacher double hashing off one SipHash-2-4 (any `k`).
    DoubleHashing,
}

/// A Bloom filter keyed by transaction IDs.
///
/// ```
/// use graphene_bloom::{BloomFilter, Membership};
/// use graphene_hashes::sha256;
///
/// let ids: Vec<_> = (0u64..100).map(|i| sha256(&i.to_le_bytes())).collect();
/// let mut filter = BloomFilter::new(ids.len(), 0.01, 7);
/// for id in &ids {
///     filter.insert(id);
/// }
/// assert!(ids.iter().all(|id| filter.contains(id)));
/// ```
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: BitVec,
    k: u32,
    /// Target false-positive rate the filter was constructed for.
    fpr: f64,
    /// Salt decorrelates multiple filters over the same txid universe
    /// (Graphene's S, R and F must be independent).
    salt: u64,
    inserted: usize,
}

impl BloomFilter {
    /// Create a filter for `n` expected items at false-positive rate `fpr`.
    ///
    /// `fpr >= 1.0` produces the degenerate zero-byte filter that matches
    /// everything — Graphene uses this when the optimizer drives `f_S → 1`
    /// (paper §3.3.1, special case `m ≈ n`).
    pub fn new(n: usize, fpr: f64, salt: u64) -> Self {
        let nbits = bloom_bits(n, fpr);
        let k = optimal_hash_count(nbits, n);
        Self::from_parts(BitVec::new(nbits), k, fpr.min(1.0), salt, HashStrategy::DoubleHashing)
    }

    /// Construct with explicit geometry (used by wire decoding).
    pub fn from_parts(bits: BitVec, k: u32, fpr: f64, salt: u64, _: HashStrategy) -> Self {
        BloomFilter { bits, k, fpr, salt, inserted: 0 }
    }

    /// Number of hash functions.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Number of bits in the underlying array.
    pub fn bit_len(&self) -> usize {
        self.bits.len()
    }

    /// Number of items inserted so far.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// The salt this filter mixes into its hash functions.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// The index derivation in use (see [`HashStrategy`]).
    pub fn strategy(&self) -> HashStrategy {
        HashStrategy::DoubleHashing
    }

    /// Borrow the raw bit array (for serialization).
    pub fn bit_vec(&self) -> &BitVec {
        &self.bits
    }

    /// Insert a txid: [`BloomFilter::insert_batch`] over a slice of one.
    pub fn insert(&mut self, id: &Digest) {
        self.insert_batch(core::slice::from_ref(id));
    }

    /// The realized false-positive rate given the current fill, from the
    /// standard `(1 - e^{-kn/m})^k` model.
    pub fn realized_fpr(&self) -> f64 {
        theoretical_fpr(self.bits.len(), self.k, self.inserted)
    }

    /// Merge another filter with identical geometry into this one (word-level
    /// OR). The result answers `contains` true for anything either operand
    /// matched. Panics on geometry mismatch.
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(
            (self.k, self.salt),
            (other.k, other.salt),
            "bloom union across different hash geometries"
        );
        self.bits.union_with(&other.bits);
        self.inserted += other.inserted;
    }

    /// Insert a slice of txids. Allocation-free; duplicate and overlapping
    /// inputs are fine — re-setting a bit is a no-op, and `inserted` counts
    /// slice elements.
    pub fn insert_batch(&mut self, ids: &[Digest]) {
        self.insert_batch_by(ids, |id| id);
    }

    /// [`BloomFilter::insert_batch`] over the ids of `items`, hashed where
    /// they lie: a block's or a pool's `&[Transaction]` goes in without an
    /// id array being copied out first.
    pub fn insert_batch_by<T>(&mut self, items: &[T], id_of: impl Fn(&T) -> &Digest) {
        self.inserted += items.len();
        if self.bits.is_empty() {
            return;
        }
        let (m, k) = (FastRem::new(self.bits.len() as u64), self.k);
        let mut set = |bit| {
            self.bits.set(bit);
            true
        };
        siphash24_batch(
            [hash_key(self.salt)],
            items,
            |item| id_of(item).le_words(),
            |_, [h1]| {
                set(m.rem(h1) as usize);
                walk_rest(m, h1, k, &mut set);
            },
        );
    }

    /// Batch membership: bit `j` of the result is set iff `ids[j]` may be in
    /// the set. Probes are pure reads, so `ids` may freely contain
    /// duplicates or overlap other batches.
    pub fn contains_batch(&self, ids: &[Digest]) -> BitVec {
        self.contains_batch_by(ids, |id| id)
    }

    /// [`BloomFilter::contains_batch`] over the ids of `items`, hashed where
    /// they lie — the receiver's mempool pass (§6.3) reads each id out of
    /// the pool's own `&[Transaction]`.
    pub fn contains_batch_by<T>(&self, items: &[T], id_of: impl Fn(&T) -> &Digest) -> BitVec {
        let mut out = BitVec::new(items.len());
        if self.bits.is_empty() {
            // The degenerate match-everything filter has no indexes to probe.
            out.fill_ones();
        } else {
            self.probe(items, id_of, |j| out.set(j));
        }
        out
    }

    /// Call `hit(j)` for every `items[j]` whose `k` bits are all set. The
    /// filter has at least one bit.
    ///
    /// The probe runs in two stages over tiles of [`PROBE_TILE`] ids. Stage 1
    /// hashes `h1` and tests index 0; an id whose first bit is clear — half
    /// the pool at an optimally filled filter — is finished there. Stage 2
    /// walks the survivors' remaining `k − 1` indexes. Every id is tested
    /// against the indexes [`BloomFilter::insert_batch_by`] sets, in the
    /// same order, so the answers are those of the textbook probe.
    fn probe<T>(&self, items: &[T], id_of: impl Fn(&T) -> &Digest, mut hit: impl FnMut(usize)) {
        let m = FastRem::new(self.bits.len() as u64);
        let mut survivors = [(0u32, 0u64); PROBE_TILE];
        for (t, tile) in items.chunks(PROBE_TILE).enumerate() {
            let mut live = 0;
            siphash24_batch(
                [hash_key(self.salt)],
                tile,
                |item| id_of(item).le_words(),
                |j, [h1]| {
                    // Written unconditionally, kept only if the bit is set:
                    // no branch on a coin flip.
                    survivors[live] = (j as u32, h1);
                    live += usize::from(self.bits.get(m.rem(h1) as usize));
                },
            );
            for &(j, h1) in &survivors[..live] {
                if walk_rest(m, h1, self.k, |bit| self.bits.get(bit)) {
                    hit(t * PROBE_TILE + j as usize);
                }
            }
        }
    }
}

/// Ids per tile of the two-stage probe. The survivor list (16 bytes an id,
/// zeroed once per call) stays in L1 between the stages; larger tiles only
/// spread a tile's one ragged lane call over more ids, which is already
/// under a percent here, and make a probe of a few dozen ids pay for
/// clearing a longer list. Nothing a caller could tune — the answers do
/// not depend on it.
const PROBE_TILE: usize = 256;

/// The SipHash key of a filter salted `salt`.
fn hash_key(salt: u64) -> SipKey {
    SipKey::new(salt, 0x5350_4c49_5431)
}

/// Indexes `1..k` of the id hashed to `h1` — index `i` is
/// `(h1 + i·h2 mod 2^64) mod m` with `h2 = mix64(h1) | 1`, the textbook
/// derivation with the divide replaced by [`FastRem`] — in order, until
/// `visit` rejects one; true if it rejected none. Index 0 is `m.rem(h1)`;
/// the caller has dealt with it.
///
/// The indexes are taken four to an exit test: at an optimally filled filter
/// each bit is a coin flip, so an exit test per index is a mispredicted
/// branch per id, while the combined test of four is nearly always "leave".
#[inline]
fn walk_rest(m: FastRem, h1: u64, k: u32, mut visit: impl FnMut(usize) -> bool) -> bool {
    let h2 = mix64(h1) | 1; // odd, so the chain never collapses onto one index
    let mut h = h1;
    let mut next = || {
        h = h.wrapping_add(h2);
        m.rem(h) as usize
    };
    let mut left = k.saturating_sub(1);
    while left >= 4 {
        // `&`, not `&&`: all four are computed and tested, then one branch.
        if !(visit(next()) & visit(next()) & visit(next()) & visit(next())) {
            return false;
        }
        left -= 4;
    }
    (0..left).all(|_| visit(next()))
}

impl Membership for BloomFilter {
    /// [`BloomFilter::contains_batch`] over a slice of one, without the mask.
    fn contains(&self, id: &Digest) -> bool {
        let mut hit = self.bits.is_empty();
        if !hit {
            self.probe(core::slice::from_ref(id), |id| id, |_| hit = true);
        }
        hit
    }

    /// Wire size, matching `graphene-wire`'s encoder exactly: a flag byte,
    /// then (for non-degenerate filters) bit length `u32`, `k` byte,
    /// salt `u64`, and the packed bit array.
    fn serialized_size(&self) -> usize {
        if self.bits.is_empty() {
            return 1; // a single flag byte for the match-all filter
        }
        1 + 4 + 1 + 8 + self.bits.len().div_ceil(8)
    }

    fn fpr(&self) -> f64 {
        self.fpr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_hashes::sha256;

    fn ids(n: usize, tag: u64) -> Vec<Digest> {
        (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
    }

    #[test]
    fn no_false_negatives() {
        let set = ids(500, 1);
        let mut f = BloomFilter::new(set.len(), 0.01, 42);
        for id in &set {
            f.insert(id);
        }
        assert!(set.iter().all(|id| f.contains(id)));
    }

    #[test]
    fn fpr_close_to_target() {
        let inserted = ids(1000, 2);
        let probes = ids(20_000, 3);
        let target = 0.02;
        let mut f = BloomFilter::new(inserted.len(), target, 7);
        for id in &inserted {
            f.insert(id);
        }
        let fp = probes.iter().filter(|id| f.contains(id)).count();
        let rate = fp as f64 / probes.len() as f64;
        // Allow generous slack: the estimate itself has variance.
        assert!(rate < target * 1.8, "observed fpr {rate} vs target {target}");
        assert!(rate > target * 0.3, "observed fpr {rate} suspiciously low");
    }

    #[test]
    fn degenerate_match_all() {
        let f = BloomFilter::new(100, 1.0, 0);
        assert_eq!(f.bit_len(), 0);
        assert!(f.contains(&sha256(b"anything")));
        assert_eq!(f.serialized_size(), 1);
    }

    #[test]
    fn salts_decorrelate() {
        let set = ids(2000, 4);
        let probes = ids(30_000, 5);
        let build = |salt| {
            let mut f = BloomFilter::new(set.len(), 0.05, salt);
            for id in &set {
                f.insert(id);
            }
            f
        };
        let f1 = build(1);
        let f2 = build(2);
        // False positives of one filter should be (mostly) independent of the
        // other: joint FPR ≈ fpr², far below single-filter FPR.
        let joint = probes.iter().filter(|id| f1.contains(id) && f2.contains(id)).count();
        let single = probes.iter().filter(|id| f1.contains(id)).count();
        assert!(
            joint * 5 < single.max(1),
            "joint {joint} vs single {single} — filters correlated?"
        );
    }

    #[test]
    fn serialized_size_tracks_formula() {
        let f = BloomFilter::new(1000, 0.01, 0);
        let expect = crate::params::bloom_size_bytes(1000, 0.01);
        // Payload plus the 14-byte wire header.
        assert!(f.serialized_size() >= expect && f.serialized_size() <= expect + 14);
    }

    /// Batch insert + batch probe produce the exact bits and answers of the
    /// element-at-a-time path, including duplicates in the batch and the
    /// empty batch.
    #[test]
    fn batch_matches_scalar() {
        let mut set = ids(300, 6);
        set.push(set[0]); // duplicate key in the insert batch
        let mut probes = ids(500, 7);
        probes.extend_from_slice(&set[..50]);
        probes.push(probes[0]); // duplicate key in the probe batch

        let mut scalar = BloomFilter::new(set.len(), 0.02, 11);
        for id in &set {
            scalar.insert(id);
        }
        let mut batch = BloomFilter::new(set.len(), 0.02, 11);
        batch.insert_batch(&set);
        assert_eq!(scalar.bit_vec(), batch.bit_vec());
        assert_eq!(scalar.inserted(), batch.inserted());

        let mask = batch.contains_batch(&probes);
        for (j, id) in probes.iter().enumerate() {
            assert_eq!(mask.get(j), scalar.contains(id), "probe {j}");
        }
        assert_eq!(batch.contains_batch(&[]).len(), 0);
    }

    /// The degenerate match-everything filter answers all-ones in batch
    /// form too.
    #[test]
    fn batch_degenerate_match_all() {
        let mut f = BloomFilter::new(100, 1.0, 0);
        let probes = ids(10, 8);
        f.insert_batch(&probes);
        assert_eq!(f.inserted(), 10);
        let mask = f.contains_batch(&probes);
        assert_eq!(mask.count_ones(), probes.len());
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(100, 0.01, 0);
        let misses = ids(1000, 9).iter().filter(|id| f.contains(id)).count();
        assert_eq!(misses, 0, "an empty filter must reject essentially all probes");
    }
}
