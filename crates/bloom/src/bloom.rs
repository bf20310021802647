//! The classic Bloom filter (Bloom 1970), sized per the paper's formulas.
//!
//! # Index derivation
//!
//! Two strategies are provided (paper §6.3, "Reducing Processing Time"):
//!
//! * [`HashStrategy::DoubleHashing`] — Kirsch–Mitzenmacher: two independent
//!   64-bit SipHash values `h1`, `h2` give index `i` as `h1 + i·h2`. Works
//!   for any `k` and any element length; this is the portable default.
//! * [`HashStrategy::KPiece`] — the §6.3 optimization: a txid is *already*
//!   the output of a cryptographic hash, so instead of rehashing it `k`
//!   times, slice the 32-byte ID into `k` pieces and use each piece as an
//!   index (after mixing in the filter's salt so distinct filters are
//!   independent). Valid for `k ≤` [`KPIECE_MAX_HASHES`] (four bytes per
//!   piece); construction falls back to double hashing above that.
//!
//! Both live in one function, `for_each_index`: `insert`, `insert_batch`,
//! `contains` and `contains_batch` are that walk with a different visitor,
//! and the single-id forms are the batch forms over a slice of one. The
//! element-at-a-time oracle the walk is tested against is `RefBloom` in
//! `graphene-bench`.

use crate::bitvec::BitVec;
use crate::params::{bloom_bits, optimal_hash_count, theoretical_fpr};
use crate::Membership;
use graphene_hashes::{siphash24_batch, Digest, SipKey};

/// How bit indexes are derived from a 32-byte ID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashStrategy {
    /// Kirsch–Mitzenmacher double hashing over SipHash-2-4 (any `k`).
    DoubleHashing,
    /// Slice the already-uniform txid into `k` 4-byte pieces (k ≤ 8).
    KPiece,
}

/// Largest hash count [`HashStrategy::KPiece`] can serve: a 32-byte txid
/// holds eight 4-byte pieces.
pub const KPIECE_MAX_HASHES: u32 = 8;

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
    /// Never [`HashStrategy::KPiece`] with `k >` [`KPIECE_MAX_HASHES`].
    strategy: HashStrategy,
    inserted: usize,
}

impl BloomFilter {
    /// Create a filter for `n` expected items at false-positive rate `fpr`.
    ///
    /// `fpr >= 1.0` produces the degenerate zero-byte filter that matches
    /// everything — Graphene uses this when the optimizer drives `f_S → 1`
    /// (paper §3.3.1, special case `m ≈ n`).
    pub fn new(n: usize, fpr: f64, salt: u64) -> Self {
        Self::with_strategy(n, fpr, salt, HashStrategy::DoubleHashing)
    }

    /// As [`BloomFilter::new`] with an explicit [`HashStrategy`].
    pub fn with_strategy(n: usize, fpr: f64, salt: u64, strategy: HashStrategy) -> Self {
        let nbits = bloom_bits(n, fpr);
        let k = optimal_hash_count(nbits, n);
        Self::from_parts(BitVec::new(nbits), k, fpr.min(1.0), salt, strategy)
    }

    /// Construct with explicit geometry (used by wire decoding).
    ///
    /// A [`HashStrategy::KPiece`] request with `k >` [`KPIECE_MAX_HASHES`]
    /// yields a double-hashing filter: there is no ninth piece to slice.
    pub fn from_parts(bits: BitVec, k: u32, fpr: f64, salt: u64, strategy: HashStrategy) -> Self {
        let strategy = match strategy {
            HashStrategy::KPiece if k <= KPIECE_MAX_HASHES => HashStrategy::KPiece,
            _ => HashStrategy::DoubleHashing,
        };
        BloomFilter { bits, k, fpr, salt, strategy, inserted: 0 }
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

    /// The index-derivation strategy in use.
    pub fn strategy(&self) -> HashStrategy {
        self.strategy
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
            (self.k, self.salt, self.strategy),
            (other.k, other.salt, other.strategy),
            "bloom union across different hash geometries"
        );
        self.bits.union_with(&other.bits);
        self.inserted += other.inserted;
    }

    /// Insert a slice of txids. Allocation-free; duplicate and overlapping
    /// inputs are fine — re-setting a bit is a no-op, and `inserted` counts
    /// slice elements.
    pub fn insert_batch(&mut self, ids: &[Digest]) {
        self.inserted += ids.len();
        let m = self.bits.len() as u64;
        for_each_index(self.strategy, self.salt, self.k, m, ids, |_, bit| {
            self.bits.set(bit);
            true
        });
    }

    /// Batch membership: bit `j` of the result is set iff `ids[j]` may be in
    /// the set. Probes are pure reads, so `ids` may freely contain
    /// duplicates or overlap other batches.
    pub fn contains_batch(&self, ids: &[Digest]) -> BitVec {
        let mut out = BitVec::new(ids.len());
        // Start from all-ones and knock out misses: the degenerate
        // match-everything filter has no indexes to probe.
        out.fill_ones();
        self.probe(ids, |j| out.unset(j));
        out
    }

    /// Call `miss(j)` for every `ids[j]` that is definitely absent.
    fn probe(&self, ids: &[Digest], mut miss: impl FnMut(usize)) {
        let m = self.bits.len() as u64;
        for_each_index(self.strategy, self.salt, self.k, m, ids, |j, bit| {
            let hit = self.bits.get(bit);
            if !hit {
                miss(j);
            }
            hit
        });
    }
}

/// The one place `(salt, id)` becomes probe indexes: for each `ids[j]`, call
/// `visit(j, index)` with its `k` indexes into an `m`-bit array in
/// derivation order, abandoning that id's walk as soon as `visit` returns
/// `false` (a probe's early exit on the first clear bit). The zero-bit
/// match-everything filter has no indexes.
///
/// Double hashing runs the two Kirsch–Mitzenmacher SipHashes through the
/// lane kernel, [`SIP_LANES`](graphene_hashes::SIP_LANES) ids per call, and
/// steps the index chain without a divide per probe ([`ModChain`]); the
/// second divide (`h2 % m`) waits until the first probe has hit.
fn for_each_index(
    strategy: HashStrategy,
    salt: u64,
    k: u32,
    m: u64,
    ids: &[Digest],
    mut visit: impl FnMut(usize, usize) -> bool,
) {
    if m == 0 {
        return;
    }
    match strategy {
        HashStrategy::DoubleHashing => {
            let keys = [SipKey::new(salt, 0x5350_4c49_5431), SipKey::new(salt, 0x5350_4c49_5432)];
            let mc = ModChain::new(m);
            siphash24_batch(keys, ids, Digest::le_words, |j, [h1, h2]| {
                let h2 = h2 | 1; // odd, so the chain never collapses onto one index
                let (mut h, mut r) = (h1, h1 % m);
                if !visit(j, r as usize) || k == 1 {
                    return;
                }
                let h2m = h2 % m;
                for _ in 1..k {
                    mc.advance(&mut h, &mut r, h2, h2m);
                    if !visit(j, r as usize) {
                        return;
                    }
                }
            });
        }
        HashStrategy::KPiece => {
            // §6.3: the i-th 4-byte piece of the (uniform) txid, mixed with
            // the salt by a cheap multiply-xor so distinct filters over the
            // same IDs stay independent. `k ≤ KPIECE_MAX_HASHES` by
            // construction, so every piece lies inside the digest.
            for (j, id) in ids.iter().enumerate() {
                for piece in id.0.chunks_exact(4).take(k as usize) {
                    let piece = u32::from_le_bytes(piece.try_into().expect("4-byte piece"));
                    let mixed = (piece as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    if !visit(j, (mixed % m) as usize) {
                        break;
                    }
                }
            }
        }
    }
}

/// A divide-free Kirsch–Mitzenmacher index chain.
///
/// The textbook probe computes `(h1 + i·h2 mod 2^64) mod m` with one 64-bit
/// divide per probe. The walk instead carries the remainder along: stepping
/// `h → h + h2` steps `r → r + (h2 mod m)` with a conditional subtract —
/// except when the 64-bit chain wraps, which silently subtracts `2^64` from
/// the true value, so the remainder must also absorb
/// `-2^64 ≡ m - (2^64 mod m) (mod m)`. Tracking `h` alongside `r` makes the
/// wrap observable (`h_next < h`), keeping the chain *exactly* equal to the
/// textbook derivation for every step — the equivalence proptests exercise
/// the wrap path heavily since random `h2` wraps about every other step.
#[derive(Clone, Copy)]
struct ModChain {
    m: u64,
    /// `(m - 2^64 mod m) mod m`, the remainder correction for a wrap.
    wrap_adj: u64,
}

impl ModChain {
    #[inline]
    fn new(m: u64) -> Self {
        let two64 = ((1u128 << 64) % m as u128) as u64;
        ModChain { m, wrap_adj: (m - two64) % m }
    }

    /// Advance the pair `(h, r)` — invariant `r == h % m` — by `step`,
    /// where `step_mod == step % m`. Branchless: both the `≥ m` folds and
    /// the wrap correction are data-dependent about half the time each for
    /// random hashes, so predicated arithmetic beats branches here.
    #[inline]
    fn advance(self, h: &mut u64, r: &mut u64, step: u64, step_mod: u64) {
        let next = h.wrapping_add(step);
        let mut nr = *r + step_mod;
        nr -= self.m * u64::from(nr >= self.m);
        nr += self.wrap_adj * u64::from(next < *h);
        nr -= self.m * u64::from(nr >= self.m);
        *h = next;
        *r = nr;
    }
}

impl Membership for BloomFilter {
    /// [`BloomFilter::contains_batch`] over a slice of one, without the mask.
    fn contains(&self, id: &Digest) -> bool {
        let mut hit = true;
        self.probe(core::slice::from_ref(id), |_| hit = false);
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
        for strategy in [HashStrategy::DoubleHashing, HashStrategy::KPiece] {
            let set = ids(500, 1);
            let mut f = BloomFilter::with_strategy(set.len(), 0.01, 42, strategy);
            for id in &set {
                f.insert(id);
            }
            assert!(set.iter().all(|id| f.contains(id)), "{strategy:?}");
        }
    }

    #[test]
    fn fpr_close_to_target() {
        for strategy in [HashStrategy::DoubleHashing, HashStrategy::KPiece] {
            let inserted = ids(1000, 2);
            let probes = ids(20_000, 3);
            let target = 0.02;
            let mut f = BloomFilter::with_strategy(inserted.len(), target, 7, strategy);
            for id in &inserted {
                f.insert(id);
            }
            let fp = probes.iter().filter(|id| f.contains(id)).count();
            let rate = fp as f64 / probes.len() as f64;
            // Allow generous slack: the estimate itself has variance.
            assert!(rate < target * 1.8, "{strategy:?}: observed fpr {rate} vs target {target}");
            assert!(rate > target * 0.3, "{strategy:?}: observed fpr {rate} suspiciously low");
        }
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
    fn kpiece_falls_back_when_k_too_large() {
        // fpr small enough to need k > 8.
        let f = BloomFilter::with_strategy(1000, 0.0001, 0, HashStrategy::KPiece);
        assert!(f.hash_count() > 8);
        assert_eq!(f.strategy(), HashStrategy::DoubleHashing);
        // Explicit geometry cannot name a ninth piece either.
        let mut g = BloomFilter::from_parts(BitVec::new(64), 9, 0.1, 0, HashStrategy::KPiece);
        assert_eq!(g.strategy(), HashStrategy::DoubleHashing);
        g.insert(&sha256(b"x"));
        assert!(g.contains(&sha256(b"x")));
    }

    #[test]
    fn serialized_size_tracks_formula() {
        let f = BloomFilter::new(1000, 0.01, 0);
        let expect = crate::params::bloom_size_bytes(1000, 0.01);
        // Payload plus the 14-byte wire header.
        assert!(f.serialized_size() >= expect && f.serialized_size() <= expect + 14);
    }

    /// Batch insert + batch probe produce the exact bits and answers of the
    /// element-at-a-time path, for both strategies, including duplicates in
    /// the batch and the empty batch.
    #[test]
    fn batch_matches_scalar() {
        for strategy in [HashStrategy::DoubleHashing, HashStrategy::KPiece] {
            let mut set = ids(300, 6);
            set.push(set[0]); // duplicate key in the insert batch
            let mut probes = ids(500, 7);
            probes.extend_from_slice(&set[..50]);
            probes.push(probes[0]); // duplicate key in the probe batch

            let mut scalar = BloomFilter::with_strategy(set.len(), 0.02, 11, strategy);
            for id in &set {
                scalar.insert(id);
            }
            let mut batch = BloomFilter::with_strategy(set.len(), 0.02, 11, strategy);
            batch.insert_batch(&set);
            assert_eq!(scalar.bit_vec(), batch.bit_vec(), "{strategy:?} bits");
            assert_eq!(scalar.inserted(), batch.inserted(), "{strategy:?} inserted");

            let mask = batch.contains_batch(&probes);
            for (j, id) in probes.iter().enumerate() {
                assert_eq!(mask.get(j), scalar.contains(id), "{strategy:?} probe {j}");
            }
            assert_eq!(batch.contains_batch(&[]).len(), 0);
        }
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
