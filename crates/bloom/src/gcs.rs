//! Golomb-coded sets (Golomb 1966; used by BIP158 compact block filters).
//!
//! A GCS stores the sorted sequence `h(x) mod (n/f)` for each member `x`,
//! delta-encoded with Golomb–Rice codes. It sits within ~1.44× of the
//! information-theoretic membership bound — smaller than a Bloom filter —
//! but queries require decoding the whole stream. The paper (§3.3) lists it
//! as a Bloom alternative; the tradeoff bench in `crates/bench` compares
//! them.

use crate::bitvec::BitVec;
use crate::Membership;
use graphene_hashes::{siphash24_batch, Digest, SipKey};
use std::sync::OnceLock;

/// Bit-level writer for Golomb–Rice codes.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0..8).
    used: u32,
}

impl BitWriter {
    fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    fn push_bits(&mut self, value: u64, nbits: u32) {
        for i in (0..nbits).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    fn push_unary(&mut self, q: u64) {
        for _ in 0..q {
            self.push_bit(true);
        }
        self.push_bit(false);
    }
}

/// Bit-level reader mirroring [`BitWriter`].
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    fn read_bits(&mut self, nbits: u32) -> Option<u64> {
        let mut v = 0u64;
        for _ in 0..nbits {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Some(v)
    }

    fn read_unary(&mut self) -> Option<u64> {
        let mut q = 0u64;
        while self.read_bit()? {
            q += 1;
            if q > 1 << 40 {
                return None; // corrupt stream guard
            }
        }
        Some(q)
    }
}

/// Builder: collect items, then [`GcsBuilder::build`].
pub struct GcsBuilder {
    hashed: Vec<u64>,
    n: usize,
    fpr: f64,
    salt: u64,
}

impl GcsBuilder {
    /// Start a set for `n` expected items at false-positive rate `fpr`.
    pub fn new(n: usize, fpr: f64, salt: u64) -> Self {
        GcsBuilder { hashed: Vec::with_capacity(n), n: n.max(1), fpr, salt }
    }

    /// Add a txid: [`GcsBuilder::insert_batch`] over a slice of one.
    pub fn insert(&mut self, id: &Digest) {
        self.insert_batch(core::slice::from_ref(id));
    }

    /// Add a slice of txids.
    ///
    /// [`GcsBuilder::build`] sorts and deduplicates, so insertion order —
    /// and therefore batching — cannot change the encoded bytes.
    pub fn insert_batch(&mut self, ids: &[Digest]) {
        self.hashed.reserve(ids.len());
        hash_to_range(self.salt, ids, range(self.n, self.fpr), |_, v| self.hashed.push(v));
    }

    /// Encode into an immutable, queryable [`Gcs`].
    pub fn build(mut self) -> Gcs {
        self.hashed.sort_unstable();
        self.hashed.dedup();
        let p = rice_parameter(self.fpr);
        let mut w = BitWriter::default();
        let mut prev = 0u64;
        for &v in &self.hashed {
            let delta = v - prev;
            w.push_unary(delta >> p);
            w.push_bits(delta & ((1u64 << p) - 1), p);
            prev = v;
        }
        Gcs {
            // The builder already holds the sorted deduplicated values, so
            // seed the query cache instead of re-decoding on first lookup.
            decoded: OnceLock::from(self.hashed.clone()),
            data: w.bytes,
            count: self.hashed.len(),
            n: self.n,
            fpr: self.fpr,
            salt: self.salt,
        }
    }
}

/// An immutable Golomb-coded set.
pub struct Gcs {
    data: Vec<u8>,
    count: usize,
    n: usize,
    fpr: f64,
    salt: u64,
    /// Sorted decoded values, materialized at most once (the set is
    /// immutable, so the cache never needs invalidation). Wire bytes are
    /// still `data`; this only accelerates `contains`.
    decoded: OnceLock<Vec<u64>>,
}

fn range(n: usize, fpr: f64) -> u64 {
    ((n as f64 / fpr.clamp(1e-12, 1.0)).ceil() as u64).max(1)
}

fn rice_parameter(fpr: f64) -> u32 {
    (1.0 / fpr.clamp(1e-12, 0.999)).log2().round().max(0.0) as u32
}

/// The one place `(salt, id)` becomes a set element: `sink(j, v)` receives,
/// in input order, `ids[j]`'s 64-bit SipHash (lane kernel, a chunk of ids per
/// call) mapped uniformly onto `[0, range)` by 128-bit multiply-shift.
fn hash_to_range(salt: u64, ids: &[Digest], range: u64, mut sink: impl FnMut(usize, u64)) {
    siphash24_batch([SipKey::new(salt, 0x4743_5348)], ids, Digest::le_words, |j, [h]| {
        sink(j, ((h as u128 * range as u128) >> 64) as u64)
    });
}

impl Gcs {
    /// Number of encoded (distinct) members.
    pub fn len(&self) -> usize {
        self.count
    }

    /// The raw Golomb–Rice byte stream (the wire payload). Exposed so
    /// equivalence tests can assert the encoding byte-for-byte.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The sorted hashed values, decoded at most once and then shared.
    fn decoded(&self) -> &[u64] {
        self.decoded.get_or_init(|| self.decode())
    }

    /// Batch membership: bit `j` of the result is set iff `ids[j]` may be in
    /// the set (duplicates in `ids` are fine — reads only).
    pub fn contains_batch(&self, ids: &[Digest]) -> BitVec {
        let mut out = BitVec::new(ids.len());
        self.probe(ids, |j| out.set(j));
        out
    }

    /// Call `hit(j)` for every `ids[j]` whose hashed value is in the set
    /// (decoded lazily at most once, then binary-searched per query).
    fn probe(&self, ids: &[Digest], mut hit: impl FnMut(usize)) {
        let decoded = self.decoded();
        hash_to_range(self.salt, ids, range(self.n, self.fpr), |j, target| {
            if decoded.binary_search(&target).is_ok() {
                hit(j);
            }
        });
    }

    /// Decode the sorted hashed values (linear scan).
    fn decode(&self) -> Vec<u64> {
        let p = rice_parameter(self.fpr);
        let mut r = BitReader::new(&self.data);
        let mut out = Vec::with_capacity(self.count);
        let mut prev = 0u64;
        for _ in 0..self.count {
            let Some(q) = r.read_unary() else { break };
            let Some(rem) = r.read_bits(p) else { break };
            prev += (q << p) | rem;
            out.push(prev);
        }
        out
    }
}

impl Membership for Gcs {
    /// [`Gcs::contains_batch`] over a slice of one, without the mask.
    fn contains(&self, id: &Digest) -> bool {
        let mut found = false;
        self.probe(core::slice::from_ref(id), |_| found = true);
        found
    }

    fn serialized_size(&self) -> usize {
        self.data.len() + 9
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

    fn build(set: &[Digest], fpr: f64) -> Gcs {
        let mut b = GcsBuilder::new(set.len(), fpr, 11);
        for id in set {
            b.insert(id);
        }
        b.build()
    }

    #[test]
    fn members_always_match() {
        let set = ids(1000, 1);
        let g = build(&set, 0.01);
        // A few of the 1000 hashed values collide within the range n/f and
        // are deduplicated; membership is unaffected.
        assert!(g.len() <= 1000 && g.len() >= 980, "len {}", g.len());
        assert!(set.iter().all(|id| g.contains(id)));
    }

    #[test]
    fn fpr_bounded() {
        let set = ids(1000, 2);
        let probes = ids(30_000, 3);
        let g = build(&set, 0.01);
        let fp = probes.iter().filter(|id| g.contains(id)).count();
        let rate = fp as f64 / probes.len() as f64;
        assert!(rate < 0.02, "observed fpr {rate}");
    }

    #[test]
    fn smaller_than_bloom_at_same_fpr() {
        let set = ids(2000, 4);
        let g = build(&set, 0.001);
        let bloom_bytes = crate::params::bloom_size_bytes(2000, 0.001);
        assert!(
            g.serialized_size() < bloom_bytes,
            "gcs {} >= bloom {bloom_bytes}",
            g.serialized_size()
        );
    }

    #[test]
    fn empty_set() {
        let g = GcsBuilder::new(10, 0.01, 0).build();
        assert!(g.is_empty());
        assert!(!g.contains(&sha256(b"x")));
    }

    /// Batch insert yields byte-identical encodings and batch queries give
    /// the exact per-element answers, including duplicate keys and the
    /// empty batch.
    #[test]
    fn batch_matches_scalar() {
        let mut set = ids(800, 6);
        set.push(set[3]); // duplicate insert
        let scalar = build(&set, 0.01);
        let mut b = GcsBuilder::new(set.len(), 0.01, 11);
        b.insert_batch(&set);
        let batched = b.build();
        assert_eq!(scalar.data(), batched.data(), "encodings diverged");

        let mut probes = ids(500, 7);
        probes.extend_from_slice(&set[..50]);
        probes.push(probes[0]);
        let mask = batched.contains_batch(&probes);
        for (j, id) in probes.iter().enumerate() {
            assert_eq!(mask.get(j), scalar.contains(id), "probe {j}");
        }
        assert_eq!(batched.contains_batch(&[]).len(), 0);
    }

    #[test]
    fn bitio_roundtrip() {
        let mut w = BitWriter::default();
        w.push_unary(5);
        w.push_bits(0b1011, 4);
        w.push_unary(0);
        w.push_bits(0x3ff, 10);
        let mut r = BitReader::new(&w.bytes);
        assert_eq!(r.read_unary(), Some(5));
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_unary(), Some(0));
        assert_eq!(r.read_bits(10), Some(0x3ff));
    }

    #[test]
    fn reader_handles_truncation() {
        let mut r = BitReader::new(&[0b1111_1111]);
        // All ones and then the stream ends: unary never terminates.
        assert_eq!(r.read_unary(), None);
    }
}
