//! Pre-optimization reference implementations of the hot paths.
//!
//! These reproduce, line for line, the algorithms the production crates used
//! *before* the zero-allocation pass: per-insert index `Vec`s and a second
//! modulo in the Bloom filter, per-value scratch `Vec` + fresh `HashSet` and
//! clone-based subtraction in the IBLT peel, a full Golomb-stream decode
//! on every GCS query, and the pair-by-pair Merkle fold through the
//! streaming hasher. They exist for two reasons:
//!
//! 1. **Equivalence** — `tests/equivalence.rs` asserts the optimized paths
//!    return bit-identical bits/bytes/decodings against these references.
//! 2. **Measurement** — the `bench_runner` binary times optimized vs
//!    reference to report `speedup_vs_reference` in `BENCH_*.json`.
//!
//! Nothing here is reachable from production code.

use graphene_bloom::{bitvec::BitVec, bloom_bits, optimal_hash_count, HashStrategy};
use graphene_hashes::{sha256d, siphash24, Digest, SipKey};
use graphene_iblt::{DecodeError, DecodeResult, Iblt};
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Bloom filter (old shape: collect k indexes into a Vec, reduce mod m twice)
// ---------------------------------------------------------------------------

/// The pre-optimization Bloom filter: identical geometry and index
/// derivation to `graphene_bloom::BloomFilter`, but computing every probe
/// through an intermediate `Vec<usize>` exactly as the old `indexes()`
/// method did.
pub struct RefBloom {
    bits: BitVec,
    k: u32,
    salt: u64,
    strategy: HashStrategy,
}

impl RefBloom {
    /// Mirror of `BloomFilter::with_strategy` (same sizing formulas, same
    /// k-piece fallback rule).
    pub fn with_strategy(n: usize, fpr: f64, salt: u64, strategy: HashStrategy) -> Self {
        let nbits = bloom_bits(n, fpr);
        let k = optimal_hash_count(nbits, n);
        let strategy = match strategy {
            HashStrategy::KPiece if k <= 8 => HashStrategy::KPiece,
            _ => HashStrategy::DoubleHashing,
        };
        RefBloom { bits: BitVec::new(nbits), k, salt, strategy }
    }

    /// The old per-call index computation: allocate, collect, reduce twice.
    fn indexes(&self, id: &Digest) -> Vec<usize> {
        let m = self.bits.len() as u64;
        match self.strategy {
            HashStrategy::DoubleHashing => {
                let h1 = siphash24(SipKey::new(self.salt, 0x5350_4c49_5431), &id.0);
                let h2 = siphash24(SipKey::new(self.salt, 0x5350_4c49_5432), &id.0) | 1;
                (0..self.k)
                    .map(|i| {
                        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize
                            % self.bits.len()
                    })
                    .collect()
            }
            HashStrategy::KPiece => {
                // The old code computed the (unused) double-hash pair here
                // too; it cannot affect the produced indexes, so the
                // reference skips straight to the pieces.
                (0..self.k)
                    .map(|i| {
                        let off = (i as usize) * 4;
                        let piece =
                            u32::from_le_bytes(id.0[off..off + 4].try_into().expect("4 bytes"));
                        let mixed = (piece as u64 ^ self.salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        (mixed % m) as usize % self.bits.len()
                    })
                    .collect()
            }
        }
    }

    /// Insert through the allocating index path.
    pub fn insert(&mut self, id: &Digest) {
        if self.bits.is_empty() {
            return;
        }
        for idx in self.indexes(id) {
            self.bits.set(idx);
        }
    }

    /// Query through the allocating index path.
    pub fn contains(&self, id: &Digest) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        self.indexes(id).into_iter().all(|idx| self.bits.get(idx))
    }

    /// The element-at-a-time "batch" insert: a plain loop over the scalar
    /// path. The optimized `BloomFilter::insert_batch` must leave the bit
    /// array byte-identical to this.
    pub fn insert_batch(&mut self, ids: &[Digest]) {
        for id in ids {
            self.insert(id);
        }
    }

    /// The element-at-a-time "batch" query: one scalar probe per id, in
    /// order. The optimized `contains_batch` mask must agree bit for bit.
    pub fn contains_batch(&self, ids: &[Digest]) -> Vec<bool> {
        ids.iter().map(|id| self.contains(id)).collect()
    }

    /// The packed bit array, for byte-level comparison with the optimized
    /// filter's `bit_vec().to_bytes()`.
    pub fn bit_bytes(&self) -> Vec<u8> {
        self.bits.to_bytes()
    }

    /// Number of hash functions chosen by the sizing formulas.
    pub fn hash_count(&self) -> u32 {
        self.k
    }
}

// ---------------------------------------------------------------------------
// IBLT peel (old shape: fresh HashSet per peel, per-value index Vec,
// clone-based subtraction)
// ---------------------------------------------------------------------------

/// Cell index derivation, identical to the crate-private
/// `graphene_iblt::table::cell_index` (documented in `Iblt::to_bytes` /
/// DESIGN notes): partition `i` spans cells `[i·c/k, (i+1)·c/k)`.
fn ref_cell_index(salt: u64, part: usize, i: u32, value: u64) -> usize {
    let h = siphash24(SipKey::new(salt, 0x4942_4c54_0000 + i as u64), &value.to_le_bytes());
    i as usize * part + (h % part as u64) as usize
}

/// Mirror of `graphene_iblt::cell::check_hash`.
fn ref_check_hash(salt: u64, value: u64) -> u32 {
    siphash24(SipKey::new(salt, 0x4942_4c54_4348), &value.to_le_bytes()) as u32
}

/// The pre-optimization peel over an owned cell array: a freshly allocated
/// `HashSet` of decoded values and a new `Vec` of the value's `k` cell
/// indexes per removal — the exact worklist order of the optimized
/// `peel_in_place`, so results (including element order) must match bit
/// for bit.
pub fn ref_peel_cells(
    mut cells: Vec<graphene_iblt::Cell>,
    k: u32,
    salt: u64,
) -> Result<DecodeResult, DecodeError> {
    ref_peel_cells_in(&mut cells, k, salt)
}

/// [`ref_peel_cells`], but also returning the partially peeled cell array,
/// so equivalence tests can compare the optimized peel's *remainder* (the
/// 2-core left behind by an incomplete decode) cell for cell.
pub fn ref_peel_cells_with_remainder(
    mut cells: Vec<graphene_iblt::Cell>,
    k: u32,
    salt: u64,
) -> (Result<DecodeResult, DecodeError>, Vec<graphene_iblt::Cell>) {
    let result = ref_peel_cells_in(&mut cells, k, salt);
    (result, cells)
}

fn ref_peel_cells_in(
    cells: &mut [graphene_iblt::Cell],
    k: u32,
    salt: u64,
) -> Result<DecodeResult, DecodeError> {
    let part = cells.len() / k as usize;
    let mut result = DecodeResult::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].is_pure(salt)).collect();
    while let Some(idx) = queue.pop() {
        let cell = cells[idx];
        if !cell.is_pure(salt) {
            continue;
        }
        let value = cell.key_sum;
        let sign = cell.count;
        if !seen.insert(value) {
            return Err(DecodeError::Malformed { value });
        }
        if sign == 1 {
            result.only_left.push(value);
        } else {
            result.only_right.push(value);
        }
        let check = ref_check_hash(salt, value);
        let indexes: Vec<usize> = (0..k).map(|i| ref_cell_index(salt, part, i, value)).collect();
        for i in indexes {
            cells[i].apply(value, check, -sign);
            if cells[i].is_pure(salt) {
                queue.push(i);
            }
        }
    }
    result.complete = cells.iter().all(|c| c.is_empty_cell());
    Ok(result)
}

/// The old clone-then-peel: copy the full cell array, then peel the copy
/// with the allocating algorithm.
pub fn ref_peel(table: &Iblt) -> Result<DecodeResult, DecodeError> {
    ref_peel_cells(table.cells().to_vec(), table.hash_count(), table.salt())
}

/// The old receiver decode step: allocate the difference table cell-wise
/// (what `subtract` did), then peel it in place with the allocating
/// algorithm. This is what every netsim/protocol decode attempt paid before
/// `subtract_from`/`subtract_into` + `peel_in_place`.
pub fn ref_subtract_peel(sender: &Iblt, local: &Iblt) -> Result<DecodeResult, DecodeError> {
    if sender.cell_count() != local.cell_count()
        || sender.hash_count() != local.hash_count()
        || sender.salt() != local.salt()
    {
        return Err(DecodeError::GeometryMismatch {
            left: (sender.cell_count(), sender.hash_count(), sender.salt()),
            right: (local.cell_count(), local.hash_count(), local.salt()),
        });
    }
    let cells: Vec<graphene_iblt::Cell> =
        sender.cells().iter().zip(local.cells()).map(|(a, b)| a.subtract(b)).collect();
    ref_peel_cells(cells, sender.hash_count(), sender.salt())
}

// ---------------------------------------------------------------------------
// GCS (old shape: decode the whole Golomb-Rice stream on every query)
// ---------------------------------------------------------------------------

/// Pre-optimization Golomb-coded set: same construction as
/// `graphene_bloom::Gcs`, but `contains` re-decodes the entire stream per
/// query (the behavior before the decoded-values cache).
pub struct RefGcs {
    data: Vec<u8>,
    count: usize,
    n: usize,
    fpr: f64,
    salt: u64,
}

fn gcs_range(n: usize, fpr: f64) -> u64 {
    ((n as f64 / fpr.clamp(1e-12, 1.0)).ceil() as u64).max(1)
}

fn gcs_rice_parameter(fpr: f64) -> u32 {
    (1.0 / fpr.clamp(1e-12, 0.999)).log2().round().max(0.0) as u32
}

fn gcs_hash_to_range(salt: u64, id: &Digest, range: u64) -> u64 {
    let h = siphash24(SipKey::new(salt, 0x4743_5348), &id.0);
    ((h as u128 * range as u128) >> 64) as u64
}

impl RefGcs {
    /// Build from a set of txids (mirror of `GcsBuilder::insert` + `build`).
    pub fn build(ids: &[Digest], n: usize, fpr: f64, salt: u64) -> Self {
        let n = n.max(1);
        let range = gcs_range(n, fpr);
        let mut hashed: Vec<u64> =
            ids.iter().map(|id| gcs_hash_to_range(salt, id, range)).collect();
        hashed.sort_unstable();
        hashed.dedup();
        let p = gcs_rice_parameter(fpr);
        let mut bytes = Vec::new();
        let mut used = 0u32;
        let push_bit = |bytes: &mut Vec<u8>, used: &mut u32, bit: bool| {
            if *used == 0 {
                bytes.push(0);
            }
            if bit {
                let last = bytes.last_mut().expect("pushed above");
                *last |= 1 << (7 - *used);
            }
            *used = (*used + 1) % 8;
        };
        let mut prev = 0u64;
        for &v in &hashed {
            let delta = v - prev;
            for _ in 0..(delta >> p) {
                push_bit(&mut bytes, &mut used, true);
            }
            push_bit(&mut bytes, &mut used, false);
            for i in (0..p).rev() {
                push_bit(&mut bytes, &mut used, (delta >> i) & 1 == 1);
            }
            prev = v;
        }
        RefGcs { data: bytes, count: hashed.len(), n, fpr, salt }
    }

    /// Decode the full sorted value list (linear scan of the bit stream).
    fn decode(&self) -> Vec<u64> {
        let p = gcs_rice_parameter(self.fpr);
        let mut pos = 0usize;
        let read_bit = |pos: &mut usize| -> Option<bool> {
            let byte = *self.data.get(*pos / 8)?;
            let bit = (byte >> (7 - (*pos % 8))) & 1 == 1;
            *pos += 1;
            Some(bit)
        };
        let mut out = Vec::with_capacity(self.count);
        let mut prev = 0u64;
        for _ in 0..self.count {
            let mut q = 0u64;
            loop {
                match read_bit(&mut pos) {
                    Some(true) => q += 1,
                    Some(false) => break,
                    None => return out,
                }
                if q > 1 << 40 {
                    return out;
                }
            }
            let mut rem = 0u64;
            for _ in 0..p {
                match read_bit(&mut pos) {
                    Some(b) => rem = (rem << 1) | b as u64,
                    None => return out,
                }
            }
            prev += (q << p) | rem;
            out.push(prev);
        }
        out
    }

    /// The old query path: decode everything, then binary search.
    pub fn contains(&self, id: &Digest) -> bool {
        let target = gcs_hash_to_range(self.salt, id, gcs_range(self.n, self.fpr));
        self.decode().binary_search(&target).is_ok()
    }

    /// Element-at-a-time "batch" query: one full-stream decode + search per
    /// id, in order. `Gcs::contains_batch` must return the same answers.
    pub fn contains_batch(&self, ids: &[Digest]) -> Vec<bool> {
        ids.iter().map(|id| self.contains(id)).collect()
    }

    /// The Golomb–Rice byte stream, for comparison with `Gcs::data()`.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Number of encoded (distinct) members.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

// ---------------------------------------------------------------------------
// Merkle root (old shape: one node at a time through the streaming hasher,
// a fresh Vec per level)
// ---------------------------------------------------------------------------

/// The pairwise Merkle fold `graphene_hashes::merkle_root` used before it
/// hashed a level per pass: each node is `sha256d` over the 64 concatenated
/// bytes, an odd level duplicates its last node, an empty list is
/// [`Digest::ZERO`].
pub fn ref_merkle_root(txids: &[Digest]) -> Digest {
    if txids.is_empty() {
        return Digest::ZERO;
    }
    let mut level: Vec<Digest> = txids.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let mut buf = [0u8; 64];
                buf[..32].copy_from_slice(pair[0].as_ref());
                buf[32..].copy_from_slice(pair.get(1).unwrap_or(&pair[0]).as_ref());
                sha256d(&buf)
            })
            .collect();
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_bloom::{GcsBuilder, Membership};
    use graphene_hashes::sha256;

    fn ids(n: usize, tag: u64) -> Vec<Digest> {
        (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
    }

    #[test]
    fn ref_gcs_matches_production_bytes() {
        let set = ids(300, 7);
        let r = RefGcs::build(&set, set.len(), 0.01, 5);
        let mut b = GcsBuilder::new(set.len(), 0.01, 5);
        for id in &set {
            b.insert(id);
        }
        let g = b.build();
        assert_eq!(r.data(), g.data());
        assert_eq!(r.len(), g.len());
        for id in &set {
            assert!(r.contains(id) && g.contains(id));
        }
    }

    #[test]
    fn ref_peel_decodes_a_simple_difference() {
        let mut a = Iblt::new(30, 3, 9);
        let mut b = Iblt::new(30, 3, 9);
        for v in [1u64, 2, 3, 4, 5] {
            a.insert(v);
        }
        for v in [4u64, 5, 6] {
            b.insert(v);
        }
        let mut r = ref_subtract_peel(&a, &b).unwrap();
        assert!(r.complete);
        r.only_left.sort();
        r.only_right.sort();
        assert_eq!(r.only_left, vec![1, 2, 3]);
        assert_eq!(r.only_right, vec![6]);
    }
}
