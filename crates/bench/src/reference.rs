//! The oracles: one textbook, element-at-a-time implementation of every
//! primitive the production crates run through a lane kernel, a cache or a
//! cleverer data structure. Each primitive exists exactly twice in the
//! repo — its production path and its oracle here:
//!
//! | oracle | production code it pins |
//! |---|---|
//! | [`RefBloom`] | `BloomFilter::{insert, insert_batch, insert_batch_by, insert_batch_on, contains, contains_batch, contains_batch_by, contains_batch_on}` in `graphene_bloom::bloom` (both build kernels of `graphene_hashes::build`, both two-stage probe kernels of `graphene_hashes::probe`, reciprocal-multiply `FastRem` indexes) |
//! | [`ref_iblt_apply`] | `graphene_hashes::cell_index` behind `Iblt::{insert, erase, cancel, insert_partial}`, and both build kernels of `graphene_hashes::build` behind `Iblt::{insert_batch, insert_batch_by, insert_batch_on}` |
//! | [`ref_peel_cells`], [`ref_subtract_peel`] | `Iblt::peel_in_place` (batched purity checks, reused scratch) over `Iblt::subtract_from`/`subtract_into` |
//! | [`RefGcs`] | `graphene_bloom::gcs::hash_to_range` behind `GcsBuilder::{insert, insert_batch}` and the decode-once cache behind `Gcs::{contains, contains_batch}` |
//! | [`ref_candidates`] | `graphene::candidates::Candidates::from_survivors` (one sort by txid prefix, short-ID collisions found as neighbours) |
//! | [`ref_confirm_shared`] | `graphene_blockchain::Mempool::confirm` on shared storage (the remainder built directly from replayed positions) |
//! | [`ref_merkle_root`] | `graphene_hashes::merkle_root` (a level per pass, in chunks through the SHA-256 pair kernel) |
//! | [`ReferenceQueue`] | `graphene_netsim::event::EventQueue` (the timing wheel) |
//!
//! They exist for two reasons:
//!
//! 1. **Equivalence** — `tests/equivalence.rs` asserts the production paths
//!    return bit-identical bits/bytes/decodings/pop orders against these.
//! 2. **Measurement** — the `bench_runner` binary times production vs
//!    oracle to report `speedup_vs_reference` in `BENCH_*.json`.
//!
//! Every hash here goes through scalar `siphash24` / `sha256d`, never a
//! lane kernel. On a host with the x86 SHA extensions `sha256d` and
//! production share one compression, the one on those extensions: there
//! [`ref_merkle_root`] checks the fixed-shape pair hash and the tree (the
//! padding constants, the staging, the pairing, the duplicated last node)
//! but not the compression itself — except on an AVX-512 host, where
//! full chunks take the `zmm` pair kernel, which it then checks whole.
//! The unit tests of `graphene_hashes` call the lane kernel by name
//! against that compression on every such host, so the lane kernel stays
//! checked.
//! Nothing here is reachable from production code.

use graphene_blockchain::Mempool;
use graphene_bloom::{bitvec::BitVec, bloom_bits, optimal_hash_count};
use graphene_hashes::{sha256d, short_id_8, siphash24, Digest, SipKey};
use graphene_iblt::{Cell, DecodeError, DecodeResult, Iblt};
use graphene_netsim::event::Event;
use graphene_netsim::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};

// ---------------------------------------------------------------------------
// Bloom filter (collect k indexes into a Vec, one `% m` per probe)
// ---------------------------------------------------------------------------

/// The splitmix64 finaliser, written out: the oracles share no arithmetic
/// with `graphene_hashes::mix64`.
pub fn ref_mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The textbook Bloom filter: identical geometry and index derivation to
/// `graphene_bloom::BloomFilter`, but every probe index is
/// `(h1 + i·h2) mod m` computed on its own from one scalar SipHash `h1`
/// and `h2 = mix64(h1) | 1`.
pub struct RefBloom {
    bits: BitVec,
    k: u32,
    salt: u64,
}

impl RefBloom {
    /// Mirror of `BloomFilter::new` (same sizing formulas).
    pub fn new(n: usize, fpr: f64, salt: u64) -> Self {
        let nbits = bloom_bits(n, fpr);
        RefBloom::from_parts(BitVec::new(nbits), optimal_hash_count(nbits, n), salt)
    }

    /// Mirror of `BloomFilter::from_parts`: a given bit array and hash count.
    pub fn from_parts(bits: BitVec, k: u32, salt: u64) -> Self {
        RefBloom { bits, k, salt }
    }

    fn indexes(&self, id: &Digest) -> Vec<usize> {
        let m = self.bits.len() as u64;
        let h1 = siphash24(SipKey::new(self.salt, 0x5350_4c49_5431), &id.0);
        let h2 = ref_mix64(h1) | 1;
        (0..self.k).map(|i| (h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize).collect()
    }

    /// Set the id's `k` bits.
    pub fn insert(&mut self, id: &Digest) {
        if self.bits.is_empty() {
            return;
        }
        for idx in self.indexes(id) {
            self.bits.set(idx);
        }
    }

    /// True iff all of the id's `k` bits are set.
    pub fn contains(&self, id: &Digest) -> bool {
        self.bits.is_empty() || self.indexes(id).into_iter().all(|idx| self.bits.get(idx))
    }

    /// The bit array, for comparison in place with the production filter's
    /// `bit_vec()`.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// The packed bit array, for byte-level comparison with the production
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
// IBLT (the value rehashed for every checksum and every cell index, fresh
// HashSet and index Vec per peel, clone-based subtraction)
// ---------------------------------------------------------------------------

/// A value's one hash, keyed `(salt, 0x4942_4c54_4348)`.
fn ref_value_hash(salt: u64, value: u64) -> u64 {
    siphash24(SipKey::new(salt, 0x4942_4c54_4348), &value.to_le_bytes())
}

/// Partition `i` spans cells `[i·c/k, (i+1)·c/k)`; the value's cell in it is
/// picked by output `i` of the splitmix64 stream seeded with the value's
/// hash `h`: `mix64(h + (i + 1)·0x9e37_79b9_7f4a_7c15)`.
fn ref_cell_index(salt: u64, part: usize, i: u32, value: u64) -> usize {
    let step = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h_i = ref_mix64(ref_value_hash(salt, value).wrapping_add(step));
    i as usize * part + (h_i % part as u64) as usize
}

/// The checksum is the low half of the same hash.
fn ref_check_hash(salt: u64, value: u64) -> u32 {
    ref_value_hash(salt, value) as u32
}

fn ref_is_pure(cell: &Cell, salt: u64) -> bool {
    matches!(cell.count, 1 | -1) && cell.check_sum == ref_check_hash(salt, cell.key_sum)
}

/// Fold `value` with `sign` into the first `copies` of its `k` cells:
/// `Iblt::insert` is `(1, k)`, `erase` `(-1, k)`, `insert_partial(v, c)`
/// `(1, c)`.
pub fn ref_iblt_apply(cells: &mut [Cell], k: u32, salt: u64, value: u64, sign: i32, copies: u32) {
    let part = cells.len() / k as usize;
    let check = ref_check_hash(salt, value);
    for i in 0..k.min(copies) {
        cells[ref_cell_index(salt, part, i, value)].apply(value, check, sign);
    }
}

/// The element-at-a-time peel, in place: a freshly allocated `HashSet` of
/// decoded values, a new `Vec` of the value's `k` cell indexes per removal
/// and one scalar purity check per touched cell — in the exact worklist
/// order of `Iblt::peel_in_place`, so results (including element order) and
/// the remainder left in `cells` must match bit for bit.
pub fn ref_peel_cells(cells: &mut [Cell], k: u32, salt: u64) -> Result<DecodeResult, DecodeError> {
    let part = cells.len() / k as usize;
    let mut result = DecodeResult::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: Vec<usize> =
        (0..cells.len()).filter(|&i| ref_is_pure(&cells[i], salt)).collect();
    while let Some(idx) = queue.pop() {
        let cell = cells[idx];
        if !ref_is_pure(&cell, salt) {
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
            if ref_is_pure(&cells[i], salt) {
                queue.push(i);
            }
        }
    }
    result.complete = cells.iter().all(|c| c.is_empty_cell());
    Ok(result)
}

/// The allocating receiver decode step: build the difference table
/// cell-wise (what `subtract` does), then [`ref_peel_cells`] it.
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
    let mut cells: Vec<Cell> =
        sender.cells().iter().zip(local.cells()).map(|(a, b)| a.subtract(b)).collect();
    ref_peel_cells(&mut cells, sender.hash_count(), sender.salt())
}

// ---------------------------------------------------------------------------
// Candidate set (a hash map by short ID, then its values collected and sorted)
// ---------------------------------------------------------------------------

/// The receiver's candidate set as a `HashMap<u64, TxId>` keyed by short
/// ID, filled in pool order — the later of two ids sharing a short ID
/// stays, and two different ones raise the collision flag — then emptied
/// into a `Vec` and sorted for the Merkle check: the candidates in txid
/// order, and the flag.
pub fn ref_candidates(survivors: impl Iterator<Item = Digest>) -> (Vec<Digest>, bool) {
    let mut by_short: HashMap<u64, Digest> = HashMap::new();
    let mut collision = false;
    for id in survivors {
        if let Some(prev) = by_short.insert(short_id_8(&id), id) {
            collision |= prev != id;
        }
    }
    let mut ids: Vec<Digest> = by_short.values().copied().collect();
    ids.sort();
    (ids, collision)
}

// ---------------------------------------------------------------------------
// Mempool confirm (copy the whole pool, then remove id by id)
// ---------------------------------------------------------------------------

/// `confirm` on a pool that shares its storage, as the sequential removes
/// it is defined by: the first removal deep-copies every transaction and
/// the slot index, each later one is a `swap_remove` there. (The
/// `shrink_to_fit` that used to follow is not reachable from outside the
/// crate; it rehashed what was left and moved no element.)
pub fn ref_confirm_shared(pool: &Mempool, block_ids: &[Digest]) -> Mempool {
    let mut left = pool.clone();
    for id in block_ids {
        left.remove(id);
    }
    left
}

// ---------------------------------------------------------------------------
// GCS (scalar hashing, the whole Golomb-Rice stream decoded on every query)
// ---------------------------------------------------------------------------

/// The textbook Golomb-coded set: same construction as
/// `graphene_bloom::Gcs`, but every id is hashed on its own and `contains`
/// re-decodes the entire stream per query.
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

    /// Decode everything, then binary search.
    pub fn contains(&self, id: &Digest) -> bool {
        let target = gcs_hash_to_range(self.salt, id, gcs_range(self.n, self.fpr));
        self.decode().binary_search(&target).is_ok()
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
// Merkle root (one node at a time through the streaming hasher, a fresh Vec
// per level)
// ---------------------------------------------------------------------------

/// The pairwise Merkle fold: each node is `sha256d` over the 64 concatenated
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

// ---------------------------------------------------------------------------
// Event queue (one global binary heap)
// ---------------------------------------------------------------------------

/// The simulator's original future-event list: a single `BinaryHeap`
/// popping ascending `(at, seq)`, `seq` the insertion counter; scheduling
/// in the past clamps to `now` and is counted. `EventQueue` (the timing
/// wheel) must pop every schedule in exactly this order.
#[derive(Default)]
pub struct ReferenceQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: SimTime,
    clamped: u64,
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap; tie-break on insertion order for determinism.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl ReferenceQueue {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        ReferenceQueue::default()
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (clamped to now); `true`
    /// when clamped.
    pub fn schedule(&mut self, at: SimTime, event: Event) -> bool {
        let clamped = at < self.now;
        self.clamped += clamped as u64;
        self.seq += 1;
        self.heap.push(Scheduled { at: at.max(self.now), seq: self.seq, event });
        clamped
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Cumulative count of past-time schedules clamped to `now`.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }
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
