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
//! That chain has one definition, `graphene_hashes::walk_chain`, a walk
//! over an id's indexes with a visitor: inserting sets the bits it visits,
//! probing tests them, and the single-id forms are the batch forms over a
//! slice of one. The insert hands its ids to
//! `graphene_hashes::bloom_indexes_by`, which on an AVX-512 host hashes 16
//! ids a pass and derives every index along the chain in registers, and
//! sets each bit it is given here. Every batch form also comes as `*_by`, which reads the id
//! out of each item of any slice — a block's or a mempool's
//! `&[Transaction]` — so no caller copies ids out to call a filter.
//!
//! # The mempool pass
//!
//! A receiver puts her whole mempool through the sender's filter (§6.3),
//! nearly all of it non-members. The probe hands its bit words to
//! `graphene_hashes::probe_by`, which runs the pass in two stages —
//! `h1` and index 0 for every id, the rest of the chain for the survivors
//! — on AVX-512 where CPUID reports it and on the portable lane kernel
//! elsewhere. None of this changes an index: bits and answers are those of
//! the element-at-a-time oracle both kernels are tested against, `RefBloom`
//! in `graphene-bench`.
//!
//! A pass of many ids is split across the cores the host grants
//! (`std::thread::available_parallelism`, read once): into
//! `min(cores, ids / MIN_RUN)` contiguous runs of whole 256-id tiles, the
//! first on the calling thread and each other on a scoped thread, each
//! setting its own words of the one answer vector. A scoped thread, not a
//! pool: a worker that outlives the call cannot borrow the mempool without
//! `unsafe`. A run whose thread fails to start is probed on the calling
//! thread. Each id's answer depends on that id alone, so the answers
//! cannot depend on the number of runs; a block-sized probe, and a pool
//! short of `2 · MIN_RUN` ids, stays on one thread.

use crate::bitvec::BitVec;
use crate::params::{bloom_bits, optimal_hash_count, theoretical_fpr};
use crate::Membership;
use graphene_hashes::probe::TILE;
use graphene_hashes::{
    bloom_indexes_by, probe_by, Avx512, Cpu, Digest, FastRem, FilterBits, SipKey,
};
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// The fewest ids a run of a split probe is given. A scoped spawn and join
/// costs about 50 µs against 12–17 ns an id: split in two, 4 096 ids ran
/// 1.3–1.4× as long and 8 192 ids 0.75–0.97× (EXPERIMENTS.md), so a pass
/// of fewer than twice this — every block, a synced pool of a few
/// thousand — stays on one thread.
const MIN_RUN: usize = 8192;

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
        self.insert_batch_on(Cpu::detect().avx512, items, id_of);
    }

    /// [`BloomFilter::insert_batch_by`] on the AVX-512 kernel if `simd`
    /// holds its token, else on the portable one, rather than the one the
    /// host picks: the tests hold every kernel the host can run to the
    /// oracle. Either hands each index to one bit set here.
    pub fn insert_batch_on<T>(
        &mut self,
        simd: Option<Avx512>,
        items: &[T],
        id_of: impl Fn(&T) -> &Digest,
    ) {
        self.inserted += items.len();
        if self.bits.is_empty() {
            return;
        }
        let m = FastRem::new(self.bits.len() as u64);
        let bits = &mut self.bits;
        bloom_indexes_by(simd, hash_key(self.salt), m, self.k, items, id_of, |bit| bits.set(bit));
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
    pub fn contains_batch_by<T: Sync>(
        &self,
        items: &[T],
        id_of: impl Fn(&T) -> &Digest + Sync,
    ) -> BitVec {
        self.contains_batch_on(Cpu::detect().avx512, items, id_of)
    }

    /// [`BloomFilter::contains_batch_by`] on the AVX-512 kernel if `simd`
    /// holds its token, else on the portable one, rather than the one the
    /// host picks: the tests hold every kernel the host can run to the
    /// oracle. A long slice is probed in runs on several cores (see the
    /// module docs), so `items` and `id_of` are shared across threads.
    pub fn contains_batch_on<T: Sync>(
        &self,
        simd: Option<Avx512>,
        items: &[T],
        id_of: impl Fn(&T) -> &Digest + Sync,
    ) -> BitVec {
        self.contains_batch_in_runs(simd, items, id_of, runs_for(items.len()))
    }

    /// [`BloomFilter::contains_batch_on`] in at most `runs` runs, whatever
    /// the host's cores: the tests force every split through here.
    pub(crate) fn contains_batch_in_runs<T: Sync>(
        &self,
        simd: Option<Avx512>,
        items: &[T],
        id_of: impl Fn(&T) -> &Digest + Sync,
        runs: usize,
    ) -> BitVec {
        let mut out = BitVec::new(items.len());
        match self.filter_bits() {
            Some(bits) => {
                probe_runs(simd, bits, items, &id_of, out.words_mut(), runs, thread::Builder::new)
            }
            // The degenerate match-everything filter has no indexes to probe.
            None => out.fill_ones(),
        }
        out
    }

    /// The bit array as the probe kernels read it; `None` for the
    /// match-everything filter, which has no bits.
    fn filter_bits(&self) -> Option<FilterBits<'_>> {
        let len = self.bits.len();
        (len > 0).then(|| FilterBits::new(hash_key(self.salt), self.bits.words(), len, self.k))
    }
}

/// The runs a probe of `ids` ids is split into: one a core, each of at
/// least [`MIN_RUN`] ids. The cores are read once, and only by a pass long
/// enough to split.
fn runs_for(ids: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    match ids / MIN_RUN {
        0 | 1 => 1,
        most => most.min(
            *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get)),
        ),
    }
}

/// Probe `items` through `bits` into `words` (bit `j` for `items[j]`) in at
/// most `runs` contiguous runs of whole tiles: the first on this thread,
/// each other on a scoped thread `builder` makes. A run whose thread fails
/// to start is probed here after the others, with every run after it.
fn probe_runs<T: Sync>(
    simd: Option<Avx512>,
    bits: FilterBits,
    items: &[T],
    id_of: &(impl Fn(&T) -> &Digest + Sync),
    words: &mut [u64],
    runs: usize,
    builder: fn() -> thread::Builder,
) {
    // A multiple of `TILE`, so of 64: every run owns whole words.
    let per_run = items.len().div_ceil(TILE).div_ceil(runs.max(1)) * TILE;
    if per_run >= items.len() {
        return probe_run(simd, bits, items, id_of, words);
    }
    let unprobed = thread::scope(|s| {
        let (first, rest) = items.split_at(per_run);
        let (first_words, rest_words) = words.split_at_mut(per_run / 64);
        let mut started = per_run;
        for (run, run_words) in rest.chunks(per_run).zip(rest_words.chunks_mut(per_run / 64)) {
            let worker = move || probe_run(simd, bits, run, id_of, run_words);
            if builder().spawn_scoped(s, worker).is_err() {
                break;
            }
            started += run.len();
        }
        probe_run(simd, bits, first, id_of, first_words);
        started
    });
    if unprobed < items.len() {
        probe_run(simd, bits, &items[unprobed..], id_of, &mut words[unprobed / 64..]);
    }
}

/// One run of the pass: bit `j` of `words` for `items[j]`.
fn probe_run<T>(
    simd: Option<Avx512>,
    bits: FilterBits,
    items: &[T],
    id_of: impl Fn(&T) -> &Digest,
    words: &mut [u64],
) {
    probe_by(simd, bits, items, id_of, |j| words[j / 64] |= 1 << (j % 64));
}

/// The SipHash key of a filter salted `salt`.
fn hash_key(salt: u64) -> SipKey {
    SipKey::new(salt, 0x5350_4c49_5431)
}

impl Membership for BloomFilter {
    /// [`BloomFilter::contains_batch`] over a slice of one, without the mask.
    fn contains(&self, id: &Digest) -> bool {
        self.filter_bits().is_none_or(|bits| {
            let mut hit = false;
            probe_by(
                Cpu::detect().avx512,
                bits,
                core::slice::from_ref(id),
                |id| id,
                |_| hit = true,
            );
            hit
        })
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

    /// Every split of the pass, one to four runs whatever the host's cores,
    /// answers as the oracle does on every kernel the host has: over pool
    /// lengths around a word, a tile, a run's minimum and its multiples,
    /// with ids in `&[Digest]` and read out of larger items, and for the
    /// match-everything filter. The answer vectors are compared whole, so
    /// the bits above each length stay 0 too.
    #[test]
    fn every_split_matches_reference() {
        use graphene_bench::reference::{every_sketch_kernel, RefBloom};
        let lens = [0, 1, 63, 64, 255, 256, 257, MIN_RUN - 1, MIN_RUN, MIN_RUN + 1]
            .into_iter()
            .chain([2 * MIN_RUN - 1, 2 * MIN_RUN, 2 * MIN_RUN + 1, 3 * MIN_RUN + 17]);
        let members = ids(3000, 10);
        // A member at every seventh position, the rest others.
        let pool: Vec<Digest> = ids(3 * MIN_RUN + 17, 11)
            .into_iter()
            .enumerate()
            .map(|(j, id)| if j % 7 == 0 { members[j / 7 % members.len()] } else { id })
            .collect();
        let tagged: Vec<(u32, Digest)> = pool.iter().map(|id| (7, *id)).collect();
        let kernels = every_sketch_kernel("every_split_matches_reference");
        for fpr in [0.05, 1.0] {
            let mut f = BloomFilter::new(members.len(), fpr, 12);
            f.insert_batch(&members);
            let mut r = RefBloom::new(members.len(), fpr, 12);
            members.iter().for_each(|id| r.insert(id));
            assert_eq!(f.bit_vec().words(), r.bits().words(), "fpr {fpr}");
            for len in lens.clone() {
                let mut want = BitVec::new(len);
                (0..len).filter(|&j| r.contains(&pool[j])).for_each(|j| want.set(j));
                for &kernel in &kernels {
                    for runs in 1..=4 {
                        let what = format!("{kernel:?}, fpr {fpr}, {len} ids, {runs} runs");
                        let by_id = f.contains_batch_in_runs(kernel, &pool[..len], |id| id, runs);
                        assert!(by_id == want, "{what}");
                        let by_item =
                            f.contains_batch_in_runs(kernel, &tagged[..len], |t| &t.1, runs);
                        assert!(by_item == want, "{what}, ids in items");
                    }
                }
            }
        }
    }

    /// A run whose thread cannot start is probed on the calling thread:
    /// with every spawn refused (a stack larger than any address space),
    /// a four-way split still answers every id.
    #[test]
    fn a_refused_spawn_is_probed_inline() {
        let refusing = || thread::Builder::new().stack_size(usize::MAX / 4);
        assert!(refusing().spawn(|| ()).is_err(), "a {} B stack started", usize::MAX / 4);
        let members = ids(500, 13);
        let mut f = BloomFilter::new(members.len(), 0.1, 14);
        f.insert_batch(&members);
        let mut pool = ids(4 * TILE + 5, 15);
        pool[..members.len()].copy_from_slice(&members);
        let want = f.contains_batch_in_runs(None, &pool, |id| id, 1);
        assert!(want.count_ones() >= members.len());
        let bits = f.filter_bits().expect("a filter with bits");
        for simd in [None, Cpu::detect().avx512] {
            let mut got = BitVec::new(pool.len());
            probe_runs(simd, bits, &pool, &|id| id, got.words_mut(), 4, refusing);
            assert!(got == want, "{simd:?}");
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(100, 0.01, 0);
        let misses = ids(1000, 9).iter().filter(|id| f.contains(id)).count();
        assert_eq!(misses, 0, "an empty filter must reject essentially all probes");
    }
}
