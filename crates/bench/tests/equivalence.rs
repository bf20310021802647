//! Batch-kernel equivalence: every batched API — `insert_batch` /
//! `contains_batch` on the Bloom filter, `insert_batch` / `contains_batch`
//! on the GCS, and the partitioned IBLT peel — must be *bit-identical* to
//! the element-at-a-time reference loops kept in
//! [`graphene_bench::reference`]. Identical bits and bytes, identical
//! answers, identical output *order*, identical peel remainders; batching
//! is a speed lever, never a behavior change.
//!
//! Edge cases the generators and unit tests pin explicitly: empty batches,
//! single-element batches, and batches with duplicate keys.

use graphene_bench::reference::{ref_peel_cells, ref_peel_cells_with_remainder, RefBloom, RefGcs};
use graphene_bloom::{
    bitvec::BitVec, BloomFilter, GcsBuilder, HashStrategy, Membership, ProbeScratch,
};
use graphene_hashes::{sha256, Digest};
use graphene_iblt::{Iblt, PeelScratch};
use proptest::prelude::*;

fn digests(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

/// A batch of ids with duplicates sprinkled in: `n` distinct digests plus
/// `dups` repeats of already-present ids, order-shuffled deterministically
/// by interleaving.
fn batch_with_dups(n: usize, dups: usize, tag: u64) -> Vec<Digest> {
    let base = digests(n, tag);
    let mut out = Vec::with_capacity(n + dups);
    for (i, id) in base.iter().enumerate() {
        out.push(*id);
        if i < dups && !base.is_empty() {
            out.push(base[(i * 7) % base.len()]);
        }
    }
    for i in out.len()..n + dups {
        if let Some(&id) = base.get(i % n.max(1)) {
            out.push(id);
        }
    }
    out
}

proptest! {
    /// `insert_batch` sets exactly the bits the scalar loop sets (both
    /// strategies, duplicates included), and `contains_batch` /
    /// `contains_batch_with` answer every probe exactly as scalar
    /// `contains` — against both the production scalar path and the
    /// pre-optimization reference.
    #[test]
    fn bloom_batch_matches_scalar(
        n in 0usize..250,
        dups in 0usize..20,
        fpr in 0.001f64..0.5,
        salt: u64,
        kpiece: bool,
    ) {
        let strategy = if kpiece { HashStrategy::KPiece } else { HashStrategy::DoubleHashing };
        let set = batch_with_dups(n, dups.min(n), salt);
        let probes = {
            let mut p = digests(100, salt ^ 0xabcd);
            p.extend(set.iter().take(20)); // members among the probes
            p
        };

        let mut batched = BloomFilter::with_strategy(n.max(1), fpr, salt, strategy);
        batched.insert_batch(&set);
        let mut scalar = BloomFilter::with_strategy(n.max(1), fpr, salt, strategy);
        let mut reference = RefBloom::with_strategy(n.max(1), fpr, salt, strategy);
        for id in &set {
            scalar.insert(id);
        }
        reference.insert_batch(&set);
        prop_assert_eq!(batched.bit_vec().to_bytes(), scalar.bit_vec().to_bytes());
        prop_assert_eq!(batched.bit_vec().to_bytes(), reference.bit_bytes());

        let hits = batched.contains_batch(&probes);
        prop_assert_eq!(hits.len(), probes.len());
        let ref_hits = reference.contains_batch(&probes);
        for (j, id) in probes.iter().enumerate() {
            prop_assert_eq!(hits.get(j), scalar.contains(id));
            prop_assert_eq!(hits.get(j), ref_hits[j]);
        }

        // The scratch-reusing entry point agrees too, with dirty scratch
        // and a dirty output mask carried over from a previous batch.
        let mut scratch = ProbeScratch::default();
        let mut out = BitVec::new(probes.len());
        batched.contains_batch_with(&probes, &mut out, &mut scratch);
        prop_assert_eq!(&out, &hits);
        batched.contains_batch_with(&set, &mut BitVec::new(set.len()), &mut scratch);
        let mut again = BitVec::new(probes.len());
        batched.contains_batch_with(&probes, &mut again, &mut scratch);
        prop_assert_eq!(&again, &out);
    }

    /// A GCS built through `insert_batch` serializes byte-identically to
    /// one built one insert at a time, and `contains_batch` answers every
    /// query exactly as scalar `contains` on both the production set and
    /// the decode-per-query reference.
    #[test]
    fn gcs_batch_matches_scalar(
        n in 0usize..250,
        dups in 0usize..20,
        fpr in 0.001f64..0.3,
        salt: u64,
    ) {
        let set = batch_with_dups(n, dups.min(n), salt);
        let probes = {
            let mut p = digests(100, salt ^ 0x6c5);
            p.extend(set.iter().take(20));
            p
        };

        let mut b_batch = GcsBuilder::new(n.max(1), fpr, salt);
        b_batch.insert_batch(&set);
        let g_batch = b_batch.build();
        let mut b_scalar = GcsBuilder::new(n.max(1), fpr, salt);
        for id in &set {
            b_scalar.insert(id);
        }
        let g_scalar = b_scalar.build();
        let reference = RefGcs::build(&set, n.max(1), fpr, salt);
        prop_assert_eq!(g_batch.data(), g_scalar.data());
        prop_assert_eq!(g_batch.data(), reference.data());
        prop_assert_eq!(g_batch.len(), g_scalar.len());

        let hits = g_batch.contains_batch(&probes);
        let ref_hits = reference.contains_batch(&probes);
        prop_assert_eq!(hits.len(), probes.len());
        for (j, id) in probes.iter().enumerate() {
            prop_assert_eq!(hits.get(j), g_scalar.contains(id));
            prop_assert_eq!(hits.get(j), ref_hits[j]);
        }
    }

    /// The partitioned peel recovers exactly what the element-at-a-time
    /// reference recovers — same values, same element order, same
    /// completeness verdict — and leaves the identical cell-array
    /// remainder when the decode is partial (undersized tables included,
    /// so the 2-core path is exercised, not just clean completions).
    #[test]
    fn iblt_partitioned_peel_matches_reference(
        only_a in 0usize..30,
        only_b in 0usize..30,
        shared in 0usize..60,
        k in 2u32..6,
        space in 1usize..5, // cells per difference element (1 ⇒ often partial)
        salt: u64,
    ) {
        let cells = ((only_a + only_b).max(1) * space).max(k as usize);
        let mut a = Iblt::new(cells, k, salt);
        let mut b = Iblt::new(cells, k, salt);
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
        let diff = a.subtract(&b).unwrap();

        let (reference, remainder) =
            ref_peel_cells_with_remainder(diff.cells().to_vec(), diff.hash_count(), diff.salt());
        let mut scratch = PeelScratch::new();
        let mut peeled = diff.clone();
        let optimized = peeled.peel_in_place(&mut scratch);
        prop_assert_eq!(&reference, &optimized);
        prop_assert_eq!(remainder.as_slice(), peeled.cells());

        // Reusing the same scratch (stale generation stamps, leftover
        // queue capacity) must not perturb a second, different peel.
        let mut again = diff.clone();
        let reused = again.peel_in_place(&mut scratch);
        prop_assert_eq!(&reference, &reused);
        prop_assert_eq!(again.cells(), peeled.cells());
    }
}

/// Duplicate *difference* values: a value inserted twice on one side is not
/// a pure cell at count 2, so both peels must agree on skipping it (and on
/// the resulting incompleteness), cell for cell.
#[test]
fn iblt_duplicate_insert_matches_reference() {
    for k in [2u32, 3, 4] {
        let mut a = Iblt::new(24, k, 0xd0b);
        let mut b = Iblt::new(24, k, 0xd0b);
        a.insert(42);
        a.insert(42); // duplicate key
        a.insert(7);
        b.insert(9);
        let diff = a.subtract(&b).unwrap();
        let (reference, remainder) = ref_peel_cells_with_remainder(diff.cells().to_vec(), k, 0xd0b);
        let mut peeled = diff.clone();
        let optimized = peeled.peel_in_place(&mut PeelScratch::new());
        assert_eq!(reference, optimized);
        assert_eq!(remainder.as_slice(), peeled.cells());
    }
}

/// Empty and single-element batches, pinned explicitly (the proptest
/// generators reach them, but these must never regress to "shrunk away").
#[test]
fn empty_and_single_batches() {
    let one = digests(1, 3);
    for strategy in [HashStrategy::DoubleHashing, HashStrategy::KPiece] {
        let mut f = BloomFilter::with_strategy(8, 0.02, 5, strategy);
        f.insert_batch(&[]);
        let mut g = BloomFilter::with_strategy(8, 0.02, 5, strategy);
        assert_eq!(f.bit_vec().to_bytes(), g.bit_vec().to_bytes());
        assert_eq!(f.contains_batch(&[]).len(), 0);
        f.insert_batch(&one);
        g.insert(&one[0]);
        assert_eq!(f.bit_vec().to_bytes(), g.bit_vec().to_bytes());
        let hits = f.contains_batch(&one);
        assert_eq!(hits.len(), 1);
        assert!(hits.get(0));
    }

    let mut b = GcsBuilder::new(1, 0.02, 5);
    b.insert_batch(&[]);
    let empty = b.build();
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.contains_batch(&[]).len(), 0);
    let mut b = GcsBuilder::new(1, 0.02, 5);
    b.insert_batch(&one);
    let single = b.build();
    let mut b = GcsBuilder::new(1, 0.02, 5);
    b.insert(&one[0]);
    assert_eq!(single.data(), b.build().data());
    assert!(single.contains_batch(&one).get(0));

    let mut empty_iblt = Iblt::new(12, 3, 1);
    let r = empty_iblt.peel_in_place(&mut PeelScratch::new()).unwrap();
    assert!(r.complete && r.is_empty());
    assert_eq!(ref_peel_cells(vec![Default::default(); 12], 3, 1).unwrap(), r);
}

/// A filter big enough to cross the sorted-probe threshold (`≥ 512 KiB` of
/// bits) must still answer identically to the scalar loop — this pins the
/// word-sorted gather path the proptest sizes cannot reach.
#[test]
fn bloom_batch_sorted_path_matches_scalar() {
    let n = 600_000;
    let f_salt = 0xb16;
    let mut f = BloomFilter::with_strategy(n, 0.001, f_salt, HashStrategy::DoubleHashing);
    let members = digests(500, 11);
    f.insert_batch(&members);
    let mut probes = digests(1500, 13);
    probes.extend(members.iter().copied());
    let hits = f.contains_batch(&probes);
    for (j, id) in probes.iter().enumerate() {
        assert_eq!(hits.get(j), f.contains(id), "probe {j} diverged on the sorted path");
    }
    assert!(members.iter().all(|id| f.contains(id)));
}
