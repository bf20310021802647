//! Production-vs-oracle equivalence, one suite for every primitive.
//!
//! Each sketch primitive exists exactly twice: the production path (a lane
//! kernel, a cache, a timing wheel) and a textbook oracle in
//! [`graphene_bench::reference`]. The production path must be
//! *bit-identical* to its oracle — same filter bits, same cells, same
//! decoded values in the same order, same peel remainder, same pop order —
//! at batch width one and at every wider width, and a set of committed
//! golden vectors pins the exact bytes so a behavior change cannot hide
//! behind a matching pair of bugs.
//!
//! Edge cases pinned explicitly: empty batches, single-element batches,
//! batches with duplicate keys, hash counts from one to the wire format's
//! 255, the match-everything filter, filters of one bit and of `2^32 − 1`,
//! index chains that wrap 2^64 at nearly every step, and the stage and tile
//! boundaries of the filter's two-stage probe.

use graphene_bench::reference::{
    ref_confirm_shared, ref_iblt_apply, ref_merkle_root, ref_mix64, ref_peel_cells,
    ref_subtract_peel, RefBloom, RefGcs, ReferenceQueue,
};
use graphene_blockchain::{Mempool, Transaction};
use graphene_bloom::{bitvec::BitVec, BloomFilter, GcsBuilder, HashStrategy, Membership};
use graphene_hashes::{hex, merkle_root, sha256, short_id_8, siphash24, Digest, SipKey};
use graphene_iblt::{Cell, Iblt, PeelScratch};
use graphene_netsim::event::{Event, EventQueue};
use graphene_netsim::{PeerId, SimTime};
use graphene_wire::Encode;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt};

fn digests(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

/// `n` distinct digests with `dups` repeats of already-present ids
/// interleaved among them.
fn batch_with_dups(n: usize, dups: usize, tag: u64) -> Vec<Digest> {
    let base = digests(n, tag);
    let mut out = Vec::with_capacity(n + dups);
    for (i, id) in base.iter().enumerate() {
        out.push(*id);
        if i < dups {
            out.push(base[(i * 7) % n]);
        }
    }
    out
}

/// Hash counts from a single partition through the parameter table's 12 to
/// the wire format's 255, with both sides of 8 — no index of a value may
/// depend on how many a lane call holds.
const IBLT_KS: [u32; 11] = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 255];

/// `h2 = mix64(h1) | 1` of an id in a filter salted `salt`, as the oracle
/// derives it.
fn bloom_h2(salt: u64, id: &Digest) -> u64 {
    ref_mix64(siphash24(SipKey::new(salt, 0x5350_4c49_5431), &id.0)) | 1
}

/// The oracle's table: `Iblt::new`'s geometry, filled by [`ref_iblt_apply`].
fn ref_cells(like: &Iblt) -> Vec<Cell> {
    vec![Cell::default(); like.cell_count()]
}

proptest! {
    /// `insert_batch`, and `insert` one id at a time, set exactly the bits
    /// the oracle sets (duplicates included);
    /// `contains_batch` and `contains` answer every probe exactly as the
    /// oracle does.
    #[test]
    fn bloom_matches_reference(
        n in 0usize..300,
        dups in 0usize..20,
        fpr in 0.001f64..0.5,
        salt: u64,
    ) {
        let set = batch_with_dups(n, dups.min(n), salt);
        let mut probes = digests(200, salt ^ 0xabcd);
        probes.extend(set.iter().take(20)); // members among the probes

        let mut batched = BloomFilter::new(n.max(1), fpr, salt);
        batched.insert_batch(&set);
        let mut single = BloomFilter::new(n.max(1), fpr, salt);
        let mut reference = RefBloom::new(n.max(1), fpr, salt);
        prop_assert_eq!(batched.hash_count(), reference.hash_count());
        for id in &set {
            single.insert(id);
            reference.insert(id);
        }
        prop_assert_eq!(batched.bit_vec().to_bytes(), reference.bit_bytes());
        prop_assert_eq!(single.bit_vec().to_bytes(), reference.bit_bytes());
        prop_assert_eq!(batched.inserted(), single.inserted());

        let hits = batched.contains_batch(&probes);
        prop_assert_eq!(hits.len(), probes.len());
        for (j, id) in probes.iter().enumerate() {
            prop_assert_eq!(hits.get(j), reference.contains(id));
            prop_assert_eq!(batched.contains(id), reference.contains(id));
        }
    }

    /// A GCS built through `insert_batch`, or one `insert` at a time,
    /// serializes byte-identically to the oracle's, and `contains_batch` /
    /// `contains` answer every query exactly as the decode-per-query oracle.
    #[test]
    fn gcs_matches_reference(
        n in 0usize..300,
        dups in 0usize..20,
        fpr in 0.001f64..0.3,
        salt: u64,
    ) {
        let set = batch_with_dups(n, dups.min(n), salt);
        let mut probes = digests(200, salt ^ 0x6c5);
        probes.extend(set.iter().take(20));

        let mut b_batch = GcsBuilder::new(n.max(1), fpr, salt);
        b_batch.insert_batch(&set);
        let g_batch = b_batch.build();
        let mut b_single = GcsBuilder::new(n.max(1), fpr, salt);
        for id in &set {
            b_single.insert(id);
        }
        let g_single = b_single.build();
        let reference = RefGcs::build(&set, n.max(1), fpr, salt);
        prop_assert_eq!(g_batch.data(), reference.data());
        prop_assert_eq!(g_single.data(), reference.data());
        prop_assert_eq!(g_batch.len(), reference.len());

        let hits = g_batch.contains_batch(&probes);
        prop_assert_eq!(hits.len(), probes.len());
        for (j, id) in probes.iter().enumerate() {
            prop_assert_eq!(hits.get(j), reference.contains(id));
            prop_assert_eq!(g_single.contains(id), reference.contains(id));
        }
    }

    /// `insert` / `erase` / `insert_partial` touch exactly the oracle's
    /// cells; the three subtraction paths agree; and the peel recovers
    /// exactly what the element-at-a-time oracle recovers — same values,
    /// same element order, same completeness verdict, same remainder
    /// (undersized tables included, so the 2-core path is exercised) —
    /// with a fresh scratch or a reused one, for every hash count of
    /// [`IBLT_KS`].
    #[test]
    fn iblt_matches_reference(
        only_a in 0usize..30,
        only_b in 0usize..30,
        shared in 0usize..60,
        k_pick in 0usize..IBLT_KS.len(),
        space in 1usize..5, // cells per difference element (1 ⇒ often partial)
        partial: u32,
        salt: u64,
    ) {
        let k = IBLT_KS[k_pick];
        let cells = (only_a + only_b).max(1) * space;
        let mut a = Iblt::new(cells, k, salt);
        let mut b = Iblt::new(cells, k, salt);
        let (mut ref_a, mut ref_b) = (ref_cells(&a), ref_cells(&b));
        let base = 1_000_000u64;
        for i in 0..shared as u64 {
            a.insert(base + i);
            b.insert(base + i);
            ref_iblt_apply(&mut ref_a, k, salt, base + i, 1, k);
            ref_iblt_apply(&mut ref_b, k, salt, base + i, 1, k);
        }
        for i in 0..only_a as u64 {
            a.insert(2 * base + i);
            ref_iblt_apply(&mut ref_a, k, salt, 2 * base + i, 1, k);
        }
        for i in 0..only_b as u64 {
            // Erased from the left is the same difference as inserted on
            // the right; alternate so both entry points are compared.
            if i % 2 == 0 {
                b.insert(3 * base + i);
                ref_iblt_apply(&mut ref_b, k, salt, 3 * base + i, 1, k);
            } else {
                a.erase(3 * base + i);
                ref_iblt_apply(&mut ref_a, k, salt, 3 * base + i, -1, k);
            }
        }
        // Every fourth case plants a §6.1 phantom in some of its cells.
        if partial.is_multiple_of(4) {
            a.insert_partial(4 * base, partial % (k + 2));
            ref_iblt_apply(&mut ref_a, k, salt, 4 * base, 1, partial % (k + 2));
        }
        prop_assert_eq!(a.cells(), ref_a.as_slice());
        prop_assert_eq!(b.cells(), ref_b.as_slice());

        // subtract == subtract_into == subtract_from, cell for cell.
        let diff = a.subtract(&b).unwrap();
        let mut into = Iblt::new(1, 1, 0);
        a.subtract_into(&b, &mut into).unwrap();
        prop_assert_eq!(&into, &diff);
        let mut from = b.clone();
        from.subtract_from(&a).unwrap();
        prop_assert_eq!(&from, &diff);

        let mut remainder = diff.cells().to_vec();
        let reference = ref_peel_cells(&mut remainder, k, salt);
        prop_assert_eq!(&reference, &ref_subtract_peel(&a, &b));
        let mut scratch = PeelScratch::new();
        let mut peeled = diff.clone();
        prop_assert_eq!(&reference, &peeled.peel_in_place(&mut scratch));
        prop_assert_eq!(remainder.as_slice(), peeled.cells());
        let mut plain = diff.clone();
        prop_assert_eq!(&reference, &plain.peel());
        prop_assert_eq!(plain.to_bytes(), peeled.to_bytes());

        // Reusing the same scratch (stale generation stamps, leftover
        // queue capacity) must not perturb a second peel.
        let mut again = diff.clone();
        prop_assert_eq!(&reference, &again.peel_in_place(&mut scratch));
        prop_assert_eq!(again.cells(), peeled.cells());
    }

    /// The level-per-pass Merkle root equals the pairwise scalar fold at
    /// block sizes past the exhaustive range below.
    #[test]
    fn merkle_root_matches_reference(n in 131usize..5001, salt: u64) {
        let ids = digests(n, salt);
        prop_assert_eq!(merkle_root(&ids), ref_merkle_root(&ids));
    }

    /// `confirm` on shared storage leaves exactly what the sequential
    /// removes leave, in the same iteration order: a pool with holes already
    /// punched in it, confirmed against ids that are pooled, absent and
    /// repeated, in any order.
    #[test]
    fn confirm_shared_matches_reference(
        m in 0u64..40,
        punched in proptest::collection::vec(0u64..40, 0..6),
        confirmed in proptest::collection::vec(0u64..48, 0..60),
    ) {
        let tx = |i: u64| Transaction::new(i.to_le_bytes().to_vec());
        let mut base: Mempool = (0..m).map(tx).collect();
        for i in punched {
            base.remove(tx(i).id());
        }
        let ids: Vec<Digest> = confirmed.iter().map(|&i| *tx(i).id()).collect();
        let reference = ref_confirm_shared(&base, &ids);
        let before = base.txns().to_vec();
        let mut shared = base.clone();
        shared.confirm(&ids);
        prop_assert_eq!(shared.txns(), reference.txns());
        prop_assert_eq!(shared.sorted_ids(), reference.sorted_ids());
        for id in &ids {
            prop_assert!(!shared.contains(id) && shared.get(id).is_none());
        }
        for kept in shared.txns() {
            prop_assert_eq!(shared.get(kept.id()), Some(kept));
        }
        prop_assert_eq!(base.txns(), &before[..], "the sibling must be untouched");
    }

    /// The timing wheel pops exactly like the heap: same pop order, same
    /// clamp decisions, same clock, under any interleaving of schedules and
    /// pops. The determinism contract — pop strictly ascending `(at, seq)`,
    /// past-time schedules clamped to `now` and reported — is what makes
    /// sweep CSVs byte-identical across thread counts.
    #[test]
    fn wheel_pops_exactly_like_the_heap(ops in proptest::collection::vec(QueueOps, 1..250)) {
        let mut wheel = EventQueue::new();
        let mut heap = ReferenceQueue::new();
        for op in &ops {
            match *op {
                QueueOp::Schedule { offset_us, tag } => {
                    // Offsets are relative to the shared clock so pops
                    // steer where later schedules land.
                    let now = wheel.now().as_micros() as i64;
                    let at = SimTime::from_micros((now + offset_us).max(0) as u64);
                    let w = wheel.schedule(at, tagged(tag));
                    let h = heap.schedule(at, tagged(tag));
                    prop_assert_eq!(w, h, "clamp decision diverged at {:?}", at);
                }
                QueueOp::Pop => {
                    let w = wheel.pop().map(|(t, ev)| (t, tag_of(&ev)));
                    let h = heap.pop().map(|(t, ev)| (t, tag_of(&ev)));
                    prop_assert_eq!(w, h, "pop diverged");
                    prop_assert_eq!(wheel.now(), heap.now(), "clock diverged");
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "length diverged");
        }
        // Drain both to the end: the tail covers cascades armed by the
        // interleaving but never reached by its pops.
        loop {
            let w = wheel.pop().map(|(t, ev)| (t, tag_of(&ev)));
            let h = heap.pop().map(|(t, ev)| (t, tag_of(&ev)));
            prop_assert_eq!(w, h, "drain diverged");
            if h.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.clamped(), heap.clamped(), "clamp totals diverged");
    }
}

/// One step of a queue interleaving: schedule a tagged event at a relative
/// offset (possibly behind the clock), or pop the next event.
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule { offset_us: i64, tag: usize },
    Pop,
}

/// Draws ops with offsets stressing every routing tier of the wheel: the
/// current slot (<1 ms), the near wheel (<256 ms), the overflow wheel
/// (<65.536 s), the far list (beyond), and negative offsets that must
/// clamp. A third of the draws are pops so the clock advances and later
/// schedules land relative to a moving cursor.
struct QueueOps;

impl Strategy for QueueOps {
    type Value = QueueOp;

    fn generate(&self, rng: &mut StdRng) -> QueueOp {
        let offset_us = match rng.random_range(0u32..9) {
            0..=2 => return QueueOp::Pop,
            3 => -rng.random_range(1i64..2_000_000),
            4 => rng.random_range(0i64..1_000),
            5 => rng.random_range(0i64..256_000),
            6 => rng.random_range(0i64..65_536_000),
            _ => rng.random_range(0i64..200_000_000),
        };
        QueueOp::Schedule { offset_us, tag: rng.random_range(0usize..1000) }
    }
}

/// Tagged event cheap enough to schedule by the thousand.
fn tagged(tag: usize) -> Event {
    Event::Drain { peer: PeerId(tag) }
}

fn tag_of(ev: &Event) -> usize {
    match ev {
        Event::Drain { peer } => peer.0,
        other => panic!("unexpected event popped: {other:?}"),
    }
}

/// Width one, pinned explicitly: `insert` and `contains` on a single id are
/// the lane kernel with seven idle lanes, and must still be the oracle —
/// for the match-everything filter too, and for ids whose `h2` sits just
/// under 2^64 so the index chain wraps at nearly every one of its `k − 1`
/// steps.
#[test]
fn bloom_single_id_matches_reference() {
    let salt = 0x51d;
    let wrap_heavy: Vec<Digest> =
        digests(400, 17).into_iter().filter(|id| bloom_h2(salt, id) >= 0xf << 60).collect();
    assert!(wrap_heavy.len() >= 10, "only {} wrap-heavy ids", wrap_heavy.len());
    // fpr 0.0001 gives k = 13: twelve chain steps per id.
    for fpr in [0.02, 0.0001, 1.0] {
        for id in wrap_heavy.iter().chain(&digests(30, 18)) {
            let mut f = BloomFilter::new(50, fpr, salt);
            let mut r = RefBloom::new(50, fpr, salt);
            f.insert(id);
            r.insert(id);
            assert_eq!(f.bit_vec().to_bytes(), r.bit_bytes(), "fpr {fpr}");
            assert!(f.contains(id));
            for probe in &wrap_heavy {
                assert_eq!(f.contains(probe), r.contains(probe), "fpr {fpr}");
            }
        }
    }
}

/// The two-stage probe — `h1` and index 0 for a tile of ids, the other
/// `k − 1` indexes for the survivors only — answers as the oracle does,
/// through `contains_batch` and through the in-place `contains_batch_by`
/// over transactions, at every shape where a stage boundary could slip: the
/// `relay_bigpool` filter over its 60 200-id pool, `k = 1` (no `h2` at
/// all), every id surviving stage 1 and none, the match-everything filter,
/// pool lengths around the 256-id tile (a ragged survivor tail each time),
/// ids whose `h2` wraps the index chain at nearly every step, and the
/// smallest and largest arrays the wire format can name: one bit, where
/// every index is 0 whatever `h2` is, and `2^32 − 1`, where the odd `h2`
/// strides an odd modulus.
#[test]
fn bloom_two_stage_matches_reference() {
    const TILE: usize = 256; // `PROBE_TILE` in graphene-bloom
    let salt = 0x2_57a6e;
    let pool = digests(60_200, 21);
    let members = &pool[..200];
    let double = HashStrategy::DoubleHashing;
    let forged = |id: Digest| Transaction::forge_with_id(&b"body"[..], id);
    let check = |bits: &BitVec, k: u32, ids: &[Digest], what: &str| {
        let f = BloomFilter::from_parts(bits.clone(), k, 0.0, salt, double);
        let r = RefBloom::from_parts(bits.clone(), k, salt);
        let expect: Vec<bool> = ids.iter().map(|id| r.contains(id)).collect();
        let hits = f.contains_batch(ids);
        assert_eq!(hits.len(), ids.len(), "{what}");
        assert!((0..ids.len()).all(|j| hits.get(j) == expect[j]), "{what}: contains_batch");
        let txns: Vec<Transaction> = ids.iter().map(|id| forged(*id)).collect();
        let hits = f.contains_batch_by(&txns, Transaction::id);
        assert_eq!(hits.len(), ids.len(), "{what}");
        assert!((0..ids.len()).all(|j| hits.get(j) == expect[j]), "{what}: contains_batch_by");
        expect.iter().filter(|&&hit| hit).count()
    };
    let filled = |nbits: usize, k: u32| {
        let mut f = BloomFilter::from_parts(BitVec::new(nbits), k, 0.0, salt, double);
        f.insert_batch(members);
        // The in-place insert sets the oracle's bits too.
        let txns: Vec<Transaction> = members.iter().map(|id| forged(*id)).collect();
        let mut in_place = BloomFilter::from_parts(BitVec::new(nbits), k, 0.0, salt, double);
        in_place.insert_batch_by(&txns, Transaction::id);
        let mut r = RefBloom::from_parts(BitVec::new(nbits), k, salt);
        members.iter().for_each(|id| r.insert(id));
        assert_eq!(f.bit_vec().to_bytes(), r.bit_bytes());
        assert_eq!(in_place.bit_vec().to_bytes(), r.bit_bytes());
        f.bit_vec().clone()
    };

    // `S` on relay_bigpool: 4 580 bits, k = 16, 0.3 % of the pool inside.
    let bigpool = filled(4580, 16);
    let hits = check(&bigpool, 16, &pool, "relay_bigpool shape");
    assert!((200..210).contains(&hits), "{hits} hits");
    // Lengths around the tile; the members sit at the front of each.
    for len in [0, 1, 7, 8, 9, TILE - 1, TILE, TILE + 1, 2 * TILE + 5] {
        check(&bigpool, 16, &pool[..len], &format!("pool of {len}"));
        check(&bigpool, 16, &pool[60_200 - len..], &format!("last {len} of the pool"));
    }
    // One index: stage 1 is the whole probe.
    assert!(check(&filled(1500, 1), 1, &pool[..3000], "k = 1") >= 200);
    // Every id survives stage 1 and the whole walk; none survives stage 1.
    let mut ones = BitVec::new(4580);
    ones.fill_ones();
    assert_eq!(check(&ones, 16, &pool[..2 * TILE + 3], "all-ones array"), 2 * TILE + 3);
    assert_eq!(check(&BitVec::new(4580), 16, &pool[..2 * TILE + 3], "all-zero array"), 0);
    assert_eq!(check(&BitVec::new(0), 16, &pool[..TILE + 3], "match-everything"), TILE + 3);
    // `h2` just under 2^64: `h1 + i·h2` wraps at nearly every step, over
    // short (k = 4), one-exit-test (k = 5) and long (k = 16) walks.
    let wrap_heavy: Vec<Digest> =
        (pool.iter().copied()).filter(|id| bloom_h2(salt, id) >= 0xf << 60).collect();
    assert!(wrap_heavy.len() > 2 * TILE, "only {} wrap-heavy ids", wrap_heavy.len());
    for k in [2, 4, 5, 6, 9, 16] {
        let mut f = BloomFilter::from_parts(BitVec::new(40_000), k, 0.0, salt, double);
        f.insert_batch(&wrap_heavy[..wrap_heavy.len() / 2]);
        let hits = check(f.bit_vec(), k, &wrap_heavy, &format!("wrap-heavy, k = {k}"));
        assert!(hits >= wrap_heavy.len() / 2);
    }
    // One bit: set by any insert, and then every probe is a hit.
    assert_eq!(check(&BitVec::new(1), 7, &pool[..TILE + 3], "one clear bit"), 0);
    assert_eq!(check(&filled(1, 7), 7, &pool[..TILE + 3], "one set bit"), TILE + 3);
    // 2^32 − 1 bits: two arrays of mostly untouched pages, compared in place.
    let mut f = BloomFilter::from_parts(BitVec::new(u32::MAX as usize), 16, 0.0, salt, double);
    let mut r = RefBloom::from_parts(BitVec::new(u32::MAX as usize), 16, salt);
    f.insert_batch(members);
    members.iter().for_each(|id| r.insert(id));
    assert!(f.bit_vec() == r.bits(), "2^32 - 1 bits");
    let hits = f.contains_batch(&pool[..3 * TILE]);
    assert!((0..3 * TILE).all(|j| hits.get(j) == r.contains(&pool[j])), "2^32 - 1 bits");
    assert_eq!(hits.count_ones(), 200);
}

/// Duplicate *difference* values: a value inserted twice on one side is not
/// a pure cell at count 2, so both peels must agree on skipping it (and on
/// the resulting incompleteness), cell for cell.
#[test]
fn iblt_duplicate_insert_matches_reference() {
    for k in [2u32, 3, 4, 9] {
        let mut a = Iblt::new(24, k, 0xd0b);
        let mut b = Iblt::new(24, k, 0xd0b);
        a.insert(42);
        a.insert(42); // duplicate key
        a.insert(7);
        b.insert(9);
        let diff = a.subtract(&b).unwrap();
        let mut remainder = diff.cells().to_vec();
        let reference = ref_peel_cells(&mut remainder, k, 0xd0b);
        let mut peeled = diff.clone();
        assert_eq!(reference, peeled.peel_in_place(&mut PeelScratch::new()));
        assert_eq!(remainder.as_slice(), peeled.cells());
    }
}

/// The batch build lands on exactly the oracle's cells: every hash count
/// from one through the parameter table's twelve, then 16 and the wire
/// format's 255, the one-cell partition (`cells == k`), slices that end on,
/// one short of and one past a lane chunk, the empty slice, and a repeated
/// value — a multiset count of two — whose copies lie in different lanes.
/// `insert_batch` over short IDs and `insert_batch_by` over the
/// transactions they come from are held to the same cells.
#[test]
fn iblt_insert_batch_matches_reference() {
    let mut txns: Vec<Transaction> =
        (0..2016u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect();
    for k in (1..=12u32).chain([16, 255]) {
        for cells in [k as usize, 37 * k as usize, 3000] {
            for len in [0, 1, 7, 8, 9, 255, 256, 257, 2016] {
                let salt = 0x5a17 ^ ((k as u64) << 32) ^ len as u64;
                if len >= 2 {
                    txns[len - 1] = txns[0].clone();
                }
                let items = &txns[..len];
                let shorts: Vec<u64> = items.iter().map(|tx| short_id_8(tx.id())).collect();

                let mut batch = Iblt::new(cells, k, salt);
                batch.insert_batch(&shorts);
                let mut by = Iblt::new(cells, k, salt);
                by.insert_batch_by(items, |tx| short_id_8(tx.id()));
                let mut reference = ref_cells(&batch);
                for &v in &shorts {
                    ref_iblt_apply(&mut reference, k, salt, v, 1, k);
                }
                let at = format!("k {k}, {cells} cells, {len} values");
                assert_eq!(batch.cells(), reference.as_slice(), "insert_batch: {at}");
                assert_eq!(by.cells(), reference.as_slice(), "insert_batch_by: {at}");
                if len >= 2 {
                    txns[len - 1] = Transaction::new((len as u64 - 1).to_le_bytes().to_vec());
                }
            }
        }
    }
    // A batch into a table that already holds values adds to it.
    let mut grown = Iblt::new(60, 4, 9);
    grown.insert(5);
    grown.insert_batch(&[6, 7]);
    let mut reference = ref_cells(&grown);
    for v in [5, 6, 7] {
        ref_iblt_apply(&mut reference, 4, 9, v, 1, 4);
    }
    assert_eq!(grown.cells(), reference.as_slice());
}

/// Empty and single-element batches, pinned explicitly (the proptest
/// generators reach them, but these must never regress to "shrunk away").
#[test]
fn empty_and_single_batches() {
    let one = digests(1, 3);
    let mut f = BloomFilter::new(8, 0.02, 5);
    f.insert_batch(&[]);
    let mut r = RefBloom::new(8, 0.02, 5);
    assert_eq!(f.bit_vec().to_bytes(), r.bit_bytes());
    assert_eq!(f.contains_batch(&[]).len(), 0);
    f.insert_batch(&one);
    r.insert(&one[0]);
    assert_eq!(f.bit_vec().to_bytes(), r.bit_bytes());
    let hits = f.contains_batch(&one);
    assert_eq!(hits.len(), 1);
    assert!(hits.get(0));

    let mut b = GcsBuilder::new(1, 0.02, 5);
    b.insert_batch(&[]);
    let empty = b.build();
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.contains_batch(&[]).len(), 0);
    let mut b = GcsBuilder::new(1, 0.02, 5);
    b.insert_batch(&one);
    let single = b.build();
    assert_eq!(single.data(), RefGcs::build(&one, 1, 0.02, 5).data());
    assert!(single.contains_batch(&one).get(0));

    let mut empty_iblt = Iblt::new(12, 3, 1);
    let r = empty_iblt.peel_in_place(&mut PeelScratch::new()).unwrap();
    assert!(r.complete && r.is_empty());
    assert_eq!(ref_peel_cells(&mut [Cell::default(); 12], 3, 1).unwrap(), r);
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

// ---------------------------------------------------------------------------
// Golden vectors: the exact bytes of the optimized structures, committed.
// If one of these fails, the "optimization" changed observable behavior.
// The filter and IBLT vectors are the derivations of docs/PROTOCOL.md
// computed outside this repo's code (a transcription of that text into
// Python gives the same bytes), not output copied from the build.
// ---------------------------------------------------------------------------

#[test]
fn golden_bloom_double_hashing() {
    let mut f = BloomFilter::new(8, 0.1, 42);
    for id in digests(8, 7) {
        f.insert(&id);
    }
    assert_eq!(hex::encode(&f.to_vec()), GOLDEN_BLOOM_DOUBLE);
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

const GOLDEN_BLOOM_DOUBLE: &str = "0027000000032a000000000000009dcaf13210";
const GOLDEN_IBLT_DIFF: &str = "0c0000000307000000000000000000000000000000000000000000000001000000\
     0100000000000000640d49e7000000000700000000000000087fb2580000000000000000000000000000000002\
     00000003000000000000008ad24070000000000000000000000000000000000000000000000000000000000000\
     0000ffffffff0500000000000000e6a0bbcf00000000000000000000000000000000ffffffff05000000000000\
     00e6a0bbcf010000000200000000000000eedf0997010000000100000000000000640d49e7";
const GOLDEN_GCS: &str = "2d085e0255c0";
