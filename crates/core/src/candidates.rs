//! The receiver's candidate set `Z` (paper §3.1 step 4) as one sorted array.
//!
//! The receiver needs three things of the transactions that passed `S`:
//! their short IDs (to build `I′`), a way from a short ID the peel recovered
//! back to the transaction (to drop a false positive, to see that a body is
//! already held), and — once the set is right — the ids in block order for
//! the Merkle check. A short ID is the first eight bytes of a txid
//! ([`short_id_8`] reads them little-endian), so ordering ids by those
//! bytes *is* ordering them as [`Digest`] does, byte by byte: one sort
//! serves all three. Lookup by short ID is a binary search, two ids sharing
//! a short ID (§6.1) lie next to each other, and the canonical (CTOR) order
//! is the array as it stands.
//!
//! No hasher is involved: nothing about the set depends on a random state,
//! and ids crafted to share a prefix cost a comparison each, as any others.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ordering::decode_order;
use graphene_blockchain::{OrderingScheme, TxId};
use graphene_bloom::BitVec;
use graphene_hashes::{merkle_root, short_id_8, Digest};

/// The first eight bytes of `id` as they sort: big-endian, where
/// [`short_id_8`] reads the same bytes little-endian.
#[inline]
fn prefix(id: &TxId) -> u64 {
    short_id_8(id).swap_bytes()
}

/// Candidate transactions keyed by short ID: at most one id per short ID,
/// kept in ascending txid order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    /// Strictly increasing, and so are the 8-byte prefixes.
    ids: Vec<TxId>,
}

/// Sort ids given in arrival order; of ids sharing a short ID the one that
/// arrived last stays. True if two *different* ids shared one.
fn settle(arrived: impl Iterator<Item = TxId> + Clone) -> (Vec<TxId>, bool) {
    // Txids are hash outputs, so their first byte deals them evenly into 256
    // runs: a counting pass sizes the runs, a second pass places each id in
    // its run, in arrival order, and what is left to sort is runs of n/256.
    // Ids crafted to share a first byte only make one run long — the whole
    // array at worst, sorted as it would have been without the deal. Both
    // steps are stable, so equal prefixes stay in arrival order.
    let mut run = [0usize; 257];
    for id in arrived.clone() {
        run[id.0[0] as usize + 1] += 1;
    }
    for byte in 0..256 {
        run[byte + 1] += run[byte];
    }
    let mut ids = vec![TxId::ZERO; run[256]];
    let mut next = run;
    for id in arrived {
        ids[next[id.0[0] as usize]] = id;
        next[id.0[0] as usize] += 1;
    }
    for ends in run.windows(2) {
        ids[ends[0]..ends[1]].sort_by_key(prefix);
    }
    let mut collision = false;
    ids.dedup_by(|later, kept| {
        let same = prefix(later) == prefix(kept);
        if same {
            collision |= later != kept;
            *kept = *later;
        }
        same
    });
    (ids, collision)
}

impl Candidates {
    /// The items of a pool pass that `hits` marks — `hits` as
    /// `contains_batch_by` returned it over the same `items` — and whether
    /// two different survivors share a short ID (§6.1: the IBLT algebra over
    /// short IDs is then not injective). Of such a pair the one later in
    /// `items` is kept.
    pub fn from_survivors<T>(
        items: &[T],
        hits: &BitVec,
        id_of: impl Fn(&T) -> &TxId,
    ) -> (Candidates, bool) {
        let survivors = items.iter().enumerate().filter(|(j, _)| hits.get(*j));
        let (ids, collision) = settle(survivors.map(|(_, item)| *id_of(item)));
        (Candidates { ids }, collision)
    }

    /// Add ids the sender vouched for — prefilled bodies, Protocol 2's
    /// `missing`, a `BlockTxn` — in one merge pass. They are authoritative:
    /// one displaces a candidate of the same short ID without complaint
    /// (the candidate was an attacker's transaction or an astronomical
    /// accident, §6.1), and of two in the batch sharing one the later stays.
    pub fn admit<'a, I>(&mut self, ids: I)
    where
        I: IntoIterator<Item = &'a TxId>,
        I::IntoIter: Clone,
    {
        let ids = ids.into_iter();
        if ids.clone().next().is_none() {
            return;
        }
        let (batch, _) = settle(ids.copied());
        let held = std::mem::take(&mut self.ids);
        self.ids.reserve(held.len() + batch.len());
        let mut batch = batch.into_iter().peekable();
        for id in held {
            while let Some(given) = batch.next_if(|given| prefix(given) < prefix(&id)) {
                self.ids.push(given);
            }
            // A candidate whose short ID the batch claims is dropped; the
            // claimant follows in its place.
            if batch.peek().is_none_or(|given| prefix(given) != prefix(&id)) {
                self.ids.push(id);
            }
        }
        self.ids.extend(batch);
    }

    /// [`Candidates::admit`] for one id. `short` is `short_id_8(&id)`: the
    /// signature of the `HashMap<u64, TxId>` this type replaced.
    pub fn insert(&mut self, short: u64, id: TxId) {
        debug_assert_eq!(short, short_id_8(&id));
        match self.ids.binary_search_by_key(&prefix(&id), prefix) {
            Ok(at) => self.ids[at] = id,
            Err(at) => self.ids.insert(at, id),
        }
    }

    /// Drop the candidates with these short IDs (absent ones are ignored):
    /// the false positives a peel identified.
    pub fn remove_shorts(&mut self, shorts: &[u64]) {
        if shorts.is_empty() {
            return;
        }
        let mut gone: Vec<u64> = shorts.iter().map(|short| short.swap_bytes()).collect();
        gone.sort_unstable();
        let mut gone = gone.into_iter().peekable();
        self.ids.retain(|id| {
            while gone.next_if(|&g| g < prefix(id)).is_some() {}
            gone.peek() != Some(&prefix(id))
        });
    }

    /// Whether a candidate has this short ID.
    pub fn contains_short(&self, short: u64) -> bool {
        self.ids.binary_search_by_key(&short.swap_bytes(), prefix).is_ok()
    }

    /// The candidates' short IDs, in the order of [`Candidates::ids`].
    pub fn shorts(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().map(short_id_8)
    }

    /// The candidates in ascending txid order — the canonical (CTOR) block
    /// order, if they are the block.
    pub fn ids(&self) -> &[TxId] {
        &self.ids
    }

    /// `|Z|`.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Take the candidates for the block: put them in block order (as they
    /// stand under CTOR, by `order_bytes` otherwise) and check the header's
    /// Merkle commitment. `None` if the order does not decode or the root
    /// disagrees.
    pub fn reconstruct(
        &self,
        root: &Digest,
        order_bytes: &[u8],
        ordering: OrderingScheme,
    ) -> Option<Vec<TxId>> {
        let ordered = match ordering {
            OrderingScheme::Ctor => self.ids.clone(),
            OrderingScheme::MinerChosen => decode_order(&self.ids, order_bytes)?,
        };
        (merkle_root(&ordered) == *root).then_some(ordered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    use std::collections::HashMap;

    /// A small universe in which collisions are common: `which % 12` picks
    /// one of twelve 8-byte prefixes (the all-zero and all-ones prefixes
    /// among them, the rest differing in every byte position), `which / 12`
    /// one of three ids under it, differing in byte 8 or byte 31.
    fn forged(which: usize) -> TxId {
        let mut id = Digest([0x55; 32]);
        let prefix: u64 = match which % 12 {
            0 => 0,
            11 => u64::MAX,
            p => 0x0123_4567_89ab_cdef_u64.rotate_left(8 * p as u32) ^ p as u64,
        };
        id.0[..8].copy_from_slice(&prefix.to_be_bytes());
        match which / 12 % 3 {
            0 => {}
            1 => id.0[8] = 0xaa,
            _ => id.0[31] = 0xaa,
        }
        id
    }

    /// The map the array replaced, filled by the closures of the parent's
    /// `receiver_decode`: `add` for a survivor, a bare `insert` for an
    /// authoritative id.
    #[derive(Clone, Default)]
    struct Model {
        by_short: HashMap<u64, TxId>,
    }

    impl Model {
        fn add(&mut self, id: &TxId, collision: &mut bool) {
            if let Some(prev) = self.by_short.insert(short_id_8(id), *id) {
                if prev != *id {
                    *collision = true;
                }
            }
        }

        fn sorted(&self) -> Vec<TxId> {
            let mut ids: Vec<TxId> = self.by_short.values().copied().collect();
            ids.sort();
            ids
        }
    }

    fn agree(c: &Candidates, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(c.ids().to_vec(), model.sorted());
        prop_assert_eq!(c.len(), model.by_short.len());
        prop_assert_eq!(c.is_empty(), model.by_short.is_empty());
        prop_assert!(c.ids().windows(2).all(|w| w[0] < w[1]), "ids() not strictly increasing");
        prop_assert_eq!(
            c.shorts().collect::<Vec<_>>(),
            c.ids().iter().map(short_id_8).collect::<Vec<_>>()
        );
        for which in 0..12 {
            let short = short_id_8(&forged(which));
            prop_assert_eq!(c.contains_short(short), model.by_short.contains_key(&short));
        }
        Ok(())
    }

    /// One mutation, applied to both.
    fn mutate(c: &mut Candidates, model: &mut Model, rng: &mut StdRng) {
        let pick = |rng: &mut StdRng, upto: usize| -> Vec<TxId> {
            (0..rng.random_range(0..upto)).map(|_| forged(rng.random_range(0..36))).collect()
        };
        match rng.random_range(0..4) {
            // A pool pass: some ids in pool order, some of them hit.
            0 => {
                let pool = pick(rng, 30);
                let mut hits = BitVec::new(pool.len());
                let mut flag = false;
                *model = Model::default();
                for (j, id) in pool.iter().enumerate() {
                    if rng.random_range(0..4) > 0 {
                        hits.set(j);
                        model.add(id, &mut flag);
                    }
                }
                let (built, collision) = Candidates::from_survivors(&pool, &hits, |id| id);
                assert_eq!(collision, flag, "collision flag over {pool:?}");
                *c = built;
            }
            // Authoritative ids: fresh, a candidate again, a candidate's
            // short under another id, two of the batch sharing a short.
            1 => {
                let batch = pick(rng, 6);
                c.admit(&batch);
                for id in &batch {
                    model.by_short.insert(short_id_8(id), *id);
                }
            }
            2 => {
                let shorts: Vec<u64> = pick(rng, 6).iter().map(short_id_8).collect();
                c.remove_shorts(&shorts);
                for short in &shorts {
                    model.by_short.remove(short);
                }
            }
            _ => {
                let id = forged(rng.random_range(0..36));
                c.insert(short_id_8(&id), id);
                model.by_short.insert(short_id_8(&id), id);
            }
        }
    }

    proptest! {
        /// Whatever is done to it, the array holds what the map held: same
        /// size, same short IDs, same collision verdicts, and `ids()` is the
        /// map's values sorted. A clone goes its own way.
        #[test]
        fn candidates_behave_as_the_map_they_replace(seed: u64, steps in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut c, mut model) = (Candidates::default(), Model::default());
            for _ in 0..steps {
                if rng.random_range(0..6) == 0 {
                    let (mut c2, mut model2) = (c.clone(), model.clone());
                    mutate(&mut c2, &mut model2, &mut rng);
                    agree(&c2, &model2)?;
                } else {
                    mutate(&mut c, &mut model, &mut rng);
                }
                agree(&c, &model)?;
            }
        }
    }

    /// Sorting by the big-endian prefix, ties aside, is sorting by
    /// `Digest: Ord`: byte 7 is the prefix's least significant byte (and the
    /// short ID's most significant), bytes 8 and 31 are outside it.
    #[test]
    fn prefix_order_is_digest_order() {
        let base = Digest([0x70; 32]);
        let with = |at: usize, byte: u8| {
            let mut id = base;
            id.0[at] = byte;
            id
        };
        for (lo, hi) in
            [(with(7, 0x6f), base), (base, with(7, 0x71)), (with(0, 0x01), with(7, 0xff))]
        {
            assert!(lo < hi && prefix(&lo) < prefix(&hi));
            assert!(short_id_8(&lo) != short_id_8(&hi));
            let both = BitVec::from_bytes(&[0b11], 2).expect("two bits");
            let (c, collision) = Candidates::from_survivors(&[hi, lo], &both, |id| id);
            assert_eq!((c.ids(), collision), (&[lo, hi][..], false));
        }
        for at in [8, 31] {
            let (lo, hi) = (base, with(at, 0x71));
            assert!(lo < hi && prefix(&lo) == prefix(&hi));
            let both = BitVec::from_bytes(&[0b11], 2).expect("two bits");
            // Same short ID: a collision, and the later one stands.
            let (c, collision) = Candidates::from_survivors(&[hi, lo], &both, |id| id);
            assert_eq!((c.ids(), collision), (&[lo][..], true));
            let (c, collision) = Candidates::from_survivors(&[lo, hi], &both, |id| id);
            assert_eq!((c.ids(), collision), (&[hi][..], true));
        }
    }

    /// `reconstruct` is the receiver's final check (Protocol 1 step 4,
    /// Protocol 2 step 5): the exact set in the exact order, or nothing. A
    /// superset (an undetected Bloom false positive) and a miner-chosen
    /// order that is not the block's are both refused.
    #[test]
    fn reconstruct_accepts_the_exact_block_only() {
        use crate::ordering::encode_order;
        let mut block: Vec<TxId> = (0..8).map(forged).collect();
        let mut exact = Candidates::default();
        exact.admit(&block);
        let ctor_root = merkle_root(exact.ids());
        assert_eq!(
            exact.reconstruct(&ctor_root, &[], OrderingScheme::Ctor).as_deref(),
            Some(exact.ids())
        );
        let mut superset = exact.clone();
        superset.admit([&forged(9)]);
        assert_eq!(superset.reconstruct(&ctor_root, &[], OrderingScheme::Ctor), None);

        let miner = OrderingScheme::MinerChosen;
        let root = merkle_root(&block);
        assert_eq!(exact.reconstruct(&root, &encode_order(&block), miner), Some(block.clone()));
        block.swap(0, 1);
        assert_eq!(exact.reconstruct(&root, &encode_order(&block), miner), None);
    }

    /// `remove_shorts` at every position: first, last, middle, absent, all,
    /// and the only one.
    #[test]
    fn remove_shorts_at_every_position() {
        let ids: Vec<TxId> = (0..12).map(forged).collect();
        let mut all = Candidates::default();
        all.admit(&ids);
        assert_eq!(all.len(), 12);
        let (first, last) = (all.ids()[0], all.ids()[11]);
        let without = |gone: &[TxId]| {
            let mut c = all.clone();
            c.remove_shorts(&gone.iter().map(short_id_8).collect::<Vec<_>>());
            let kept: Vec<TxId> =
                all.ids().iter().filter(|id| !gone.contains(id)).copied().collect();
            assert_eq!(c.ids(), kept.as_slice(), "removing {gone:?}");
            c
        };
        without(&[first]);
        without(&[last]);
        without(&[last, first, all.ids()[5]]);
        assert!(without(&ids).is_empty());
        // Absent short IDs, between, below and above what is held.
        let mut few = Candidates::default();
        few.admit([&ids[3]]);
        few.remove_shorts(&[short_id_8(&first), short_id_8(&last), short_id_8(&ids[4])]);
        assert_eq!(few.ids(), &[ids[3]]);
        few.remove_shorts(&[short_id_8(&ids[3])]);
        assert!(few.is_empty());
        few.remove_shorts(&[1, 2, 3]);
        assert!(few.is_empty());
    }
}
