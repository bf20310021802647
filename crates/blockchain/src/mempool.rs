//! The mempool: unconfirmed transactions plus per-peer announcement state.

use crate::tx::{Transaction, TxId};
use std::collections::HashSet;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::Arc;

/// A pool of unconfirmed transactions.
///
/// The hot operation is the pass — Graphene receivers put their whole
/// mempool through Bloom filter `S` (paper §6.3) — so the transactions lie
/// densely in one `Vec`, exposed as a slice ([`Mempool::txns`]) that the
/// filter hashes in place. Lookup by ID goes through a slot index of 4-byte
/// positions into that `Vec`, so each id is stored once, in its
/// transaction.
///
/// # Iteration order
///
/// [`Mempool::txns`] and [`Mempool::iter`] give insertion order, perturbed
/// only by removal: removing a transaction moves the last one into its
/// slot (`swap_remove`). The order is therefore a function of the sequence
/// of operations alone — two pools built by the same inserts, removes and
/// confirms iterate identically, in every process.
///
/// # Sharing
///
/// The storage lives behind an [`Arc`] with copy-on-write semantics: cloning
/// a pool is a reference-count bump, and the storage is only deep-copied
/// when a clone is first mutated. The propagation sweep hands the same base
/// mempool to every one of its (up to 100 000) peers, so per-trial setup
/// is O(peers) pointer copies instead of O(peers · m) map clones — the
/// ROADMAP item 1 bottleneck. Behavior is indistinguishable from a plain
/// owned pool: no read path observes the sharing.
///
/// [`Mempool::confirm`] is the one mutation every one of those peers then
/// makes, so on shared storage it never copies the whole pool to cut it
/// down: it looks each confirmed ID up in the shared slot index, replays
/// the `swap_remove`s on a vector of positions — which yields exactly the
/// order the sequential removes leave, the contract above — and clones only
/// the survivors into a right-sized `Vec` and index. A network of peers
/// holds one right-sized pool each, not a copy of the base pool's
/// allocation each.
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    pool: Arc<Pool>,
}

/// Invariant: `slots` holds each position `0..txns.len()` exactly once,
/// reachable from the home bucket of that transaction's id.
#[derive(Clone, Debug, Default)]
struct Pool {
    txns: Vec<Transaction>,
    slots: Slots,
}

impl Pool {
    /// Position of the transaction with `id`.
    fn position(&self, id: &TxId) -> Option<u32> {
        self.slots.find(&self.txns, id).map(|bucket| self.slots.buckets[bucket])
    }

    /// Room for `additional` more transactions without regrowing either part.
    fn reserve(&mut self, additional: usize) {
        self.txns.reserve(additional);
        let wanted = self.txns.len() + additional;
        if 2 * wanted > self.slots.buckets.len() {
            self.slots = Slots::build(&self.txns, wanted, self.slots.key.clone());
        }
    }

    fn insert(&mut self, tx: Transaction) -> bool {
        self.reserve(1);
        match self.slots.probe(&self.txns, tx.id()) {
            Ok(bucket) => {
                self.txns[self.slots.buckets[bucket] as usize] = tx;
                false
            }
            Err(free) => {
                let next = u32::try_from(self.txns.len()).ok().filter(|&next| next != FREE);
                self.slots.buckets[free] = next.expect("fewer than 2^32 - 1 pooled transactions");
                self.txns.push(tx);
                true
            }
        }
    }

    /// Remove by ID; the last transaction takes the removed one's place.
    fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        let bucket = self.slots.find(&self.txns, id)?;
        let slot = self.slots.buckets[bucket];
        self.slots.vacate(&self.txns, bucket);
        let last = self.txns.len() as u32 - 1;
        if slot != last {
            let moved = self.slots.bucket_of(&self.txns, last);
            self.slots.buckets[moved] = slot;
        }
        Some(self.txns.swap_remove(slot as usize))
    }
}

/// The bucket no position occupies.
const FREE: u32 = u32::MAX;

/// The slot index: an open-addressing table of positions into a
/// `[Transaction]`, which every method is handed. Its length is a power of
/// two, at most half of it taken (or zero before the first insert). A
/// position sits in the first free bucket at or after its id's home bucket
/// (linear probing); the home comes from a hash keyed per pool, so a ground
/// txid (§6.1) cannot aim at a bucket. Deletion shifts the rest of the run
/// back, so there are no tombstones.
#[derive(Clone, Debug, Default)]
struct Slots {
    key: RandomState,
    buckets: Vec<u32>,
}

impl Slots {
    /// An index of `txns` with room for `capacity` transactions.
    fn build(txns: &[Transaction], capacity: usize, key: RandomState) -> Slots {
        let len = (2 * capacity).next_power_of_two().max(8);
        let mut slots = Slots { key, buckets: vec![FREE; len] };
        for (slot, tx) in (0u32..).zip(txns) {
            let mut bucket = slots.home(tx.id());
            while slots.buckets[bucket] != FREE {
                bucket = slots.next(bucket);
            }
            slots.buckets[bucket] = slot;
        }
        slots
    }

    fn home(&self, id: &TxId) -> usize {
        // The 32 bytes alone: `Digest`'s derived `Hash` would prefix their
        // length, and lookups ran about 30 % slower for it.
        let mut hasher = self.key.build_hasher();
        hasher.write(&id.0);
        hasher.finish() as usize & (self.buckets.len() - 1)
    }

    fn next(&self, bucket: usize) -> usize {
        (bucket + 1) & (self.buckets.len() - 1)
    }

    /// `Ok` with the bucket holding `id`'s position, or `Err` with the free
    /// bucket that ends its run. The table must have buckets.
    fn probe(&self, txns: &[Transaction], id: &TxId) -> Result<usize, usize> {
        let mut bucket = self.home(id);
        loop {
            match self.buckets[bucket] {
                FREE => return Err(bucket),
                slot if txns[slot as usize].id() == id => return Ok(bucket),
                _ => bucket = self.next(bucket),
            }
        }
    }

    /// The bucket holding `id`'s position, if pooled.
    fn find(&self, txns: &[Transaction], id: &TxId) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        self.probe(txns, id).ok()
    }

    /// The bucket holding `slot`, which must be in the table.
    fn bucket_of(&self, txns: &[Transaction], slot: u32) -> usize {
        let mut bucket = self.home(txns[slot as usize].id());
        while self.buckets[bucket] != slot {
            bucket = self.next(bucket);
        }
        bucket
    }

    /// Free `hole` (backward-shift deletion): walking the rest of its run,
    /// each entry whose home is not between the hole and itself moves back
    /// into the hole, and the hole moves on to where that entry was.
    fn vacate(&mut self, txns: &[Transaction], mut hole: usize) {
        let mask = self.buckets.len() - 1;
        let mut bucket = self.next(hole);
        while self.buckets[bucket] != FREE {
            let slot = self.buckets[bucket];
            let home = self.home(txns[slot as usize].id());
            if (bucket.wrapping_sub(home) & mask) >= (bucket.wrapping_sub(hole) & mask) {
                self.buckets[hole] = slot;
                hole = bucket;
            }
            bucket = self.next(bucket);
        }
        self.buckets[hole] = FREE;
    }
}

impl Mempool {
    /// An empty pool.
    pub fn new() -> Self {
        Mempool::default()
    }

    /// Number of pooled transactions (the paper's `m`).
    pub fn len(&self) -> usize {
        self.pool.txns.len()
    }

    /// True if no transactions are pooled.
    pub fn is_empty(&self) -> bool {
        self.pool.txns.is_empty()
    }

    /// Insert a transaction; returns false if it was already present (the
    /// pooled copy is replaced and keeps its place).
    pub fn insert(&mut self, tx: Transaction) -> bool {
        Arc::make_mut(&mut self.pool).insert(tx)
    }

    /// Remove by ID (e.g., when a block confirms it). The last transaction
    /// in iteration order takes the removed one's place.
    pub fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        if !self.contains(id) {
            // Don't unshare a copy-on-write clone for a no-op removal.
            return None;
        }
        Arc::make_mut(&mut self.pool).remove(id)
    }

    /// Membership test.
    pub fn contains(&self, id: &TxId) -> bool {
        self.pool.position(id).is_some()
    }

    /// Fetch a transaction.
    pub fn get(&self, id: &TxId) -> Option<&Transaction> {
        self.pool.position(id).map(|slot| &self.pool.txns[slot as usize])
    }

    /// The pooled transactions as one dense slice, in iteration order.
    pub fn txns(&self) -> &[Transaction] {
        &self.pool.txns
    }

    /// Iterate over pooled transactions, in the order of [`Mempool::txns`].
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.pool.txns.iter()
    }

    /// All IDs, sorted (deterministic order for tests and CTOR assembly).
    pub fn sorted_ids(&self) -> Vec<TxId> {
        let mut ids: Vec<TxId> = self.iter().map(Transaction::id).copied().collect();
        ids.sort();
        ids
    }

    /// Remove every transaction confirmed by `block_ids`: [`Mempool::remove`]
    /// for each, in order.
    ///
    /// A pool that owns its storage removes in place. A shared one (a
    /// copy-on-write clone that was never mutated — every peer of a
    /// propagation confirming the relayed block out of the shared base
    /// mempool) builds what is left directly, see [Sharing](#sharing). A
    /// block that confirms nothing here leaves the sharing alone.
    pub fn confirm(&mut self, block_ids: &[TxId]) {
        if let Some(pool) = Arc::get_mut(&mut self.pool) {
            for id in block_ids {
                pool.remove(id);
            }
            return;
        }
        let shared = &*self.pool;
        let confirmed: Vec<u32> = block_ids.iter().filter_map(|id| shared.position(id)).collect();
        if confirmed.is_empty() {
            return;
        }
        // Replay the removes on positions alone: `order[i]` is where the
        // transaction now `i`-th lies in the shared pool, `now[p]` where the
        // one at `p` there has got to.
        const GONE: u32 = u32::MAX;
        let mut order: Vec<u32> = (0..shared.txns.len() as u32).collect();
        let mut now = order.clone();
        for p in confirmed {
            let slot = std::mem::replace(&mut now[p as usize], GONE);
            if slot == GONE {
                continue; // confirmed twice
            }
            order.swap_remove(slot as usize);
            if let Some(&moved) = order.get(slot as usize) {
                now[moved as usize] = slot;
            }
        }
        let txns: Vec<Transaction> =
            order.iter().map(|&p| shared.txns[p as usize].clone()).collect();
        let slots = Slots::build(&txns, txns.len(), shared.slots.key.clone());
        self.pool = Arc::new(Pool { txns, slots });
    }

    /// True if `self` and `other` share one underlying storage (copy-on-write
    /// clones that have not diverged). Diagnostic for tests and memory
    /// accounting; protocol code must never branch on it.
    pub fn shares_storage_with(&self, other: &Mempool) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }
}

/// Reserves room for the iterator's lower size bound once, then inserts
/// each transaction in turn.
impl Extend<Transaction> for Mempool {
    fn extend<I: IntoIterator<Item = Transaction>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let additional = iter.size_hint().0;
        if additional > 0 {
            Arc::make_mut(&mut self.pool).reserve(additional);
        }
        for tx in iter {
            self.insert(tx);
        }
    }
}

impl FromIterator<Transaction> for Mempool {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        let mut pool = Mempool::new();
        pool.extend(iter);
        pool
    }
}

/// Per-peer announcement bookkeeping (paper §2.2): which transactions have
/// been `inv`-exchanged with a given neighbor.
///
/// Block relays consult this to proactively append transactions the peer has
/// never seen (Protocol 1 step 3's optimization note). Real clients use
/// "lossy data structures" for this; we keep an exact set and expose a
/// `forget_fraction` knob so experiments can model the loss.
#[derive(Clone, Debug, Default)]
pub struct PeerView {
    announced: HashSet<TxId>,
}

impl PeerView {
    /// Empty view.
    pub fn new() -> Self {
        PeerView::default()
    }

    /// Record that `id` was announced to/by this peer.
    pub fn record(&mut self, id: TxId) {
        self.announced.insert(id);
    }

    /// Has `id` been exchanged with this peer?
    pub fn knows(&self, id: &TxId) -> bool {
        self.announced.contains(id)
    }

    /// Number of tracked announcements.
    pub fn len(&self) -> usize {
        self.announced.len()
    }

    /// True if nothing has been announced.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty()
    }

    /// Drop roughly `fraction` of the tracked announcements (deterministic:
    /// drops by hash order), modeling the lossy tracking of real clients.
    pub fn forget_fraction(&mut self, fraction: f64) {
        if fraction <= 0.0 {
            return;
        }
        let mut ids: Vec<TxId> = self.announced.iter().copied().collect();
        ids.sort();
        let drop = ((ids.len() as f64) * fraction.min(1.0)).round() as usize;
        for id in ids.into_iter().take(drop) {
            self.announced.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tx(i: u64) -> Transaction {
        Transaction::new(i.to_le_bytes().to_vec())
    }

    #[test]
    fn insert_contains_remove() {
        let mut pool = Mempool::new();
        let t = tx(1);
        let id = *t.id();
        assert!(pool.insert(t.clone()));
        assert!(!pool.insert(t)); // duplicate
        assert!(pool.contains(&id));
        assert_eq!(pool.len(), 1);
        assert!(pool.remove(&id).is_some());
        assert!(pool.is_empty());
    }

    #[test]
    fn confirm_removes_block_txns() {
        let mut pool: Mempool = (0..10).map(tx).collect();
        let confirmed: Vec<TxId> = (0..5).map(|i| *tx(i).id()).collect();
        pool.confirm(&confirmed);
        assert_eq!(pool.len(), 5);
        assert!(!pool.contains(tx(0).id()));
        assert!(pool.contains(tx(7).id()));
    }

    /// Clones share storage until first mutation; mutation unshares the
    /// mutated clone only, and reads never perturb the sharing.
    #[test]
    fn clone_is_copy_on_write() {
        let base: Mempool = (0..100).map(tx).collect();
        let mut a = base.clone();
        let b = base.clone();
        assert!(a.shares_storage_with(&base));
        assert!(b.shares_storage_with(&base));

        // Reads keep the sharing.
        assert!(a.contains(tx(5).id()));
        assert_eq!(a.iter().count(), 100);
        assert!(a.shares_storage_with(&base));
        // A no-op removal keeps it too.
        assert!(a.remove(tx(1000).id()).is_none());
        assert!(a.shares_storage_with(&base));

        // A real mutation unshares only the mutated clone.
        assert!(a.insert(tx(1000)));
        assert!(!a.shares_storage_with(&base));
        assert!(b.shares_storage_with(&base));
        assert_eq!(a.len(), 101);
        assert_eq!(base.len(), 100);
    }

    /// `confirm` on a shared clone rebuilds without touching its siblings,
    /// and gives exactly the same pool as confirm-on-owned.
    #[test]
    fn confirm_on_shared_clone_matches_owned() {
        let base: Mempool = (0..50).map(tx).collect();
        let confirmed: Vec<TxId> = (0..20).map(|i| *tx(i).id()).collect();

        let mut shared = base.clone(); // still sharing at confirm time
        shared.confirm(&confirmed);
        let mut owned: Mempool = (0..50).map(tx).collect(); // uniquely owned
        owned.confirm(&confirmed);

        assert_eq!(base.len(), 50, "sibling must be untouched");
        assert_eq!(shared.txns(), owned.txns());
        assert!(!shared.shares_storage_with(&base));
        // Confirming nothing, or nothing pooled, never unshares.
        let mut c = base.clone();
        c.confirm(&[]);
        c.confirm(&[*tx(1000).id(), *tx(1001).id()]);
        assert!(c.shares_storage_with(&base));
    }

    /// Iteration order is a function of the operations alone: two pools
    /// put through the same inserts, removes and confirm iterate
    /// identically, whether the confirm ran on a pool that owned its
    /// storage or on a clone still sharing it.
    #[test]
    fn same_operations_same_iteration_order() {
        let build = |confirm_shared: bool| {
            let mut pool: Mempool = (0..40).map(tx).collect();
            for i in [3, 17, 39, 0] {
                pool.remove(tx(i).id());
            }
            pool.insert(tx(100));
            let keep_alive = confirm_shared.then(|| pool.clone());
            let confirmed: Vec<TxId> = [5, 6, 100, 7, 999, 38].map(|i| *tx(i).id()).to_vec();
            pool.confirm(&confirmed);
            pool.insert(tx(101));
            assert_eq!(keep_alive.map(|base| base.len()), confirm_shared.then_some(37));
            pool
        };
        let (owned, again, shared) = (build(false), build(false), build(true));
        assert_eq!(owned.txns(), again.txns());
        assert_eq!(owned.txns(), shared.txns());
        assert!(owned.iter().eq(owned.txns()));
        // Insertion order, with the last transaction moved into each hole.
        let ids: Vec<TxId> = [0u64, 1, 2].map(|i| *tx(i).id()).to_vec();
        let mut small: Mempool = (0..3).map(tx).collect();
        assert!(small.iter().map(Transaction::id).eq(&ids));
        small.remove(&ids[0]);
        assert!(small.iter().map(Transaction::id).eq([&ids[2], &ids[1]]));
    }

    /// Every observable of `pool` agrees with the model map, and the slot
    /// index points at the transaction with that id.
    fn assert_agrees(pool: &Mempool, model: &BTreeMap<TxId, Transaction>, universe: u64) {
        assert_eq!(pool.len(), model.len());
        assert_eq!(pool.is_empty(), model.is_empty());
        for i in 0..universe {
            let id = *tx(i).id();
            assert_eq!(pool.contains(&id), model.contains_key(&id));
            assert_eq!(pool.get(&id), model.get(&id));
        }
        assert_eq!(pool.sorted_ids(), model.keys().copied().collect::<Vec<_>>());
        let mut pooled: Vec<&Transaction> = pool.iter().collect();
        pooled.sort_by_key(|tx| *tx.id());
        assert!(pooled.into_iter().eq(model.values()));
        assert_index(pool);
    }

    /// The slot index holds every position `0..len` in exactly one bucket,
    /// and nothing else; its length is a power of two (or zero for a pool
    /// never inserted into) and at most half of it is taken.
    fn assert_index(pool: &Mempool) {
        let (txns, buckets) = (&pool.pool.txns, &pool.pool.slots.buckets);
        assert!(buckets.len().is_power_of_two() || buckets.is_empty() && txns.is_empty());
        assert!(2 * txns.len() <= buckets.len(), "{} of {} buckets", txns.len(), buckets.len());
        let mut seen = vec![0; txns.len()];
        for &slot in buckets.iter().filter(|&&slot| slot != FREE) {
            seen[slot as usize] += 1;
        }
        assert!(seen.iter().all(|&times| times == 1), "{seen:?}");
        for (slot, tx) in (0u32..).zip(txns) {
            assert_eq!(pool.pool.position(tx.id()), Some(slot));
        }
    }

    /// A pool that may share its storage, an owned twin put through the same
    /// operations, and the model both must agree with.
    type Live = (Mempool, Mempool, BTreeMap<TxId, Transaction>);

    proptest::proptest! {
        /// Random operation sequences against a `BTreeMap` model: insert
        /// (fresh, duplicate, and the same id with another payload), remove
        /// (by id — present or absent —, first and last in iteration order,
        /// down to the only one), `confirm` and clone-then-mutate, where the
        /// clone left behind must keep agreeing with its own model.
        ///
        /// Every `confirm` runs on storage a sibling still shares and, on
        /// the twin, on storage nobody shares; the two must then iterate
        /// identically, element for element. Its id lists hold a range with
        /// absent ids, the first pooled transaction twice around an absent
        /// one, the last one, the whole pool and then some, only absent ids,
        /// and nothing.
        #[test]
        fn mempool_matches_model(ops in proptest::collection::vec(0u64..8 * 12, 0..120)) {
            const UNIVERSE: u64 = 16;
            let mut live: Vec<Live> = vec![Default::default()];
            for op in ops {
                let (kind, arg) = (op % 8, op / 8);
                let (pool, twin, model) = live.last_mut().expect("never empty");
                match kind {
                    0 | 1 => {
                        let fresh = model.insert(*tx(arg).id(), tx(arg)).is_none();
                        assert_eq!(pool.insert(tx(arg)), fresh);
                        assert_eq!(twin.insert(tx(arg)), fresh);
                    }
                    2 => {
                        let forged = Transaction::forge_with_id(vec![7u8; 3], *tx(arg).id());
                        let fresh = model.insert(*forged.id(), forged.clone()).is_none();
                        assert_eq!(pool.insert(forged.clone()), fresh);
                        assert_eq!(twin.insert(forged), fresh);
                    }
                    3 => {
                        assert_eq!(pool.remove(tx(arg).id()), model.remove(tx(arg).id()));
                        twin.remove(tx(arg).id());
                    }
                    4 | 5 => {
                        let end = if kind == 4 { pool.txns().first() } else { pool.txns().last() };
                        if let Some(id) = end.map(|tx| *tx.id()) {
                            assert_eq!(pool.remove(&id), model.remove(&id));
                            twin.remove(&id);
                        }
                    }
                    6 => {
                        let pooled = |i: usize| pool.txns().get(i).map(|tx| *tx.id());
                        let absent = *tx(1000 + arg).id();
                        let ids: Vec<TxId> = match arg % 6 {
                            0 => (arg..arg + 5).map(|i| *tx(i).id()).collect(),
                            1 => [pooled(0), Some(absent), pooled(0)].into_iter().flatten().collect(),
                            2 => pooled(pool.len().wrapping_sub(1)).into_iter().collect(),
                            3 => pool.txns().iter().rev().map(|tx| *tx.id()).chain(pooled(0)).collect(),
                            4 => vec![absent, *tx(2000).id()],
                            _ => Vec::new(),
                        };
                        let sibling = pool.clone();
                        let before = sibling.txns().to_vec();
                        pool.confirm(&ids);
                        assert_eq!(Arc::strong_count(&twin.pool), 1, "the twin owns its storage");
                        twin.confirm(&ids);
                        assert_eq!(sibling.txns(), before, "the sibling must be untouched");
                        let confirmed_any = ids.iter().any(|id| model.contains_key(id));
                        assert_eq!(pool.shares_storage_with(&sibling), !confirmed_any);
                        model.retain(|id, _| !ids.contains(id));
                    }
                    _ => {
                        // Clone; half the time go on mutating the original
                        // and leave the clone behind, half the time the
                        // other way round. Three pools alive at most.
                        let copy = (pool.clone(), twin.iter().cloned().collect(), model.clone());
                        assert!(copy.0.shares_storage_with(pool));
                        let at = live.len() - (arg % 2) as usize;
                        live.insert(at, copy);
                        if live.len() > 3 {
                            live.remove(0);
                        }
                    }
                }
                for (pool, twin, model) in &live {
                    assert_agrees(pool, model, UNIVERSE);
                    assert_agrees(twin, model, UNIVERSE);
                    assert_eq!(pool.txns(), twin.txns());
                }
            }
        }
    }

    /// Transactions whose ids have `homes` for home buckets in `pool`'s
    /// table, `per_home` of each.
    fn homed(pool: &Mempool, homes: &[usize], per_home: usize) -> Vec<Transaction> {
        let mut want: Vec<usize> =
            homes.iter().flat_map(|&h| std::iter::repeat_n(h, per_home)).collect();
        let mut picked = Vec::new();
        for t in (0..).map(tx) {
            if let Some(at) = want.iter().position(|&h| h == pool.pool.slots.home(t.id())) {
                want.swap_remove(at);
                picked.push(t);
                if want.is_empty() {
                    return picked;
                }
            }
        }
        unreachable!()
    }

    /// Deletion across the table's end and inside one long cluster: runs
    /// that start in the last buckets spill over into the first ones, and
    /// entries homed inside the cluster must not be shifted back past their
    /// home.
    #[test]
    fn remove_across_wrap_around_and_long_clusters() {
        const LEN: usize = 64;
        for seed in 0..8u64 {
            let mut pool = Mempool::new();
            Arc::make_mut(&mut pool.pool).reserve(LEN / 2);
            let txs = homed(&pool, &[LEN - 3, LEN - 2, LEN - 1, 0, 1, 5, 9, 30], 4);
            pool.extend(txs.iter().cloned());
            let buckets = &pool.pool.slots.buckets;
            assert_eq!(buckets.len(), LEN, "no regrowth");
            // One run from bucket LEN - 3 across the end: the 28 ids homed
            // there and up to bucket 9.
            let run = (0..LEN).take_while(|b| buckets[(LEN - 3 + b) % LEN] != FREE).count();
            assert_eq!(run, 28);
            assert_index(&pool);
            // A different removal order per seed; every one keeps the rest found.
            let mut order: Vec<&Transaction> = txs.iter().collect();
            order.sort_by_key(|t| t.id().0[seed as usize]);
            for (gone, t) in order.iter().enumerate() {
                assert_eq!(pool.remove(t.id()).as_ref(), Some(*t));
                assert_index(&pool);
                assert!(order[..=gone].iter().all(|t| !pool.contains(t.id())));
                assert!(order[gone + 1..].iter().all(|t| pool.get(t.id()) == Some(*t)));
            }
            assert!(pool.is_empty());
            assert!(pool.pool.slots.buckets.iter().all(|&slot| slot == FREE));
        }
    }

    /// Forged ids that share their first 31 bytes are told apart by the
    /// whole id: every one is found, and removed, as itself.
    #[test]
    fn forged_ids_sharing_a_prefix_are_all_found_and_removed() {
        let forged: Vec<Transaction> = (0..=255u8)
            .map(|last| {
                let mut id = [0xab; 32];
                id[31] = last;
                Transaction::forge_with_id(vec![last; 4], graphene_hashes::Digest(id))
            })
            .collect();
        let mut pool: Mempool = (0..100).map(tx).collect();
        pool.extend(forged.iter().cloned());
        assert_eq!(pool.len(), 356);
        assert_index(&pool);
        assert!(forged.iter().all(|t| pool.get(t.id()) == Some(t)));
        for (gone, t) in forged.iter().enumerate().rev() {
            assert_eq!(pool.remove(t.id()).as_ref(), Some(t));
            assert!(forged[..gone].iter().all(|t| pool.get(t.id()) == Some(t)));
        }
        assert_index(&pool);
        assert_eq!(pool.len(), 100);
        assert!((0..100).all(|i| pool.contains(tx(i).id())));
    }

    #[test]
    fn sorted_ids_deterministic() {
        let pool: Mempool = (0..50).map(tx).collect();
        let a = pool.sorted_ids();
        let b = pool.sorted_ids();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn peer_view_tracks_and_forgets() {
        let mut view = PeerView::new();
        for i in 0..100 {
            view.record(*tx(i).id());
        }
        assert_eq!(view.len(), 100);
        assert!(view.knows(tx(5).id()));
        view.forget_fraction(0.3);
        assert_eq!(view.len(), 70);
        view.forget_fraction(0.0);
        assert_eq!(view.len(), 70);
        view.forget_fraction(1.0);
        assert!(view.is_empty());
    }
}
