//! The mempool: unconfirmed transactions plus per-peer announcement state.

use crate::tx::{Transaction, TxId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A pool of unconfirmed transactions.
///
/// The hot operation is the pass — Graphene receivers put their whole
/// mempool through Bloom filter `S` (paper §6.3) — so the transactions lie
/// densely in one `Vec`, exposed as a slice ([`Mempool::txns`]) that the
/// filter hashes in place. Lookup by ID goes through a slot index, a map
/// from txid to position in that `Vec`.
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

/// Invariant: `slots[txns[i].id()] == i` for every `i`, and nothing else is
/// in `slots`.
#[derive(Clone, Debug, Default)]
struct Pool {
    txns: Vec<Transaction>,
    slots: HashMap<TxId, u32>,
}

impl Pool {
    /// Remove by ID; the last transaction takes the removed one's place.
    fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        let slot = self.slots.remove(id)?;
        let tx = self.txns.swap_remove(slot as usize);
        if let Some(moved) = self.txns.get(slot as usize) {
            self.slots.insert(*moved.id(), slot);
        }
        Some(tx)
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
        let pool = Arc::make_mut(&mut self.pool);
        let next = u32::try_from(pool.txns.len()).expect("fewer than 2^32 pooled transactions");
        match pool.slots.entry(*tx.id()) {
            Entry::Occupied(slot) => {
                pool.txns[*slot.get() as usize] = tx;
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(next);
                pool.txns.push(tx);
                true
            }
        }
    }

    /// Remove by ID (e.g., when a block confirms it). The last transaction
    /// in iteration order takes the removed one's place.
    pub fn remove(&mut self, id: &TxId) -> Option<Transaction> {
        if !self.pool.slots.contains_key(id) {
            // Don't unshare a copy-on-write clone for a no-op removal.
            return None;
        }
        Arc::make_mut(&mut self.pool).remove(id)
    }

    /// Membership test.
    pub fn contains(&self, id: &TxId) -> bool {
        self.pool.slots.contains_key(id)
    }

    /// Fetch a transaction.
    pub fn get(&self, id: &TxId) -> Option<&Transaction> {
        self.pool.slots.get(id).map(|&slot| &self.pool.txns[slot as usize])
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
        let confirmed: Vec<u32> =
            block_ids.iter().filter_map(|id| shared.slots.get(id).copied()).collect();
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
        let slots = (txns.iter().zip(0u32..)).map(|(tx, slot)| (*tx.id(), slot)).collect();
        self.pool = Arc::new(Pool { txns, slots });
    }

    /// True if `self` and `other` share one underlying storage (copy-on-write
    /// clones that have not diverged). Diagnostic for tests and memory
    /// accounting; protocol code must never branch on it.
    pub fn shares_storage_with(&self, other: &Mempool) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }
}

impl FromIterator<Transaction> for Mempool {
    fn from_iter<I: IntoIterator<Item = Transaction>>(iter: I) -> Self {
        let mut pool = Mempool::new();
        for tx in iter {
            pool.insert(tx);
        }
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
        assert_eq!(pool.pool.slots.len(), pool.txns().len());
        for (id, &slot) in &pool.pool.slots {
            assert_eq!(pool.txns()[slot as usize].id(), id);
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
