//! Memory gate for the mempool: what building a pool and confirming a block
//! out of a shared one allocate, counted by a wrapper around the system
//! allocator. The counters are per thread, so tests running in parallel do
//! not see each other's allocations.

use graphene_blockchain::{Mempool, Transaction, TxId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// (allocations, bytes allocated, bytes freed) on this thread.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

fn note(allocs: u64, allocated: usize, freed: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = COUNTS.try_with(|c| {
        let (n, a, f) = c.get();
        c.set((n + allocs, a + allocated as u64, f + freed as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` allocated on this thread: (allocations, bytes allocated, bytes
/// still live when it returned — allocated minus freed).
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64, i64) {
    let (n0, a0, f0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, a1, f1) = COUNTS.with(Cell::get);
    (out, n1 - n0, a1 - a0, (a1 - a0) as i64 - (f1 - f0) as i64)
}

/// The paper's large-pool shape (Fig. 13): 60 000 pooled transactions.
const POOL: u64 = 60_000;
/// Bytes a pooled transaction may cost beyond its payload: its 48-byte
/// `Transaction` plus a share of the slot index.
const PER_TX: u64 = 64;

fn txns(n: u64) -> Vec<Transaction> {
    (0..n).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect()
}

/// Collecting pre-built transactions (payloads shared, so only the pool's
/// own storage is new) allocates the transactions' `Vec` and the slot
/// index once each — no regrowth — within `PER_TX` bytes a transaction.
/// `collect` adds the copy-on-write header; `extend` into a pool that has
/// one does not.
#[test]
fn a_pooled_transaction_costs_at_most_64_bytes() {
    let txs = txns(POOL);
    let (pool, allocs, bytes, _) = measure(|| txs.iter().cloned().collect::<Mempool>());
    assert_eq!(pool.len() as u64, POOL);
    assert!(bytes <= PER_TX * POOL, "{} B a transaction", bytes as f64 / POOL as f64);
    assert!(allocs <= 3, "{allocs} allocations (header, transactions, index)");

    let mut pool = Mempool::new();
    let (_, allocs, bytes, _) = measure(|| pool.extend(txs.iter().cloned()));
    assert_eq!(pool.len() as u64, POOL);
    assert!(bytes <= PER_TX * POOL, "{} B a transaction", bytes as f64 / POOL as f64);
    assert!(allocs <= 2, "{allocs} allocations (transactions, index)");
}

/// `confirm` on a pool still shared with its siblings (every simulated
/// peer's first mutation) keeps only what is left: at most `PER_TX` bytes
/// a survivor stay allocated once it returns.
#[test]
fn confirm_on_a_shared_pool_keeps_at_most_64_bytes_a_survivor() {
    let txs = txns(POOL);
    let base: Mempool = txs.iter().cloned().collect();
    let block: Vec<TxId> = txs.iter().step_by(30).map(|tx| *tx.id()).collect();
    let mut peer = base.clone();
    let (_, _, _, live) = measure(|| peer.confirm(&block));
    let survivors = peer.len() as i64;
    assert_eq!(survivors, (POOL - 2_000) as i64);
    assert!(!peer.shares_storage_with(&base));
    assert!(live <= PER_TX as i64 * survivors, "{} B a survivor", live as f64 / survivors as f64);
}
