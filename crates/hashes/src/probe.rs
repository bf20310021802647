//! The receiver's mempool pass through a Bloom filter (§6.3), on one of two
//! kernels picked at run time.
//!
//! A receiver puts her whole mempool through the sender's filter, nearly
//! all of it non-members, so the pass is built for the miss. Both kernels
//! run it in two stages per tile of ids: stage 1 hashes every id to `h1`
//! (SipHash-2-4 under the filter's key) and tests index 0, which finishes
//! the half of the pool whose first bit is clear at an optimally filled
//! filter; stage 2 tests the survivors' other `k − 1` indexes along
//! [`walk_chain`]'s chain. Both test exactly the indexes the filter's insert
//! sets, in the same order, so their answers are the textbook probe's.
//!
//! * The portable kernel hashes eight ids a call through the SipHash lanes
//!   and walks each survivor's chain one index at a time.
//! * The AVX-512 kernel (`crate::avx512`), given an [`Avx512`] token,
//!   hashes 16 ids a pass in two 512-bit registers per SipHash state word,
//!   gathering each id's words through its own pointer, so ids are read
//!   where they lie in any slice. It reduces index 0 exactly in the
//!   registers ([`FastRem`]'s quotient from four 32-bit products), gathers
//!   the bit words, and compresses the survivors in a register before
//!   storing them. Stage 2 takes indexes 1 to 4 of eight survivors at a
//!   time the same way; only the ≈ 1/16 that pass all four reach the
//!   scalar [`walk_chain`], from index 5.
//!
//! [`crate::Cpu::detect`] says which a host runs; no build flag or setting
//! selects it. The tests call both by name.

use crate::cpu::Avx512;
use crate::fast_rem::{walk_chain, FastRem};
use crate::sha256::Digest;
use crate::siphash::{siphash24_batch_on, SipKey};

/// Ids per tile. The survivor list stays in L1 between the stages; larger
/// tiles only spread one ragged lane call over more ids, and make a probe
/// of a few dozen ids pay for clearing a longer list. A multiple of the
/// AVX-512 kernel's 16-id pass. Nothing a caller could tune — the answers
/// do not depend on it.
pub(crate) const TILE: usize = 256;

/// A Bloom filter's bit array and index geometry, as the probe kernels
/// read it: the SipHash key ids are hashed under, the bit words, the bit
/// length `m` and the hash count `k`.
#[derive(Clone, Copy, Debug)]
pub struct FilterBits<'a> {
    pub(crate) key: SipKey,
    pub(crate) words: &'a [u64],
    pub(crate) m: FastRem,
    pub(crate) k: u32,
}

impl<'a> FilterBits<'a> {
    /// A filter of `len` bits packed little-endian into `words` (bit `i` is
    /// bit `i % 64` of word `i / 64`) with `k` indexes an id. Panics unless
    /// `1 ≤ len ≤ 64·words.len()`: a filter with no bits has no indexes to
    /// probe (it matches everything), and every index lies in `words`.
    pub fn new(key: SipKey, words: &'a [u64], len: usize, k: u32) -> Self {
        assert!(
            (1..=64 * words.len()).contains(&len),
            "a filter of {len} bits in {} words",
            words.len()
        );
        FilterBits { key, words, m: FastRem::new(len as u64), k }
    }

    /// Bit `i`, for `i < len`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// Call `hit(j)`, in increasing `j` within each tile, for every `items[j]`
/// whose `k` indexes in `filter` are all set, on the AVX-512 kernel if
/// `simd` holds its token and on the portable one if not. The ids are read
/// where they lie, through `id_of`.
#[inline]
pub fn probe_by<T>(
    simd: Option<Avx512>,
    filter: FilterBits,
    items: &[T],
    id_of: impl Fn(&T) -> &Digest,
    mut hit: impl FnMut(usize),
) {
    let Some(simd) = simd else {
        return probe_portable(filter, items, id_of, hit);
    };
    // Slots past a ragged tile's end keep references from before; the
    // kernel hashes and drops them.
    let mut ids = [&Digest::ZERO; TILE];
    for (t, tile) in items.chunks(TILE).enumerate() {
        for (slot, item) in ids.iter_mut().zip(tile) {
            *slot = id_of(item);
        }
        simd.probe_tile(&filter, &ids, tile.len(), &mut |j| hit(t * TILE + j));
    }
}

/// The portable two-stage pass: `h1` and index 0 for a tile of ids, then
/// the rest of the chain for the survivors.
#[inline]
fn probe_portable<T>(
    filter: FilterBits,
    items: &[T],
    id_of: impl Fn(&T) -> &Digest,
    mut hit: impl FnMut(usize),
) {
    let m = filter.m;
    let mut survivors = [(0u32, 0u64); TILE];
    for (t, tile) in items.chunks(TILE).enumerate() {
        let mut live = 0;
        siphash24_batch_on(
            None,
            [filter.key],
            tile,
            |item| id_of(item).le_words(),
            |j, [h1]| {
                // Written unconditionally, kept only if the bit is set:
                // no branch on a coin flip.
                survivors[live] = (j as u32, h1);
                live += usize::from(filter.get(m.rem(h1) as usize));
            },
        );
        for &(j, h1) in &survivors[..live] {
            if walk_chain(m, h1, 1, filter.k, |bit| filter.get(bit)) {
                hit(t * TILE + j as usize);
            }
        }
    }
}
