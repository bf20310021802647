//! Sketch builds: every index of every item of a slice, on one of two
//! kernels picked at run time.
//!
//! A Bloom filter's insert sets `k` bits an id along [`walk_chain`]'s chain,
//! and an IBLT's build folds each value into its `k` cells
//! ([`cell_index`]), each item hashed once under the sketch's key. The
//! caller's `set` / `apply` touches the sketch; this module only says
//! where.
//!
//! * The portable kernel hashes through [`siphash24_batch_on`] and walks
//!   each item's indexes one at a time.
//! * The AVX-512 kernel (`crate::avx512`), given an [`Avx512`] token, runs
//!   a tile of four 16-item passes in two loops. One hashes each pass in
//!   `zmm` registers and derives all its indexes there — `mix64` and the
//!   exact [`FastRem`] remainder lane-wise — storing a register of 16
//!   `u32` indexes per row to a buffer; the other hands the buffer to
//!   `set` / `apply` in scalar code, long after the stores. The rows go in
//!   runs of 16, so a larger `k` (only a hostile table names one) hashes
//!   the tile again per run. Batches of fewer than eight items keep the
//!   portable walk: a pass costs about eight items' worth whatever its
//!   occupancy.
//!
//! Both visit the same indexes, so bits and cells are identical whichever
//! runs; only the order of visits differs, and setting a bit or folding a
//! value into a cell commutes. The tests call both by name.

use crate::cpu::Avx512;
use crate::fast_rem::{cell_index, walk_chain, FastRem};
use crate::sha256::Digest;
use crate::siphash::{siphash24_batch_on, SipKey, SIP_LANES};
use crate::{Lanes32, PASS};

/// Passes of the AVX-512 kernel per tile: the kernel runs a tile's passes
/// back to back and the indexes are applied after, from a buffer the
/// stores have long left. Four, not more: the buffer is zeroed once per
/// call, which a 30-item build (a simulated peer's) pays for.
const TILE_PASSES: usize = 4;
/// Items per tile.
const TILE: usize = PASS * TILE_PASSES;
/// Fewest items the AVX-512 kernel takes: a pass costs about what eight
/// items hashed on their own and walked one index at a time do.
const MIN_ITEMS: usize = SIP_LANES;
/// Rows the AVX-512 kernel derives per run over a tile: every index of a
/// filter down to a false-positive rate of about 1/2^16 in one run, a
/// 4 KB buffer.
const ROWS: u32 = 16;

/// The rows `0..k` in runs of at most [`ROWS`].
fn row_runs(k: u32) -> impl Iterator<Item = core::ops::Range<u32>> {
    (0..k).step_by(ROWS as usize).map(move |from| from..k.min(from.saturating_add(ROWS)))
}

/// The lanes of `lanes` in lane order (on a little-endian host, the same
/// bytes).
fn unpack(lanes: &Lanes32) -> [u32; PASS] {
    core::array::from_fn(|l| (lanes[l / 2] >> (32 * (l % 2))) as u32)
}

/// The items of pass `p` of a tile of `len` items.
fn live(len: usize, p: usize) -> usize {
    (len - p * PASS).min(PASS)
}

/// Call `set(bit)` for each of the `k` bit indexes of every id of `items`
/// in a filter of `m` bits whose ids hash under `key`: index `i` of an id
/// hashed to `h1` is `walk_chain`'s, `(h1 + i·h2) mod m`. A `k` of 0 sets
/// index 0, as a `k` of 1 does. On the AVX-512 kernel if `simd` holds its
/// token and `m ≤ 2^32` (every filter the wire can carry), else on the
/// portable one.
pub fn bloom_indexes_by<T>(
    simd: Option<Avx512>,
    key: SipKey,
    m: FastRem,
    k: u32,
    items: &[T],
    id_of: impl Fn(&T) -> &Digest,
    mut set: impl FnMut(usize),
) {
    let k = k.max(1);
    let Some(simd) = simd.filter(|_| items.len() >= MIN_ITEMS && m.parts().0 <= 1 << 32) else {
        return siphash24_batch_on(
            simd,
            [key],
            items,
            |item| id_of(item).le_words(),
            |_, [h1]| {
                set(m.rem(h1) as usize);
                walk_chain(m, h1, 1, k, |bit| {
                    set(bit);
                    true
                });
            },
        );
    };
    // Slots past a ragged tile's end keep the ids from before; the kernel
    // hashes them and their indexes are dropped.
    let mut ids = [&Digest::ZERO; TILE];
    let mut at = [Lanes32::default(); TILE_PASSES * ROWS as usize];
    for tile in items.chunks(TILE) {
        for (slot, item) in ids.iter_mut().zip(tile) {
            *slot = id_of(item);
        }
        let passes = tile.len().div_ceil(PASS);
        for run in row_runs(k) {
            let at = &mut at[..passes * run.len()];
            simd.bloom_rows(key, m, &ids[..passes * PASS], run.clone(), at);
            for (p, rows) in at.chunks_exact(run.len()).enumerate() {
                for row in rows {
                    unpack(row)[..live(tile.len(), p)].iter().for_each(|&bit| set(bit as usize));
                }
            }
        }
    }
}

/// Call `apply(cell, value, check)` for each of the `k` cells of every
/// value of `values` in an IBLT of `k` partitions of `part` cells whose
/// values hash under `key`: `check` is the low half of the value's hash
/// and `cell` is [`cell_index`] of the whole of it. On the AVX-512 kernel if
/// `simd` holds its token and the table has at most `2^32` cells (every
/// table the wire can carry), else on the portable one.
pub fn iblt_cells(
    simd: Option<Avx512>,
    key: SipKey,
    part: FastRem,
    k: u32,
    values: &[u64],
    mut apply: impl FnMut(usize, u64, u32),
) {
    let cells = u64::from(k).checked_mul(part.parts().0);
    let fits = cells.is_some_and(|c| c <= 1 << 32);
    let Some(simd) = simd.filter(|_| values.len() >= MIN_ITEMS && fits) else {
        // One pass hashing a tile, one folding each value into its cells.
        let mut hashes = [0u64; TILE];
        for chunk in values.chunks(TILE) {
            siphash24_batch_on(simd, [key], chunk, |&v| [v], |j, [h]| hashes[j] = h);
            for (&value, &h) in chunk.iter().zip(&hashes) {
                (0..k).for_each(|i| apply(cell_index(part, h, i), value, h as u32));
            }
        }
        return;
    };
    let mut lanes = [0u64; TILE];
    let mut checks = [Lanes32::default(); TILE_PASSES];
    let mut at = [Lanes32::default(); TILE_PASSES * ROWS as usize];
    for tile in values.chunks(TILE) {
        lanes[..tile.len()].copy_from_slice(tile);
        let passes = tile.len().div_ceil(PASS);
        for run in row_runs(k) {
            let at = &mut at[..passes * run.len()];
            let checks = &mut checks[..passes];
            simd.iblt_rows(key, part, &lanes[..passes * PASS], run.clone(), checks, at);
            for (p, rows) in at.chunks_exact(run.len()).enumerate() {
                let (values, checks) = (&tile[p * PASS..], unpack(&checks[p]));
                for row in rows {
                    let cells = unpack(row);
                    for l in 0..live(tile.len(), p) {
                        apply(cells[l] as usize, values[l], checks[l]);
                    }
                }
            }
        }
    }
}
