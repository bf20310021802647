//! The sketch kernels on AVX-512: the Bloom filter's mempool pass, the two
//! sketch builds and the batch SipHash, 16 ids or values a pass in `zmm`
//! registers. (The fourth AVX-512 kernel, the Merkle pair hash, is
//! `sha256::avx512`.)
//!
//! All four hash with one SipHash-2-4 in two 512-bit registers per state
//! word — two independent dependency chains per round — and reduce with
//! [`FastRem`]'s exact remainder lane-wise. Each entry point takes the
//! [`Avx512`] token, so no safe code reaches an AVX-512 instruction on a
//! CPU without them, and each is bit-identical to the portable code its
//! caller falls back to: the tests hold both to the oracles.
//!
//! Unsafe code here: the calls into the `#[target_feature]` kernels, the
//! unaligned loads and stores of whole registers from and to arrays the
//! kernels index with bounds checks, masked stores of the lanes a checked
//! slice holds, and two kinds of gather. An id's words are gathered
//! through `&Digest` references, each valid for its 32 bytes. A bit word
//! is gathered at `min(index / 64, words − 1)`, which lies in the bit array
//! whatever the index arithmetic computed.

use core::arch::x86_64::*;
use core::ops::Range;

use crate::cpu::Avx512;
use crate::fast_rem::{walk_chain, FastRem, CELL_STEP, MIX_MUL, MIX_SHIFT};
use crate::probe::{FilterBits, TILE};
use crate::sha256::Digest;
use crate::siphash::{SipKey, INIT};
use crate::{Lanes32, PASS};

/// Registers per SipHash state word: 2 × 8 lanes is a 16-item pass, two
/// independent dependency chains per round. Four registers (32 ids) ran
/// 7–13 % slower on the AVX-512 build host, measured paired: 16 state
/// registers beside the id pointers and message words crowd the 32 `zmm`
/// registers.
const GROUPS: usize = PASS / 8;
/// Indexes stage 2 of the mempool pass tests in registers, after index 0.
const STAGE2: u32 = 4;

impl Avx512 {
    /// The mempool pass over `ids[..live]`, calling `hit(j)` for every
    /// member of `filter`.
    #[inline]
    pub(crate) fn probe_tile(
        self,
        filter: &FilterBits,
        ids: &[&Digest; TILE],
        live: usize,
        hit: &mut dyn FnMut(usize),
    ) {
        // SAFETY: `self` exists only if `Cpu::detect` saw every target
        // feature `probe_tile` enables on the running CPU.
        unsafe { probe_tile(filter, ids, live, hit) }
    }

    /// `siphash24(key, words as LE bytes)` of the 16 messages `rows` holds
    /// word-major: `rows[w][l]` is word `w` of message `l`.
    #[inline]
    pub(crate) fn siphash24_x16<const WORDS: usize>(
        self,
        key: SipKey,
        rows: &[[u64; PASS]; WORDS],
    ) -> [u64; PASS] {
        let mut out = [0u64; PASS];
        // SAFETY: as in `probe_tile`, for `sip_x16`.
        unsafe { sip_x16(key, rows, &mut out) };
        out
    }

    /// Bloom indexes `rows` of the ids `ids` points at, whole passes of
    /// 16, in a filter of `m ≤ 2^32` bits keyed `key`:
    /// `out[p·rows.len() + r − rows.start][l]` is `walk_chain`'s index `r`
    /// of `ids[16p + l]`.
    #[inline]
    pub(crate) fn bloom_rows(
        self,
        key: SipKey,
        m: FastRem,
        ids: &[&Digest],
        rows: Range<u32>,
        out: &mut [Lanes32],
    ) {
        assert!(m.parts().0 <= 1 << 32, "a u32 index holds bit indexes below 2^32");
        assert!(ids.len().is_multiple_of(PASS), "whole passes");
        assert_eq!(out.len(), ids.len() / PASS * rows.len(), "a row of indexes per pass and index");
        // SAFETY: as in `probe_tile`, for `bloom_rows`.
        unsafe { bloom_rows(key, m, ids, rows, out) }
    }

    /// An IBLT's cells for the values `values`, whole passes of 16:
    /// `checks[p][l]` is the checksum of `values[16p + l]` and
    /// `out[p·rows.len() + r − rows.start][l]` its cell in partition `r` of
    /// a table of partitions of `part` cells — `fast_rem::cell_index`. The
    /// partitions `0..rows.end` hold at most `2^32` cells.
    #[inline]
    pub(crate) fn iblt_rows(
        self,
        key: SipKey,
        part: FastRem,
        values: &[u64],
        rows: Range<u32>,
        checks: &mut [Lanes32],
        out: &mut [Lanes32],
    ) {
        let cells = u64::from(rows.end).checked_mul(part.parts().0);
        assert!(cells.is_some_and(|c| c <= 1 << 32), "a u32 index holds cells below 2^32");
        assert!(values.len().is_multiple_of(PASS), "whole passes");
        assert_eq!(checks.len(), values.len() / PASS, "a row of checksums per pass");
        assert_eq!(out.len(), checks.len() * rows.len(), "a row of cells per pass and partition");
        // SAFETY: as in `probe_tile`, for `iblt_rows`.
        unsafe { iblt_rows(key, part, values, rows, checks, out) }
    }
}

/// The lanes `0..n` of a register, `n` clamped to 8.
#[inline]
fn lanes_below(n: usize) -> __mmask8 {
    ((1u32 << n.min(8)) - 1) as __mmask8
}

/// `h % m` per lane for one modulus, exactly as [`FastRem::rem`].
#[derive(Clone, Copy)]
struct Rem {
    m: __m512i,
    recip: __m512i,
    recip_hi: __m512i,
}

impl Rem {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(m: FastRem) -> Self {
        let (m, recip) = m.parts();
        Rem {
            m: _mm512_set1_epi64(m as i64),
            recip: _mm512_set1_epi64(recip as i64),
            recip_hi: _mm512_set1_epi64((recip >> 32) as i64),
        }
    }

    /// The high half of `h·recip` from four 32 × 32-bit products, then
    /// `r = h − q·m` and `min(r, r − m)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn rem(self, h: __m512i) -> __m512i {
        let low = _mm512_set1_epi64(0xffff_ffff);
        let h_hi = _mm512_srli_epi64::<32>(h);
        let ll = _mm512_mul_epu32(h, self.recip);
        let lh = _mm512_mul_epu32(h, self.recip_hi);
        let hl = _mm512_mul_epu32(h_hi, self.recip);
        let hh = _mm512_mul_epu32(h_hi, self.recip_hi);
        // The parts at bits 32..64 of the product, summed: what this
        // carries past 32 bits carries into the high word. Three terms
        // under 2^32 cannot overflow it.
        let mid = _mm512_add_epi64(
            _mm512_srli_epi64::<32>(ll),
            _mm512_add_epi64(_mm512_and_si512(lh, low), _mm512_and_si512(hl, low)),
        );
        let q = _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(mid)),
            _mm512_add_epi64(_mm512_srli_epi64::<32>(lh), _mm512_srli_epi64::<32>(hl)),
        );
        let r = _mm512_sub_epi64(h, _mm512_mullo_epi64(q, self.m));
        _mm512_min_epu64(r, _mm512_sub_epi64(r, self.m))
    }
}

/// A filter's bit array in registers, for the mempool pass: the modulus,
/// the last word's position, and the words.
struct Geometry<'a> {
    rem: Rem,
    last_word: __m512i,
    words: &'a [u64],
}

impl<'a> Geometry<'a> {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(filter: &FilterBits<'a>) -> Self {
        Geometry {
            rem: Rem::new(filter.m),
            last_word: _mm512_set1_epi64(filter.words.len() as i64 - 1),
            words: filter.words,
        }
    }

    /// The lanes whose index `h % m` is a set bit.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn test(&self, h: __m512i) -> __mmask8 {
        let at = self.rem.rem(h);
        let word = _mm512_min_epu64(_mm512_srli_epi64::<6>(at), self.last_word);
        // SAFETY: every lane of `word` is at most `words.len() − 1`.
        let bits = unsafe { _mm512_i64gather_epi64::<8>(word, self.words.as_ptr().cast::<i64>()) };
        let shifted = _mm512_srlv_epi64(bits, _mm512_and_si512(at, _mm512_set1_epi64(63)));
        _mm512_test_epi64_mask(shifted, _mm512_set1_epi64(1))
    }
}

/// `mix64` per lane.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn mix64(x: __m512i) -> __m512i {
    let c0 = _mm512_set1_epi64(MIX_MUL[0] as i64);
    let c1 = _mm512_set1_epi64(MIX_MUL[1] as i64);
    let x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[0] }>(x)), c0);
    let x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[1] }>(x)), c1);
    _mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[2] }>(x))
}

/// `GROUPS` registers of SipHash state: `v[i][g]` is state word `v_i` of
/// the eight lanes in register `g`.
type State = [[__m512i; GROUPS]; 4];

/// The SipRound, as `siphash::sipround` writes it, on every register.
#[inline]
#[target_feature(enable = "avx512f")]
fn sipround(v: &mut State) {
    let [v0, v1, v2, v3] = v;
    for g in 0..GROUPS {
        v0[g] = _mm512_add_epi64(v0[g], v1[g]);
        v1[g] = _mm512_xor_si512(_mm512_rol_epi64::<13>(v1[g]), v0[g]);
        v0[g] = _mm512_rol_epi64::<32>(v0[g]);
        v2[g] = _mm512_add_epi64(v2[g], v3[g]);
        v3[g] = _mm512_xor_si512(_mm512_rol_epi64::<16>(v3[g]), v2[g]);
        v0[g] = _mm512_add_epi64(v0[g], v3[g]);
        v3[g] = _mm512_xor_si512(_mm512_rol_epi64::<21>(v3[g]), v0[g]);
        v2[g] = _mm512_add_epi64(v2[g], v1[g]);
        v1[g] = _mm512_xor_si512(_mm512_rol_epi64::<17>(v1[g]), v2[g]);
        v2[g] = _mm512_rol_epi64::<32>(v2[g]);
    }
}

/// Absorb one message word per lane (two compression rounds).
#[inline]
#[target_feature(enable = "avx512f")]
fn absorb(v: &mut State, m: [__m512i; GROUPS]) {
    for g in 0..GROUPS {
        v[3][g] = _mm512_xor_si512(v[3][g], m[g]);
    }
    sipround(v);
    sipround(v);
    for g in 0..GROUPS {
        v[0][g] = _mm512_xor_si512(v[0][g], m[g]);
    }
}

/// SipHash-2-4 under `key` of `PASS` whole-word messages, `WORDS` words
/// each: `word(w)` gives word `w` of every lane, lane `l` of register `g`
/// being message `8g + l`. Bit-identical to `siphash24` over each
/// message's little-endian bytes.
#[inline]
#[target_feature(enable = "avx512f")]
fn siphash<const WORDS: usize>(
    key: SipKey,
    mut word: impl FnMut(usize) -> [__m512i; GROUPS],
) -> [__m512i; GROUPS] {
    let key = [key.k0, key.k1];
    let mut v: State = [[_mm512_setzero_si512(); GROUPS]; 4];
    for (i, row) in v.iter_mut().enumerate() {
        *row = [_mm512_set1_epi64((key[i % 2] ^ INIT[i]) as i64); GROUPS];
    }
    for w in 0..WORDS {
        absorb(&mut v, word(w));
    }
    // Whole-word messages leave no tail: the last word is the length.
    absorb(&mut v, [_mm512_set1_epi64(((WORDS as u64 * 8) << 56) as i64); GROUPS]);
    for v2 in &mut v[2] {
        *v2 = _mm512_xor_si512(*v2, _mm512_set1_epi64(0xff));
    }
    for _ in 0..4 {
        sipround(&mut v);
    }
    core::array::from_fn(|g| {
        _mm512_xor_si512(_mm512_xor_si512(v[0][g], v[1][g]), _mm512_xor_si512(v[2][g], v[3][g]))
    })
}

/// The hashes of the `PASS` ids `ids` points at, each as its four
/// little-endian words, gathered through the references: ids are read
/// where they lie in any slice.
#[inline]
#[target_feature(enable = "avx512f")]
fn hash_ids(key: SipKey, ids: &[&Digest; PASS]) -> [__m512i; GROUPS] {
    let mut at = [_mm512_setzero_si512(); GROUPS];
    for (g, at) in at.iter_mut().enumerate() {
        // SAFETY: eight references, 64 bytes of the array.
        *at = unsafe { _mm512_loadu_si512(ids[8 * g..].as_ptr().cast::<__m512i>()) };
    }
    siphash::<4>(key, |w| {
        // Absolute addresses from a null base: lane `l` reads word `w` of
        // the digest its reference points at.
        let base = core::ptr::null::<i64>().wrapping_add(w);
        // SAFETY: `at[g]` holds `&Digest`s, valid for 32 bytes.
        at.map(|at| unsafe { _mm512_i64gather_epi64::<1>(at, base) })
    })
}

/// The low 32 bits of the sixteen lanes of `h`, lane `8g + l` from lane `l`
/// of register `g`.
#[inline]
#[target_feature(enable = "avx512f")]
fn low_halves(h: [__m512i; GROUPS]) -> __m512i {
    let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    _mm512_permutex2var_epi32(h[0], even, h[1])
}

/// Store a register to the front of `dst`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store(dst: &mut [u64], x: __m512i) {
    let dst = &mut dst[..8];
    // SAFETY: `dst` has eight words.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), x) }
}

/// Eight words from the front of `src` as a register.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(src: &[u64]) -> __m512i {
    let src = &src[..8];
    // SAFETY: `src` has eight words.
    unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
}

/// The mempool pass over `ids[..live]` in two stages; the slots past
/// `live` hold valid references whose hashes are dropped. Stage 1 hashes
/// every id and tests index 0; stage 2 tests indexes 1 to 4 of eight
/// survivors at a time; only the ≈ 1/16 that pass all four reach the
/// scalar [`walk_chain`], from index 5.
///
/// Never inlined, so the upper vector state is cleared on the way out and
/// no legacy-SSE code (the SHA-256 kernel) ever runs beside it. The same
/// holds for every kernel below.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512dq")]
fn probe_tile(filter: &FilterBits, ids: &[&Digest; TILE], live: usize, hit: &mut dyn FnMut(usize)) {
    let geometry = Geometry::new(filter);
    let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    // Stage 1: `h1` and index 0. Survivor `s` is the id at position
    // `at[s]` of the tile, hashed to `h1[s]`. Before a register is stored
    // its lanes' ids all lie past the survivors so far, so the eight-word
    // store at `survivors` stays in the arrays.
    let (mut h1s, mut at) = ([0u64; TILE], [0u64; TILE]);
    let mut survivors = 0;
    for pass in (0..live).step_by(PASS) {
        let ids: &[&Digest; PASS] = ids[pass..pass + PASS].try_into().expect("a pass");
        let h1 = hash_ids(filter.key, ids);
        for (g, &h1) in h1.iter().enumerate() {
            let first = pass + 8 * g;
            let keep = geometry.test(h1) & lanes_below(live.saturating_sub(first));
            let j = _mm512_add_epi64(_mm512_set1_epi64(first as i64), iota);
            // Compressed in a register and stored whole: much faster than
            // the memory form of `vpcompressq`. The lanes past the kept ones
            // are junk the next store overwrites.
            store(&mut h1s[survivors..], _mm512_maskz_compress_epi64(keep, h1));
            store(&mut at[survivors..], _mm512_maskz_compress_epi64(keep, j));
            survivors += keep.count_ones() as usize;
        }
    }
    // Stage 2: indexes 1..=4 of eight survivors at a time, `h1 + i·h2` as
    // `walk_chain` takes them. The survivors that pass are packed to the
    // front of the same arrays.
    let rest = filter.k.saturating_sub(1);
    let mut passed = 0;
    for s in (0..survivors).step_by(8) {
        let h1 = load(&h1s[s..]);
        let j = load(&at[s..]);
        let h2 = _mm512_or_si512(mix64(h1), _mm512_set1_epi64(1));
        let mut h = h1;
        let mut keep = lanes_below(survivors - s);
        for _ in 0..rest.min(STAGE2) {
            h = _mm512_add_epi64(h, h2);
            keep &= geometry.test(h);
        }
        store(&mut h1s[passed..], _mm512_maskz_compress_epi64(keep, h1));
        store(&mut at[passed..], _mm512_maskz_compress_epi64(keep, j));
        passed += keep.count_ones() as usize;
    }
    // The rest of the chain, from index 5, for the ≈ 1/16 that passed:
    // nothing is left to test when `k ≤ 5`.
    for (&h1, &j) in h1s[..passed].iter().zip(&at[..passed]) {
        if walk_chain(filter.m, h1, 1 + STAGE2, filter.k, |bit| filter.get(bit)) {
            hit(j as usize);
        }
    }
}

/// One pass of the batch SipHash: the messages' words are loaded a row
/// (eight lanes) at a time.
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn sip_x16<const WORDS: usize>(key: SipKey, rows: &[[u64; PASS]; WORDS], out: &mut [u64; PASS]) {
    let h = siphash::<WORDS>(key, |w| core::array::from_fn(|g| load(&rows[w][8 * g..])));
    for (g, h) in h.into_iter().enumerate() {
        store(&mut out[8 * g..], h);
    }
}

/// The Bloom build: each pass hashes 16 ids to `h1`, takes
/// `h2 = mix64(h1) | 1`, and stores `H_r mod m` for every row `r`, where
/// `H_r = h1 + r·h2 mod 2^64`.
///
/// Only the first row and `h2` are reduced by a multiply. Row `r + 1`
/// follows from row `r` exactly: `H_{r+1} = H_r + h2`, less `2^64` when the
/// sum wraps, so `H_{r+1} mod m` is `H_r mod m + h2 mod m`, less
/// `2^64 mod m` when it wraps, brought back into `[0, m)` by two
/// conditional subtractions — adds and compares, no multiplies.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512dq")]
fn bloom_rows(key: SipKey, m: FastRem, ids: &[&Digest], rows: Range<u32>, out: &mut [Lanes32]) {
    let rem = Rem::new(m);
    let wrap = _mm512_set1_epi64(((m.rem(u64::MAX) + 1) % m.parts().0) as i64);
    let first = _mm512_set1_epi64(i64::from(rows.start));
    // `min(x, x − m)` for `x < 2m`: `x mod m`.
    let fold = |x: __m512i| _mm512_min_epu64(x, _mm512_sub_epi64(x, rem.m));
    for (ids, out) in ids.chunks_exact(PASS).zip(out.chunks_exact_mut(rows.len())) {
        let h1 = hash_ids(key, ids.try_into().expect("a pass"));
        let h2 = h1.map(|h1| _mm512_or_si512(mix64(h1), _mm512_set1_epi64(1)));
        let step = h2.map(|h2| rem.rem(h2));
        let mut h: [__m512i; GROUPS] =
            core::array::from_fn(|g| _mm512_add_epi64(h1[g], _mm512_mullo_epi64(first, h2[g])));
        let mut at = h.map(|h| rem.rem(h));
        for (r, out) in out.iter_mut().enumerate() {
            if r > 0 {
                for g in 0..GROUPS {
                    let next = _mm512_add_epi64(h[g], h2[g]);
                    let wrapped = _mm512_cmplt_epu64_mask(next, h[g]);
                    let sum = fold(_mm512_add_epi64(at[g], step[g]));
                    // `sum − wrap`, plus `m` where that went below zero.
                    let less = _mm512_mask_sub_epi64(sum, wrapped, sum, wrap);
                    at[g] = _mm512_min_epu64(less, _mm512_add_epi64(less, rem.m));
                    h[g] = next;
                }
            }
            store(out, low_halves(at));
        }
    }
}

/// The IBLT build: each pass hashes 16 values to `h`, stores its low half
/// as the checksum, and for every partition `r` stores
/// `r·part + mix64(h + (r + 1)·CELL_STEP) mod part`.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512dq")]
fn iblt_rows(
    key: SipKey,
    part: FastRem,
    values: &[u64],
    rows: Range<u32>,
    checks: &mut [Lanes32],
    out: &mut [Lanes32],
) {
    let rem = Rem::new(part);
    let first = _mm512_set1_epi64(CELL_STEP.wrapping_mul(u64::from(rows.start) + 1) as i64);
    let step = _mm512_set1_epi64(CELL_STEP as i64);
    // `row·part` fits: the partitions up to `rows.end` hold at most 2^32 cells.
    let part_len = part.parts().0 as u32;
    let passes = values.chunks_exact(PASS).zip(checks).zip(out.chunks_exact_mut(rows.len()));
    for ((values, checks), out) in passes {
        let h = siphash::<1>(key, |_| core::array::from_fn(|g| load(&values[8 * g..])));
        store(checks, low_halves(h));
        let mut x = h.map(|h| _mm512_add_epi64(h, first));
        for (out, row) in out.iter_mut().zip(rows.clone()) {
            let within = low_halves(x.map(|x| rem.rem(mix64(x))));
            let base = _mm512_set1_epi32(row.wrapping_mul(part_len) as i32);
            store(out, _mm512_add_epi32(within, base));
            x = x.map(|x| _mm512_add_epi64(x, step));
        }
    }
}
