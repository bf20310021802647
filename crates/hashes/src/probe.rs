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
//! * [`ProbeKernel::Portable`] hashes eight ids a call through
//!   [`siphash24_batch`] and walks each survivor's chain one index at a
//!   time.
//! * [`ProbeKernel::Avx512`], on a host whose CPUID reports AVX-512 F, DQ
//!   and BW, hashes 16 ids a pass in two 512-bit registers per SipHash state
//!   word, gathering each id's words through its own pointer, so ids are
//!   read where they lie in any slice. It reduces index 0 exactly in the
//!   registers ([`FastRem`]'s quotient from four 32-bit products), gathers
//!   the bit words, and compresses the survivors in a register before
//!   storing them. Stage 2 takes indexes 1 to 4 of eight survivors at a
//!   time the same way; only the ≈ 1/16 that pass all four reach the
//!   scalar [`walk_chain`], from index 5.
//!
//! [`ProbeKernel::detect`] picks the AVX-512 kernel where the host has it;
//! no build flag or setting selects it. The tests call both by name.

use crate::fast_rem::{walk_chain, FastRem};
use crate::sha256::Digest;
use crate::siphash::{siphash24_batch, SipKey};

pub use avx512::Avx512;

/// Ids per tile. The survivor list stays in L1 between the stages; larger
/// tiles only spread one ragged lane call over more ids, and make a probe
/// of a few dozen ids pay for clearing a longer list. A multiple of the
/// AVX-512 kernel's 16-id pass. Nothing a caller could tune — the answers
/// do not depend on it.
const TILE: usize = 256;

/// A Bloom filter's bit array and index geometry, as the probe kernels
/// read it: the SipHash key ids are hashed under, the bit words, the bit
/// length `m` and the hash count `k`.
#[derive(Clone, Copy, Debug)]
pub struct FilterBits<'a> {
    key: SipKey,
    words: &'a [u64],
    m: FastRem,
    k: u32,
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
    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// The two kernels of the mempool pass: they give the same answers, and
/// differ only in the instructions they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKernel {
    /// Eight-lane hashing through [`siphash24_batch`] and a scalar walk.
    /// Runs on every host.
    Portable,
    /// The AVX-512 kernel. It exists only where [`Avx512::detect`] found
    /// the features it is compiled for.
    Avx512(Avx512),
}

impl ProbeKernel {
    /// The AVX-512 kernel if CPUID reports it, else the portable one. The
    /// answer is cached by the standard library, so this is a load.
    #[inline]
    pub fn detect() -> Self {
        Avx512::detect().map_or(ProbeKernel::Portable, ProbeKernel::Avx512)
    }

    /// Call `hit(j)`, in increasing `j` within each tile, for every
    /// `items[j]` whose `k` indexes in `filter` are all set. The ids are
    /// read where they lie, through `id_of`.
    #[inline]
    pub fn probe_by<T>(
        self,
        filter: FilterBits,
        items: &[T],
        id_of: impl Fn(&T) -> &Digest,
        mut hit: impl FnMut(usize),
    ) {
        match self {
            ProbeKernel::Portable => probe_portable(filter, items, id_of, hit),
            ProbeKernel::Avx512(simd) => {
                // Slots past a ragged tile's end keep references from
                // before; the kernel hashes and drops them.
                let mut ids = [&Digest::ZERO; TILE];
                for (t, tile) in items.chunks(TILE).enumerate() {
                    for (slot, item) in ids.iter_mut().zip(tile) {
                        *slot = id_of(item);
                    }
                    simd.probe_tile(&filter, &ids, tile.len(), &mut |j| hit(t * TILE + j));
                }
            }
        }
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
        siphash24_batch(
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

/// The AVX-512 kernel. Its one entry point takes the [`Avx512`] token, so
/// no safe code reaches an AVX-512 instruction on a CPU without them.
///
/// Unsafe code here: the call into the `#[target_feature]` kernel, the
/// unaligned loads and stores of whole registers from and to arrays the
/// kernel indexes with bounds checks, and two kinds of gather. An id's
/// words are gathered through `&Digest` references, each valid for its 32
/// bytes. A bit word is gathered at `min(index / 64, words − 1)`, which
/// lies in the bit array whatever the index arithmetic computed.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use core::arch::x86_64::*;

    use super::{FilterBits, TILE};
    use crate::fast_rem::{walk_chain, MIX_MUL, MIX_SHIFT};
    use crate::sha256::Digest;
    use crate::siphash::INIT;

    /// Proof that the running CPU has every feature the AVX-512 kernels —
    /// this probe and the Merkle pair hash — are compiled for: only
    /// [`Avx512::detect`] makes one.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Avx512(());

    impl Avx512 {
        /// `Some` exactly when CPUID reports AVX-512 F (the 512-bit
        /// integer operations, rotates, compress and gather), DQ (the
        /// 64-bit multiply `vpmullq`) and BW (the byte shuffle of the
        /// Merkle pair kernel, `Avx512::sha256d_chunk`). Every AVX-512 core
        /// since Skylake-SP has all three.
        #[inline]
        pub fn detect() -> Option<Avx512> {
            let has = is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512bw");
            has.then_some(Avx512(()))
        }

        /// The pass over `ids[..live]`, calling `hit(j)` for every member.
        #[inline]
        pub(super) fn probe_tile(
            self,
            filter: &FilterBits,
            ids: &[&Digest; TILE],
            live: usize,
            hit: &mut dyn FnMut(usize),
        ) {
            // SAFETY: `self` exists only if `detect` saw every target
            // feature `probe_tile` enables on the running CPU.
            unsafe { probe_tile(filter, ids, live, hit) }
        }
    }

    /// Registers per SipHash state word: 2 × 8 lanes is a 16-id pass, two
    /// independent dependency chains per round. Four registers (32 ids)
    /// ran 7–13 % slower on the AVX-512 build host, measured paired: 16
    /// state registers beside the id pointers and message words crowd the
    /// 32 `zmm` registers.
    const GROUPS: usize = 2;
    /// Ids per hashing pass.
    const PASS: usize = 8 * GROUPS;
    /// Indexes stage 2 tests in registers, after index 0.
    const STAGE2: u32 = 4;

    /// The lanes `0..n` of a register, `n` clamped to 8.
    #[inline]
    fn lanes_below(n: usize) -> __mmask8 {
        ((1u32 << n.min(8)) - 1) as __mmask8
    }

    /// The filter broadcast to registers: the modulus and the reciprocal
    /// of [`crate::FastRem`], the last word's position, and the words.
    struct Geometry<'a> {
        m: __m512i,
        recip: __m512i,
        recip_hi: __m512i,
        last_word: __m512i,
        words: &'a [u64],
    }

    impl<'a> Geometry<'a> {
        #[target_feature(enable = "avx512f,avx512dq")]
        fn new(filter: &FilterBits<'a>) -> Self {
            let (m, recip) = filter.m.parts();
            Geometry {
                m: _mm512_set1_epi64(m as i64),
                recip: _mm512_set1_epi64(recip as i64),
                recip_hi: _mm512_set1_epi64((recip >> 32) as i64),
                last_word: _mm512_set1_epi64(filter.words.len() as i64 - 1),
                words: filter.words,
            }
        }

        /// `h % m` per lane, exactly as [`crate::FastRem::rem`]: the high
        /// half of `h·recip` from four 32 × 32-bit products, then
        /// `r = h − q·m` and `min(r, r − m)`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn rem(&self, h: __m512i) -> __m512i {
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

        /// The lanes whose index `h % m` is a set bit.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq")]
        fn test(&self, h: __m512i) -> __mmask8 {
            let at = self.rem(h);
            let word = _mm512_min_epu64(_mm512_srli_epi64::<6>(at), self.last_word);
            // SAFETY: every lane of `word` is at most `words.len() − 1`.
            let bits =
                unsafe { _mm512_i64gather_epi64::<8>(word, self.words.as_ptr().cast::<i64>()) };
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
        let x =
            _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[0] }>(x)), c0);
        let x =
            _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[1] }>(x)), c1);
        _mm512_xor_si512(x, _mm512_srli_epi64::<{ MIX_SHIFT[2] }>(x))
    }

    /// `GROUPS` registers of SipHash state: `v[i][g]` is state word `v_i`
    /// of the eight lanes in register `g`.
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

    /// SipHash-2-4 under `key` of the `PASS` ids `ids` points at, each as its
    /// four little-endian words: lane `l` of register `g` is the hash of
    /// `ids[8g + l]`, bit-identical to `siphash24(key, &id.0)`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn hash_pass(key: [u64; 2], ids: &[&Digest; PASS]) -> [__m512i; GROUPS] {
        let mut at = [_mm512_setzero_si512(); GROUPS];
        for (g, at) in at.iter_mut().enumerate() {
            // SAFETY: eight references, 64 bytes of the array.
            *at = unsafe { _mm512_loadu_si512(ids[8 * g..].as_ptr().cast::<__m512i>()) };
        }
        let mut v: State = [[_mm512_setzero_si512(); GROUPS]; 4];
        for (i, row) in v.iter_mut().enumerate() {
            *row = [_mm512_set1_epi64((key[i % 2] ^ INIT[i]) as i64); GROUPS];
        }
        for w in 0..4 {
            let mut word = [_mm512_setzero_si512(); GROUPS];
            for g in 0..GROUPS {
                // Absolute addresses from a null base: lane `l` reads word
                // `w` of the digest its reference points at.
                let base = core::ptr::null::<i64>().wrapping_add(w);
                // SAFETY: `at[g]` holds `&Digest`s, valid for 32 bytes.
                word[g] = unsafe { _mm512_i64gather_epi64::<1>(at[g], base) };
            }
            absorb(&mut v, word);
        }
        // Whole-word messages leave no tail: the last word is the length.
        absorb(&mut v, [_mm512_set1_epi64((32u64 << 56) as i64); GROUPS]);
        for v2 in &mut v[2] {
            *v2 = _mm512_xor_si512(*v2, _mm512_set1_epi64(0xff));
        }
        for _ in 0..4 {
            sipround(&mut v);
        }
        let mut h = [_mm512_setzero_si512(); GROUPS];
        for (g, h) in h.iter_mut().enumerate() {
            *h = _mm512_xor_si512(
                _mm512_xor_si512(v[0][g], v[1][g]),
                _mm512_xor_si512(v[2][g], v[3][g]),
            );
        }
        h
    }

    /// Store `x`'s lanes under `keep` to the front of `dst`, in lane order.
    /// Compressing in a register and storing the whole register is much
    /// faster than the memory form of `vpcompressq`; the lanes past the
    /// kept ones are junk the next store overwrites.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn compress_store(dst: &mut [u64], keep: __mmask8, x: __m512i) {
        let dst = &mut dst[..8];
        // SAFETY: `dst` has eight words.
        unsafe {
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), _mm512_maskz_compress_epi64(keep, x))
        }
    }

    /// Eight words from the front of `src` as a register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(src: &[u64]) -> __m512i {
        let src = &src[..8];
        // SAFETY: `src` has eight words.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }

    /// The two-stage pass over `ids[..live]`; the slots past `live` hold
    /// valid references whose hashes are dropped.
    ///
    /// Never inlined, so the upper vector state is cleared on the way out
    /// and no legacy-SSE code (the SHA-256 kernel) ever runs beside it.
    #[inline(never)]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn probe_tile(
        filter: &FilterBits,
        ids: &[&Digest; TILE],
        live: usize,
        hit: &mut dyn FnMut(usize),
    ) {
        let geometry = Geometry::new(filter);
        let key = [filter.key.k0, filter.key.k1];
        let iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        // Stage 1: `h1` and index 0. Survivor `s` is the id at position
        // `at[s]` of the tile, hashed to `h1[s]`. Before a register is
        // stored its lanes' ids all lie past the survivors so far, so the
        // eight-word store at `survivors` stays in the arrays.
        let (mut h1s, mut at) = ([0u64; TILE], [0u64; TILE]);
        let mut survivors = 0;
        for pass in (0..live).step_by(PASS) {
            let ids: &[&Digest; PASS] = ids[pass..pass + PASS].try_into().expect("a pass");
            let h1 = hash_pass(key, ids);
            for (g, &h1) in h1.iter().enumerate() {
                let first = pass + 8 * g;
                let keep = geometry.test(h1) & lanes_below(live.saturating_sub(first));
                let j = _mm512_add_epi64(_mm512_set1_epi64(first as i64), iota);
                compress_store(&mut h1s[survivors..], keep, h1);
                compress_store(&mut at[survivors..], keep, j);
                survivors += keep.count_ones() as usize;
            }
        }
        // Stage 2: indexes 1..=4 of eight survivors at a time, `h1 + i·h2`
        // as `walk_chain` takes them. The survivors that pass are packed
        // to the front of the same arrays.
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
            compress_store(&mut h1s[passed..], keep, h1);
            compress_store(&mut at[passed..], keep, j);
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
}

/// Other architectures have no AVX-512 kernel: no `Avx512` exists.
#[cfg(not(target_arch = "x86_64"))]
mod avx512 {
    use super::{FilterBits, TILE};
    use crate::sha256::Digest;

    /// Uninhabited off x86-64.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Avx512 {}

    impl Avx512 {
        /// Always `None`.
        #[inline]
        pub fn detect() -> Option<Avx512> {
            None
        }

        pub(super) fn probe_tile(
            self,
            _: &FilterBits,
            _: &[&Digest; TILE],
            _: usize,
            _: &mut dyn FnMut(usize),
        ) {
            match self {}
        }
    }
}
