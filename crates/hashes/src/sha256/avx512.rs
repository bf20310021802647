//! `sha256d(left ‖ right)` for sixteen Merkle pairs at once in AVX-512
//! registers: one 32-bit lane per pair, every working variable and message
//! word one `zmm` register.
//!
//! A chunk's 32 children lie contiguously, pair `p` as the 64 bytes of
//! its first block, so sixteen whole-register loads, a byte swap and a
//! 16 × 16 dword transpose give message word `t` of every pair in register
//! `t`: no gathers. The three compressions of the fixed message shape run
//! unrolled, Σ/σ, Ch and Maj one `vpternlogd` each over `vprord` rotates.
//! The second block is the constant padding `PAD_64`, so its `K[t] + W[t]`
//! is a table built at compile time; the outer block's words 8–15 are
//! `PAD_32`. The digests go back through an 8 × 16 transpose and a byte
//! swap to sixteen 32-byte stores.
//!
//! Unsafe code here: the call into the `#[target_feature]` kernel, and the
//! unaligned register loads and stores over the chunk's arrays, whose sizes
//! the types fix.

use core::arch::x86_64::*;

use super::{be_word, Digest, H0, K, PAD_32, PAD_64};
use crate::cpu::Avx512;

impl Avx512 {
    /// `out[i] = sha256d(children[2i] ‖ children[2i + 1])` for the sixteen
    /// pairs of a full chunk, bit-identical to [`super::sha256d_64`].
    #[inline]
    pub(crate) fn sha256d_chunk(self, children: &[Digest; 32]) -> [Digest; 16] {
        let mut out = [Digest::ZERO; 16];
        // SAFETY: `self` exists only if `Cpu::detect` saw every target
        // feature `sha256d_x16` enables on the running CPU.
        unsafe { sha256d_x16(children, &mut out) };
        out
    }
}

/// `K[t] + W[t]` for every round of the block `PAD_64`, whose message
/// schedule depends on nothing.
const PAD_64_KW: [u32; 64] = {
    let mut w = [0u32; 64];
    let mut t = 0;
    while t < 64 {
        w[t] = if t < 16 {
            be_word(&PAD_64[t / 8], t % 8)
        } else {
            let (w15, w2) = (w[t - 15], w[t - 2]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[t - 16].wrapping_add(s0).wrapping_add(w[t - 7]).wrapping_add(s1)
        };
        t += 1;
    }
    let mut t = 0;
    while t < 64 {
        w[t] = w[t].wrapping_add(K[t]);
        t += 1;
    }
    w
};

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi32(a, b)
}

#[inline]
#[target_feature(enable = "avx512f")]
fn splat(x: u32) -> __m512i {
    _mm512_set1_epi32(x as i32)
}

#[inline]
#[target_feature(enable = "avx512f")]
fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<0x96>(a, b, c)
}

/// Σ0 of FIPS 180-4 §4.1.2.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma0(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi32::<2>(x), _mm512_ror_epi32::<13>(x), _mm512_ror_epi32::<22>(x))
}

/// Σ1.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma1(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi32::<6>(x), _mm512_ror_epi32::<11>(x), _mm512_ror_epi32::<25>(x))
}

/// σ0.
#[inline]
#[target_feature(enable = "avx512f")]
fn sigma0(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi32::<7>(x), _mm512_ror_epi32::<18>(x), _mm512_srli_epi32::<3>(x))
}

/// σ1.
#[inline]
#[target_feature(enable = "avx512f")]
fn sigma1(x: __m512i) -> __m512i {
    xor3(_mm512_ror_epi32::<17>(x), _mm512_ror_epi32::<19>(x), _mm512_srli_epi32::<10>(x))
}

/// One round with the working variables named in place (the caller
/// rotates the names), adding `$kw` = `K[t] + W[t]`. Ch is `e ? f : g`
/// (`0xCA`), Maj the majority (`0xE8`).
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
        let t1 = add(add($h, big_sigma1($e)), add(ch, $kw));
        let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
        $d = add($d, t1);
        $h = add(t1, add(big_sigma0($a), maj));
    };
}

/// Rounds `$t..$t + 8`, round `t` adding `$kw!($arg, t)`. Eight rounds
/// bring the names back to where they started.
macro_rules! rounds8 {
    ([$a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident],
     $t:expr, $kw:ident!($arg:ident)) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $kw!($arg, $t));
        round!($h, $a, $b, $c, $d, $e, $f, $g, $kw!($arg, $t + 1));
        round!($g, $h, $a, $b, $c, $d, $e, $f, $kw!($arg, $t + 2));
        round!($f, $g, $h, $a, $b, $c, $d, $e, $kw!($arg, $t + 3));
        round!($e, $f, $g, $h, $a, $b, $c, $d, $kw!($arg, $t + 4));
        round!($d, $e, $f, $g, $h, $a, $b, $c, $kw!($arg, $t + 5));
        round!($c, $d, $e, $f, $g, $h, $a, $b, $kw!($arg, $t + 6));
        round!($b, $c, $d, $e, $f, $g, $h, $a, $kw!($arg, $t + 7));
    };
}

/// `K[t] + W[t]` of a block whose last sixteen schedule words are in the
/// window `$w` (word `t` at `w[t % 16]`). From round 16 on it first
/// extends the schedule by word `t`, in place of word `t − 16`.
macro_rules! scheduled {
    ($w:ident, $t:expr) => {{
        let t: usize = $t;
        if t >= 16 {
            let (w15, w7, w2) = ($w[(t + 1) % 16], $w[(t + 9) % 16], $w[(t + 14) % 16]);
            $w[t % 16] = add(add($w[t % 16], sigma0(w15)), add(w7, sigma1(w2)));
        }
        add($w[t % 16], splat(K[t]))
    }};
}

/// `K[t] + W[t]` from a precomputed table.
macro_rules! tabled {
    ($kw:ident, $t:expr) => {
        splat($kw[$t])
    };
}

/// All 64 rounds of one compression into the named state, unrolled.
macro_rules! compress {
    ($s:tt, $kw:ident!($arg:ident)) => {
        rounds8!($s, 0, $kw!($arg));
        rounds8!($s, 8, $kw!($arg));
        rounds8!($s, 16, $kw!($arg));
        rounds8!($s, 24, $kw!($arg));
        rounds8!($s, 32, $kw!($arg));
        rounds8!($s, 40, $kw!($arg));
        rounds8!($s, 48, $kw!($arg));
        rounds8!($s, 56, $kw!($arg));
    };
}

/// Byte swap of every dword: the message and the digest are big-endian.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn bswap32(x: __m512i) -> __m512i {
    let order = _mm512_set4_epi32(0x0c0d_0e0f, 0x0809_0a0b, 0x0405_0607, 0x0001_0203);
    _mm512_shuffle_epi8(x, order)
}

/// The 4 × 4 dword transposes within each 128-bit lane of `N` rows, one
/// row a register (`N` a multiple of four): lane `L` of `out[4m + c]` is
/// column `4L + c` of rows `4m..4m + 4`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose4x4<const N: usize>(r: [__m512i; N]) -> [__m512i; N] {
    // Lane `L` of `a[2k]` interleaves columns `4L, 4L + 1` of rows
    // `2k, 2k + 1`; `a[2k + 1]` columns `4L + 2, 4L + 3`.
    let a: [__m512i; N] = core::array::from_fn(|i| {
        let (x, y) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(x, y)
        } else {
            _mm512_unpackhi_epi32(x, y)
        }
    });
    core::array::from_fn(|i| {
        let (m, c) = (i / 4, i % 4);
        let (x, y) = (a[4 * m + c / 2], a[4 * m + c / 2 + 2]);
        if c % 2 == 0 {
            _mm512_unpacklo_epi64(x, y)
        } else {
            _mm512_unpackhi_epi64(x, y)
        }
    })
}

/// Transpose of a 16 × 16 dword matrix, one row a register: lane `c` of
/// the result's row `r` is lane `r` of the input's row `c`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose16(r: [__m512i; 16]) -> [__m512i; 16] {
    let b = transpose4x4(r);
    // Two rounds of 128-bit lane shuffles gather lane `L` of
    // `b[c], b[4 + c], b[8 + c], b[12 + c]` into row `4L + c`: first the
    // even lanes (`0x88`) and the odd lanes (`0xDD`) of each pair of
    // quarters, then the same over the halves.
    let q: [__m512i; 16] = core::array::from_fn(|i| {
        let (half, odd, c) = (i / 8, (i / 4) % 2, i % 4);
        let (x, y) = (b[8 * half + c], b[8 * half + 4 + c]);
        if odd == 0 {
            _mm512_shuffle_i32x4::<0x88>(x, y)
        } else {
            _mm512_shuffle_i32x4::<0xDD>(x, y)
        }
    });
    core::array::from_fn(|row| {
        let (lane, c) = (row / 4, row % 4);
        let (x, y) = (q[4 * (lane % 2) + c], q[8 + 4 * (lane % 2) + c]);
        if lane < 2 {
            _mm512_shuffle_i32x4::<0x88>(x, y)
        } else {
            _mm512_shuffle_i32x4::<0xDD>(x, y)
        }
    })
}

/// `sha256d` of the sixteen pairs in `children` into `out`.
///
/// Never inlined, so the upper vector state is cleared on the way out and
/// the legacy-SSE SHA-256 kernel never runs beside it.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512bw")]
fn sha256d_x16(children: &[Digest; 32], out: &mut [Digest; 16]) {
    // Row `p`: the 64-byte first block of pair `p`, as big-endian words.
    let src = children.as_ptr().cast::<__m512i>();
    // SAFETY: `children` is sixteen 64-byte rows.
    let rows = core::array::from_fn(|p| bswap32(unsafe { _mm512_loadu_si512(src.add(p)) }));
    let mut w = transpose16(rows);

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = H0.map(|h0| splat(h0));
    compress!([a, b, c, d, e, f, g, h], scheduled!(w));
    let mid: [__m512i; 8] =
        core::array::from_fn(|j| add([a, b, c, d, e, f, g, h][j], splat(H0[j])));

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = mid;
    compress!([a, b, c, d, e, f, g, h], tabled!(PAD_64_KW));
    let inner: [__m512i; 8] = core::array::from_fn(|j| add([a, b, c, d, e, f, g, h][j], mid[j]));

    // The outer hash: one block of the inner digest and `PAD_32`.
    let mut w: [__m512i; 16] =
        core::array::from_fn(|t| if t < 8 { inner[t] } else { splat(be_word(&PAD_32, t - 8)) });
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = H0.map(|h0| splat(h0));
    compress!([a, b, c, d, e, f, g, h], scheduled!(w));
    let s: [__m512i; 8] =
        core::array::from_fn(|j| bswap32(add([a, b, c, d, e, f, g, h][j], splat(H0[j]))));

    // Back to one digest a pair. `u[c]`, lane `L`: words 0–3 of pair
    // `4L + c`; `u[4 + c]` its words 4–7.
    let u = transpose4x4(s);
    let dst = out.as_mut_ptr().cast::<__m256i>();
    for c in 0..4 {
        // Pairs `c` and `4 + c`, then `8 + c` and `12 + c`, a register each.
        let low = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
        let high = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
        for (q, order) in [low, high].into_iter().enumerate() {
            let two = _mm512_permutex2var_epi64(u[c], order, u[4 + c]);
            // SAFETY: `out` is sixteen 32-byte digests; `8q + c` and
            // `8q + 4 + c` are below sixteen.
            unsafe {
                _mm256_storeu_si256(dst.add(8 * q + c), _mm512_castsi512_si256(two));
                _mm256_storeu_si256(dst.add(8 * q + 4 + c), _mm512_extracti64x4_epi64::<1>(two));
            }
        }
    }
}
