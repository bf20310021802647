//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Every compression goes through one of two kernels. On an x86 host with
//! the SHA extensions (the [`crate::ShaNi`] token, detected at run time
//! once per hasher or Merkle tree) it is one block per call on the CPU's `sha256rnds2` rounds. On
//! every other host it is the portable compression function, generic over
//! a lane count: the streaming [`Sha256`] hasher runs it one lane wide, and
//! [`sha256d_64`] runs it [`SHA_LANES`] wide to hash a whole chunk of
//! Merkle nodes per pass. Both kernels are validated against the NIST test
//! vectors and against each other in the unit tests below.
//!
//! A third kernel hashes Merkle nodes only: on an x86-64 host with AVX-512
//! F, DQ and BW (the [`crate::Avx512`] token of [`crate::Cpu::detect`]) a full chunk of
//! [`SHA_LANES`] pairs runs in `zmm` registers, one pair a 32-bit lane
//! (`avx512`). The unit tests hold it to [`sha256d_64`].

use core::fmt;

/// A 32-byte hash output.
///
/// `Digest` is used throughout the suite as the canonical transaction /
/// block identifier type (the result of [`sha256d`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, useful as a sentinel in tests.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Interpret the first 8 bytes as a little-endian u64 (short ID).
    #[inline]
    pub fn low_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("32 >= 8"))
    }

    /// The digest as four little-endian words — the message shape the
    /// SipHash lane kernel consumes.
    #[inline]
    pub fn le_words(&self) -> [u64; 4] {
        core::array::from_fn(|w| {
            u64::from_le_bytes(self.0[w * 8..w * 8 + 8].try_into().expect("8-byte word"))
        })
    }

    /// Render as lowercase hex (natural byte order).
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parse from 64 hex characters (natural byte order).
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Pairs a Merkle level is hashed by at a time: the chunk of
/// `merkle::next_level` and the lane count of [`sha256d_64`].
///
/// Sixteen 32-bit lanes fill one 512-bit vector per working variable. On
/// an AVX-512 host a full chunk goes through the hand-written kernel
/// (`Avx512::sha256d_chunk`), and the rest of a level through the SHA
/// extensions. [`sha256d_64`] is plain elementwise array arithmetic for
/// hosts with neither: measured when it was the only kernel, its 16-lane
/// pass compiled for AVX-512 cost 2.4 one-lane pair hashes, and split
/// into narrower vectors (two `ymm` or four `xmm` per variable, rotates as
/// shift/shift/or) 3.3 (AVX2) or 6.7 (SSE2) — still well under sixteen.
pub const SHA_LANES: usize = 16;

/// The SHA-256 compression function (FIPS 180-4 §6.2.2) over `L`
/// independent lanes: `state[j][l]` is working variable `j` of lane `l`,
/// `block[t][l]` is big-endian message word `t` of lane `l`. Every lane
/// runs exactly the scalar arithmetic, so lane `l` is bit-identical to a
/// one-lane call over the same state and block.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `l` picks one lane out of several rows at once
fn compress<const L: usize>(state: &mut [[u32; L]; 8], block: &[[u32; L]; 16]) {
    let mut w = [[0u32; L]; 64];
    w[..16].copy_from_slice(block);
    for t in 16..64 {
        for l in 0..L {
            let (w15, w2) = (w[t - 15][l], w[t - 2][l]);
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[t][l] = w[t - 16][l].wrapping_add(s0).wrapping_add(w[t - 7][l]).wrapping_add(s1);
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One round with the working variables named in place: the caller
    // rotates the names instead of moving eight values.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            for l in 0..L {
                let s1 = $e[l].rotate_right(6) ^ $e[l].rotate_right(11) ^ $e[l].rotate_right(25);
                let ch = ($e[l] & $f[l]) ^ (!$e[l] & $g[l]);
                let t1 = $h[l]
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$t])
                    .wrapping_add(w[$t][l]);
                let s0 = $a[l].rotate_right(2) ^ $a[l].rotate_right(13) ^ $a[l].rotate_right(22);
                let maj = ($a[l] & $b[l]) ^ ($a[l] & $c[l]) ^ ($b[l] & $c[l]);
                $d[l] = $d[l].wrapping_add(t1);
                $h[l] = t1.wrapping_add(s0.wrapping_add(maj));
            }
        };
    }
    for t in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, t);
        round!(h, a, b, c, d, e, f, g, t + 1);
        round!(g, h, a, b, c, d, e, f, t + 2);
        round!(f, g, h, a, b, c, d, e, t + 3);
        round!(e, f, g, h, a, b, c, d, t + 4);
        round!(d, e, f, g, h, a, b, c, t + 5);
        round!(c, d, e, f, g, h, a, b, t + 6);
        round!(b, c, d, e, f, g, h, a, t + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for l in 0..L {
            s[l] = s[l].wrapping_add(v[l]);
        }
    }
}

/// A 64-byte message block as its two 32-byte halves, so that a Merkle
/// pair is hashed where its two children lie.
type Block<'a> = [&'a [u8; 32]; 2];

/// One compression of one block: on the SHA extensions when `ni` says the
/// host has them, else one lane of [`compress`]. Both give the same state.
#[inline(always)]
fn compress_one(ni: Option<ShaNi>, state: &mut [u32; 8], block: Block) {
    match ni {
        Some(ni) => ni.compress(state, block),
        None => compress_lane(state, block),
    }
}

/// One lane of [`compress`] over one block, out of line: the fallback is
/// the slow path, and keeping it apart keeps [`compress_one`] a branch and
/// a call wherever it is inlined.
#[inline(never)]
fn compress_lane(state: &mut [u32; 8], block: Block) {
    let mut lane = state.map(|s| [s]);
    compress(&mut lane, &core::array::from_fn(|t| [be_word(block[t / 8], t % 8)]));
    *state = lane.map(|[s]| s);
}

use crate::cpu::{Cpu, ShaNi};

/// The compression on the x86 SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`), following Intel's reference sequence: the state lives in
/// two vectors as `ABEF` and `CDGH`, each `sha256rnds2` runs two rounds and
/// each `sha256msg1`/`sha256msg2` pair extends the schedule by four words.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod ni {
    #[cfg(target_arch = "x86")]
    use core::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::*;

    use super::Block;
    use crate::cpu::ShaNi;

    impl ShaNi {
        /// The state order of [`compress_ni`]: `[f, e, b, a]` is the
        /// `ABEF` vector and `[h, g, d, c]` the `CDGH` one, lane 0 first.
        pub(crate) const ORDER: [usize; 8] = [5, 4, 1, 0, 7, 6, 3, 2];

        /// One compression of `block` into `state`.
        #[inline(always)]
        pub(crate) fn compress(self, state: &mut [u32; 8], block: Block) {
            // SAFETY: `self` exists only if `Cpu::detect` saw every target
            // feature `compress_ni` enables on the running CPU.
            #[allow(unsafe_code)]
            unsafe {
                compress_ni(state, block)
            }
        }
    }

    /// Message words `W[t+16..t+20]` from the sixteen before them,
    /// `W[t..t+4]` (`v0`) through `W[t+12..t+16]` (`v3`).
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(v0, v1), _mm_alignr_epi8::<4>(v3, v2));
        _mm_sha256msg2_epu32(t, v3)
    }

    /// `w`, which the compiler must take as computed after `state`.
    ///
    /// The message schedule does not depend on the rounds, so left free the
    /// compiler may hoist all of it above the first round. Some builds did:
    /// the sixteen windows then live at once, spill into `xmm16`–`xmm31`,
    /// and their EVEX encodings beside the legacy-SSE SHA instructions
    /// made the kernel 17–20 % slower on the AVX-512 build host. Tied
    /// to the state after group `g`, the step for group `g + 4` runs while
    /// groups `g + 1` to `g + 3` do, as written.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn tied(mut w: __m128i, state: __m128i) -> __m128i {
        // SAFETY: the template is a comment: no instruction is emitted, and
        // nothing but the two named registers is read or written.
        unsafe {
            core::arch::asm!(
                "/* {w} {state} */",
                w = inout(xmm_reg) w,
                state = in(xmm_reg) state,
                options(pure, nomem, nostack, preserves_flags),
            );
        }
        w
    }

    /// One compression of `block` into `state`, which lies in
    /// [`ShaNi::ORDER`].
    ///
    /// Never inlined: the SHA instructions exist only in legacy-SSE
    /// encodings, and inlined into code built for AVX-512 (the upper
    /// vector state left dirty around them) the kernel ran about 150×
    /// slower on the AVX-512 build host. Behind a call the compiler clears
    /// the upper state first.
    #[inline(never)]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_ni(state: &mut [u32; 8], block: Block) {
        // The state lies in `ORDER`: lane 0 of each vector first.
        let s = state.map(|w| w as i32);
        let mut abef = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let mut cdgh = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Message words `4i..4i + 4`, big-endian, from bytes `16i..16i + 16`.
        let load = |i: usize| {
            let q = |j: usize| {
                let at = 16 * (i % 2) + 8 * j;
                i64::from_le_bytes(block[i / 2][at..at + 8].try_into().expect("8 bytes"))
            };
            _mm_shuffle_epi8(_mm_set_epi64x(q(1), q(0)), bswap)
        };
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        // Rounds `4i..4i + 4` over message words `w`, two per `sha256rnds2`.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {
                let k = |j: usize| super::K[4 * $i + j] as i32;
                let wk = _mm_add_epi32($w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            };
        }
        // The four registers rotate through the schedule's sliding window:
        // once group `g` has used its words, they become group `g + 4`'s,
        // computed after its rounds (see `tied`).
        for i in [0, 4, 8] {
            rounds4!(w0, i);
            w0 = schedule(tied(w0, abef), w1, w2, w3);
            rounds4!(w1, i + 1);
            w1 = schedule(tied(w1, abef), w2, w3, w0);
            rounds4!(w2, i + 2);
            w2 = schedule(tied(w2, abef), w3, w0, w1);
            rounds4!(w3, i + 3);
            w3 = schedule(tied(w3, abef), w0, w1, w2);
        }
        rounds4!(w0, 12);
        rounds4!(w1, 13);
        rounds4!(w2, 14);
        rounds4!(w3, 15);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        *state = [
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<0>(cdgh),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<3>(cdgh),
        ]
        .map(|w| w as u32);
    }
}

/// The Merkle pair kernel on AVX-512 (`Avx512::sha256d_chunk`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512;

/// Other architectures have no AVX-512 pair kernel (and no `Avx512`).
#[cfg(not(target_arch = "x86_64"))]
mod avx512 {
    use super::Digest;
    use crate::cpu::Avx512;

    impl Avx512 {
        pub(crate) fn sha256d_chunk(self, _: &[Digest; 32]) -> [Digest; 16] {
            match self {}
        }
    }
}

/// Other architectures have no SHA-extension kernel: no `ShaNi` exists.
#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
mod ni {
    use crate::cpu::ShaNi;

    impl ShaNi {
        pub(crate) const ORDER: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

        pub(crate) fn compress(self, _: &mut [u32; 8], _: super::Block) {
            match self {}
        }
    }
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use graphene_hashes::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    /// The SHA-extension kernel, if the host has it (see [`compress_one`]).
    ni: Option<ShaNi>,
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self::on(Cpu::detect().sha)
    }

    /// A fresh hasher whose every compression runs on `ni`'s kernel.
    fn on(ni: Option<ShaNi>) -> Self {
        Sha256 { ni, state: initial(ni), len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Complete the hash and return the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last eight bytes of a block. `update` leaves `buf_len < 64`.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room for the length: it goes in a block of its own.
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        self.compress(&block);
        finish(self.ni, &self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let (lo, hi) = block.split_at(32);
        let halves = [lo, hi].map(|h| h.try_into().expect("32-byte half"));
        compress_one(self.ni, &mut self.state, halves);
    }
}

/// Big-endian message word `t` of `bytes`.
#[inline]
const fn be_word(bytes: &[u8], t: usize) -> u32 {
    u32::from_be_bytes([bytes[4 * t], bytes[4 * t + 1], bytes[4 * t + 2], bytes[4 * t + 3]])
}

/// Where a kernel keeps the chaining state: FIPS word `order(ni)[i]` at
/// index `i`. The portable kernel keeps FIPS order `a..h`; the SHA
/// extensions keep [`ShaNi::ORDER`], the two vectors `sha256rnds2` works
/// on, so a compression loads and stores the state as it lies.
fn order(ni: Option<ShaNi>) -> [usize; 8] {
    match ni {
        Some(_) => ShaNi::ORDER,
        None => [0, 1, 2, 3, 4, 5, 6, 7],
    }
}

/// The initial state `H0` in the order `ni` keeps it.
#[inline]
fn initial(ni: Option<ShaNi>) -> [u32; 8] {
    const NI_H0: [u32; 8] = {
        let o = ShaNi::ORDER;
        [H0[o[0]], H0[o[1]], H0[o[2]], H0[o[3]], H0[o[4]], H0[o[5]], H0[o[6]], H0[o[7]]]
    };
    match ni {
        Some(_) => NI_H0,
        None => H0,
    }
}

/// The digest of a finished state kept in the order of `ni`.
#[inline]
fn finish(ni: Option<ShaNi>, state: &[u32; 8]) -> Digest {
    let mut fips = [0u32; 8];
    for (&j, &word) in order(ni).iter().zip(state) {
        fips[j] = word;
    }
    digest_of(&fips)
}

/// Serialize a finished state in FIPS order as the big-endian digest.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Double SHA-256 (`SHA256(SHA256(data))`), the Bitcoin txid/block-id hash.
pub fn sha256d(data: &[u8]) -> Digest {
    sha256(sha256(data).as_ref())
}

/// Padding block of a 64-byte message: the `0x80` marker, zeros, and the
/// bit length 512 — the whole second block of the first hash.
const PAD_64: [[u8; 32]; 2] = [pad_half(true, 0), pad_half(false, 512)];

/// Second half of the second hash's only block: a 32-byte message leaves
/// room for the marker, zeros and the bit length 256 behind it.
const PAD_32: [u8; 32] = pad_half(true, 256);

/// 32 bytes of padding: the `0x80` marker first if `marker`, zeros, and
/// `bits` big-endian in the last eight bytes.
const fn pad_half(marker: bool, bits: u64) -> [u8; 32] {
    let mut half = [0u8; 32];
    if marker {
        half[0] = 0x80;
    }
    let len = bits.to_be_bytes();
    let mut i = 0;
    while i < 8 {
        half[24 + i] = len[i];
        i += 1;
    }
    half
}

/// `sha256d(left ‖ right)` for each of up to `L` pairs, one
/// [`compress_one`] per block: the Merkle node hash on a host with the SHA
/// extensions (`ni`) for every pair outside a full AVX-512 chunk, and for
/// pairs too few to fill a [`sha256d_64`] pass on one without. The blocks go in stages — the first block of every
/// pair, then the second of every pair, then each outer hash — so that
/// consecutive compressions are independent and the CPU overlaps them.
/// `out[i]` hashes `pairs[i]`; entries past `pairs.len()` are
/// [`Digest::ZERO`].
pub(crate) fn sha256d_pairs<const L: usize>(
    ni: Option<ShaNi>,
    pairs: &[(&Digest, &Digest)],
) -> [Digest; L] {
    let inner = &mut [initial(ni); L][..pairs.len()];
    for (state, (left, right)) in inner.iter_mut().zip(pairs) {
        compress_one(ni, state, [&left.0, &right.0]);
    }
    for state in inner.iter_mut() {
        compress_one(ni, state, [&PAD_64[0], &PAD_64[1]]);
    }
    let mut out = [Digest::ZERO; L];
    for (digest, state) in out.iter_mut().zip(inner.iter()) {
        let mut outer = initial(ni);
        compress_one(ni, &mut outer, [&finish(ni, state).0, &PAD_32]);
        *digest = finish(ni, &outer);
    }
    out
}

/// `sha256d(left ‖ right)` for `L` pairs at once — the Merkle node hash on
/// a host without the SHA extensions, outside a full AVX-512 chunk.
///
/// The message shape is fixed (64 bytes, then the 32-byte inner digest),
/// so both padding blocks are constants and there is no streaming buffer:
/// three `compress` calls cover all `L` lanes. `out[l]` is bit-identical
/// to [`sha256d`] over the concatenated bytes of `pairs[l]`. Callers with
/// fewer than `L` live pairs repeat a live one in the spare lanes and
/// discard those outputs.
pub fn sha256d_64<const L: usize>(pairs: [(&Digest, &Digest); L]) -> [Digest; L] {
    let block: [[u32; L]; 16] = core::array::from_fn(|t| {
        core::array::from_fn(|l| {
            if t < 8 {
                be_word(&pairs[l].0 .0, t)
            } else {
                be_word(&pairs[l].1 .0, t - 8)
            }
        })
    });
    let mut inner = H0.map(|h| [h; L]);
    compress(&mut inner, &block);
    compress(&mut inner, &core::array::from_fn(|t| [be_word(&PAD_64[t / 8], t % 8); L]));

    let block: [[u32; L]; 16] =
        core::array::from_fn(|t| if t < 8 { inner[t] } else { [be_word(&PAD_32, t - 8); L] });
    let mut outer = H0.map(|h| [h; L]);
    compress(&mut outer, &block);
    core::array::from_fn(|l| digest_of(&outer.map(|w| w[l])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Exercise message lengths around the 55/56/64-byte padding edges.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn every_padding_length_golden() {
        // The digests of the 300 prefixes of a fixed message, chained into
        // one digest; the expected value comes from the byte-at-a-time
        // padding loop of commit 6dcf8b0. Covers every `buf_len`, including
        // the 56..=63 cases whose length field needs a block of its own.
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let mut all = Sha256::new();
        for len in 0..300 {
            all.update(sha256(&data[..len]).as_ref());
        }
        assert_eq!(
            all.finalize().to_hex(),
            "df90175783c44235cf6aefd935a2c2747f42399416d16789ece339f1fd26d835"
        );
    }

    /// The SHA-extension kernel, or `None` after saying that its half of a
    /// test cannot run on this host.
    fn ni_or_skip(test: &str) -> Option<ShaNi> {
        let ni = Cpu::detect().sha;
        if ni.is_none() {
            eprintln!("{test}: no SHA extensions on this host, SHA-NI half skipped");
        }
        ni
    }

    fn sha256_on(ni: Option<ShaNi>, data: &[u8]) -> Digest {
        let mut h = Sha256::on(ni);
        h.update(data);
        h.finalize()
    }

    #[test]
    fn ni_compression_matches_the_lane_kernel() {
        let Some(ni) = ni_or_skip("ni_compression_matches_the_lane_kernel") else {
            return;
        };
        let mut x = 0u64;
        let mut word = || {
            x += 1;
            crate::mix64(x) as u32
        };
        for case in 0..2000 {
            let state: [u32; 8] = core::array::from_fn(|_| word());
            let block: [[u8; 32]; 2] =
                core::array::from_fn(|_| core::array::from_fn(|_| word() as u8));
            let mut lane = state.map(|s| [s]);
            compress(&mut lane, &core::array::from_fn(|t| [be_word(&block[t / 8], t % 8)]));
            let mut on_ni = ShaNi::ORDER.map(|j| state[j]);
            ni.compress(&mut on_ni, [&block[0], &block[1]]);
            assert_eq!(on_ni, ShaNi::ORDER.map(|j| lane[j][0]), "case {case}");
        }
    }

    #[test]
    fn avx512_pair_kernel_matches_the_lane_kernel() {
        let Some(wide) = Cpu::detect().avx512 else {
            eprintln!(
                "avx512_pair_kernel_matches_the_lane_kernel: no AVX-512 F/DQ/BW on this host, \
                 AVX-512 half skipped"
            );
            return;
        };
        let mut x = 0u64;
        let mut byte = || {
            x += 1;
            crate::mix64(x) as u8
        };
        for case in 0..2000 {
            let children: [Digest; 32] =
                core::array::from_fn(|_| Digest(core::array::from_fn(|_| byte())));
            let lanes = sha256d_64::<16>(core::array::from_fn(|p| {
                (&children[2 * p], &children[2 * p + 1])
            }));
            assert_eq!(wide.sha256d_chunk(&children), lanes, "case {case}");
        }
    }

    #[test]
    fn every_padding_length_on_both_kernels() {
        // `every_padding_length_golden` through each kernel by name, and
        // the prefixes digest by digest across the two.
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let ni = ni_or_skip("every_padding_length_on_both_kernels");
        for kernel in core::iter::once(None).chain(ni.map(Some)) {
            let mut all = Sha256::on(kernel);
            for len in 0..=300 {
                let d = sha256_on(kernel, &data[..len]);
                assert_eq!(d, sha256_on(None, &data[..len]), "len {len}");
                if len < 300 {
                    all.update(d.as_ref());
                }
            }
            assert_eq!(
                all.finalize().to_hex(),
                "df90175783c44235cf6aefd935a2c2747f42399416d16789ece339f1fd26d835",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn sha256d_is_composition() {
        let d = sha256d(b"hello");
        assert_eq!(d, sha256(sha256(b"hello").as_ref()));
        // Known value: double-SHA256 of "hello".
        assert_eq!(d.to_hex(), "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex("ab"), None); // wrong length
    }
}
