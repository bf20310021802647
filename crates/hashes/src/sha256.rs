//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! One allocation-free compression function, generic over a lane count,
//! serves two callers: the streaming [`Sha256`] hasher runs it one lane
//! wide, and [`sha256d_64`] runs it [`SHA_LANES`] wide to hash a whole
//! chunk of Merkle nodes per pass. It is validated against the NIST test
//! vectors in the unit tests below, including the one-million-`a` vector.

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

/// Lane count of the batched pair hash ([`sha256d_64`]).
///
/// Sixteen 32-bit lanes fill one 512-bit vector per working variable, and
/// the kernel is plain elementwise array arithmetic, so on an AVX-512 host
/// a round is a handful of `zmm` instructions with single-instruction
/// rotates (`vprord`): measured there, one 16-lane `sha256d_64` costs 2.4
/// one-lane ones. A narrower vector unit splits every lane operation (two
/// `ymm` or four `xmm` per variable, rotates as shift/shift/or) and the
/// pass costs 3.3 (AVX2) or 6.7 (SSE2) one-lane hashes — still well under
/// sixteen. `merkle::next_level` chunks a level by this constant.
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
    /// One lane of [`compress`] state.
    state: [[u32; 1]; 8],
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
        Sha256 { state: H0.map(|h| [h]), len: 0, buf: [0u8; 64], buf_len: 0 }
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
        digest_of_lane(&self.state, 0)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let words = core::array::from_fn(|t| {
            [u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().expect("4-byte chunk"))]
        });
        compress(&mut self.state, &words);
    }
}

/// Serialize lane `l` of a finished state as the big-endian digest.
fn digest_of_lane<const L: usize>(state: &[[u32; L]; 8], l: usize) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word[l].to_be_bytes());
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
const PAD_64: [u32; 16] = [0x8000_0000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512];

/// Words 8..16 of the second hash's only block: a 32-byte message leaves
/// room for the marker, zeros and the bit length 256 behind it.
const PAD_32: [u32; 8] = [0x8000_0000, 0, 0, 0, 0, 0, 0, 256];

/// `sha256d(left ‖ right)` for `L` pairs at once — the Merkle node hash.
///
/// The message shape is fixed (64 bytes, then the 32-byte inner digest),
/// so both padding blocks are constants and there is no streaming buffer:
/// three `compress` calls cover all `L` lanes. `out[l]` is bit-identical
/// to [`sha256d`] over the concatenated bytes of `pairs[l]`. Callers with
/// fewer than `L` live pairs repeat a live one in the spare lanes and
/// discard those outputs.
pub fn sha256d_64<const L: usize>(pairs: [(&Digest, &Digest); L]) -> [Digest; L] {
    let be_word = |d: &Digest, t: usize| {
        u32::from_be_bytes(d.0[4 * t..4 * t + 4].try_into().expect("4-byte chunk"))
    };
    let block: [[u32; L]; 16] = core::array::from_fn(|t| {
        core::array::from_fn(|l| {
            if t < 8 {
                be_word(pairs[l].0, t)
            } else {
                be_word(pairs[l].1, t - 8)
            }
        })
    });
    let mut inner = H0.map(|h| [h; L]);
    compress(&mut inner, &block);
    compress(&mut inner, &PAD_64.map(|w| [w; L]));

    let block: [[u32; L]; 16] =
        core::array::from_fn(|t| if t < 8 { inner[t] } else { [PAD_32[t - 8]; L] });
    let mut outer = H0.map(|h| [h; L]);
    compress(&mut outer, &block);
    core::array::from_fn(|l| digest_of_lane(&outer, l))
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
