//! SipHash-2-4 (Aumasson–Bernstein), implemented from the specification.
//!
//! SipHash is the keyed short-input PRF that Compact Blocks (BIP152) uses to
//! derive 6-byte short transaction IDs. Keying the short-ID hash per
//! connection/block confines any manufactured ID collision to a single peer
//! (paper §6.1, "Manufactured transaction collisions").

use core::fmt;

use crate::cpu::{Avx512, Cpu};
use crate::PASS;

/// A 128-bit SipHash key, as two little-endian 64-bit halves.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SipKey {
    /// First key word (`k0`).
    pub k0: u64,
    /// Second key word (`k1`).
    pub k1: u64,
}

impl SipKey {
    /// Build a key from two words.
    #[inline]
    pub const fn new(k0: u64, k1: u64) -> Self {
        SipKey { k0, k1 }
    }

    /// Build a key from 16 little-endian bytes (the reference layout).
    #[inline]
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        SipKey {
            k0: u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            k1: u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes")),
        }
    }
}

impl fmt::Debug for SipKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SipKey({:#018x}, {:#018x})", self.k0, self.k1)
    }
}

/// Lane count of the batch kernel behind [`siphash24_batch`].
///
/// Eight states in flight: enough independent dependency chains to cover
/// one SipHash round's latency, and — because the kernel is written as
/// plain elementwise array arithmetic — a shape the compiler can lower to
/// one 512-bit (or two 256-bit) vector per state variable on hardware
/// with 64-bit lane rotates.
pub const SIP_LANES: usize = 8;

/// The SipHash initialisation constants ("somepseudorandomlygeneratedbytes").
pub(crate) const INIT: [u64; 4] =
    [0x736f6d6570736575, 0x646f72616e646f6d, 0x6c7967656e657261, 0x7465646279746573];

/// `L` SipHash states side by side: `v[i][l]` is state word `v_i` of lane
/// `l`. `L = 1` is the streaming [`SipHasher24`], `L = SIP_LANES` the batch
/// kernel; both run the one [`sipround`].
type State<const L: usize> = [[u64; L]; 4];

fn init_state<const L: usize>(keys: &[SipKey; L]) -> State<L> {
    core::array::from_fn(|i| {
        core::array::from_fn(|l| (if i % 2 == 0 { keys[l].k0 } else { keys[l].k1 }) ^ INIT[i])
    })
}

/// The SipRound, one statement at a time across all lanes. Each lane is an
/// independent dependency chain, so the compiler is free to interleave the
/// chains per instruction (no `unsafe`, no intrinsics).
#[inline(always)]
fn sipround<const L: usize>(v: &mut State<L>) {
    let [v0, v1, v2, v3] = v;
    for l in 0..L {
        v0[l] = v0[l].wrapping_add(v1[l]);
        v1[l] = v1[l].rotate_left(13) ^ v0[l];
        v0[l] = v0[l].rotate_left(32);
        v2[l] = v2[l].wrapping_add(v3[l]);
        v3[l] = v3[l].rotate_left(16) ^ v2[l];
        v0[l] = v0[l].wrapping_add(v3[l]);
        v3[l] = v3[l].rotate_left(21) ^ v0[l];
        v2[l] = v2[l].wrapping_add(v1[l]);
        v1[l] = v1[l].rotate_left(17) ^ v2[l];
        v2[l] = v2[l].rotate_left(32);
    }
}

/// Absorb one message word per lane (two compression rounds).
#[inline(always)]
fn absorb<const L: usize>(v: &mut State<L>, m: [u64; L]) {
    for l in 0..L {
        v[3][l] ^= m[l];
    }
    sipround(v);
    sipround(v);
    for l in 0..L {
        v[0][l] ^= m[l];
    }
}

/// The four finalization rounds and the output fold, per lane.
#[inline(always)]
fn finish<const L: usize>(mut v: State<L>) -> [u64; L] {
    for lane in &mut v[2] {
        *lane ^= 0xff;
    }
    for _ in 0..4 {
        sipround(&mut v);
    }
    core::array::from_fn(|l| v[0][l] ^ v[1][l] ^ v[2][l] ^ v[3][l])
}

/// Streaming SipHash-2-4 state.
///
/// The suite mostly uses the one-shot [`siphash24`], but the streaming form
/// lets callers hash composite messages without concatenating buffers.
#[derive(Clone)]
pub struct SipHasher24 {
    v: State<1>,
    /// Pending tail bytes (< 8) in the low-order positions.
    tail: u64,
    ntail: usize,
    /// Total bytes absorbed.
    len: u64,
}

impl SipHasher24 {
    /// Initialize the state with `key`.
    pub fn new(key: SipKey) -> Self {
        SipHasher24 { v: init_state(&[key]), tail: 0, ntail: 0, len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.ntail > 0 {
            let need = 8 - self.ntail;
            let take = need.min(data.len());
            for (i, &b) in data[..take].iter().enumerate() {
                self.tail |= (b as u64) << (8 * (self.ntail + i));
            }
            self.ntail += take;
            data = &data[take..];
            if self.ntail == 8 {
                absorb(&mut self.v, [self.tail]);
                self.tail = 0;
                self.ntail = 0;
            }
        }
        while data.len() >= 8 {
            let (word, rest) = data.split_at(8);
            absorb(&mut self.v, [u64::from_le_bytes(word.try_into().expect("8 bytes"))]);
            data = rest;
        }
        for (i, &b) in data.iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.ntail = data.len();
    }

    /// Complete the hash and return the 64-bit tag.
    pub fn finalize(mut self) -> u64 {
        absorb(&mut self.v, [((self.len & 0xff) << 56) | self.tail]);
        finish(self.v)[0]
    }
}

/// One-shot SipHash-2-4 of `data` under `key`.
pub fn siphash24(key: SipKey, data: &[u8]) -> u64 {
    let mut h = SipHasher24::new(key);
    h.update(data);
    h.finalize()
}

/// The lane kernel: [`SIP_LANES`] one-shot SipHash-2-4 computations with the
/// states interleaved. From the keyed state `v`, absorb whole-word messages
/// laid out word-major (`words[w][l]` is word `w` of lane `l`'s message, so
/// each absorb reads one contiguous row) and finish. Bit-identical to
/// [`siphash24`] over the little-endian bytes of each lane's words — the
/// arithmetic is the same, only the instruction schedule differs.
#[inline(always)]
fn hash_words<const L: usize, const WORDS: usize>(
    mut v: State<L>,
    words: &[[u64; L]; WORDS],
) -> [u64; L] {
    for row in words {
        absorb(&mut v, *row);
    }
    // Whole-word messages leave no tail, so the finalization word is just
    // the length byte — identical across lanes.
    absorb(&mut v, [((WORDS as u64 * 8) & 0xff) << 56; L]);
    finish(v)
}

/// Batches shorter than this hash one item at a time, on either kernel: a
/// wide pass costs a few single hashes whatever its occupancy, and far more
/// built for AVX2, where a lane rotate is three instructions.
const MIN_LANES: usize = 3;

/// Hash every item of a slice under each of `KEYS` shared keys: `sink(j,
/// h)` receives, in input order, `h[i] = siphash24(keys[i], words(&items[j])
/// as LE bytes)`.
///
/// This is the one chunking loop behind every batch hash of the filters
/// and the IBLT, on the kernels [`Cpu::detect`] finds
/// ([`siphash24_batch_on`]).
#[inline]
pub fn siphash24_batch<T, const KEYS: usize, const WORDS: usize>(
    keys: [SipKey; KEYS],
    items: &[T],
    words: impl Fn(&T) -> [u64; WORDS],
    sink: impl FnMut(usize, [u64; KEYS]),
) {
    siphash24_batch_on(Cpu::detect().avx512, keys, items, words, sink);
}

/// [`siphash24_batch`] on the AVX-512 kernel if `simd` holds its token —
/// 16 items a pass in `zmm` registers — else on the [`SIP_LANES`]-wide lane
/// kernel: the tests call both by name. A batch of one or two items is
/// hashed one lane an item on either.
///
/// Items are read where they lie (`words` sees each once) and the keyed
/// initial states are built once per call. The spare lanes of a ragged
/// final chunk hash whatever the previous chunk left there and their
/// outputs are dropped.
#[inline]
pub fn siphash24_batch_on<T, const KEYS: usize, const WORDS: usize>(
    simd: Option<Avx512>,
    keys: [SipKey; KEYS],
    items: &[T],
    words: impl Fn(&T) -> [u64; WORDS],
    sink: impl FnMut(usize, [u64; KEYS]),
) {
    match simd {
        _ if items.len() < MIN_LANES => {
            let keyed = keys.map(|k| init_state(&[k]));
            by_chunks::<_, 1, KEYS, WORDS>(items, words, sink, |rows| {
                keyed.map(|v| hash_words(v, rows))
            });
        }
        Some(simd) => by_chunks::<_, PASS, KEYS, WORDS>(items, words, sink, |rows| {
            keys.map(|k| simd.siphash24_x16(k, rows))
        }),
        None => {
            let keyed = keys.map(|k| init_state(&[k; SIP_LANES]));
            by_chunks::<_, SIP_LANES, KEYS, WORDS>(items, words, sink, |rows| {
                keyed.map(|v| hash_words(v, rows))
            });
        }
    }
}

/// The chunking loop of [`siphash24_batch_on`] around a kernel that hashes
/// `L` messages laid out word-major (`rows[w][l]` is word `w` of lane `l`)
/// under every key.
#[inline(always)]
fn by_chunks<T, const L: usize, const KEYS: usize, const WORDS: usize>(
    items: &[T],
    words: impl Fn(&T) -> [u64; WORDS],
    mut sink: impl FnMut(usize, [u64; KEYS]),
    mut hash: impl FnMut(&[[u64; L]; WORDS]) -> [[u64; L]; KEYS],
) {
    let mut rows = [[0u64; L]; WORDS];
    for (c, chunk) in items.chunks(L).enumerate() {
        for (l, item) in chunk.iter().enumerate() {
            for (row, word) in rows.iter_mut().zip(words(item)) {
                row[l] = word;
            }
        }
        let hashes = hash(&rows);
        (0..chunk.len()).for_each(|l| sink(c * L + l, hashes.map(|h| h[l])));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key from the SipHash paper: bytes 00 01 ... 0f.
    fn ref_key() -> SipKey {
        let bytes: [u8; 16] = core::array::from_fn(|i| i as u8);
        SipKey::from_bytes(&bytes)
    }

    #[test]
    fn paper_appendix_vector() {
        // SipHash-2-4 paper, Appendix A: k = 000102..0f, m = 000102..0e,
        // output 0xa129ca6149be45e5.
        let msg: Vec<u8> = (0u8..15).collect();
        assert_eq!(siphash24(ref_key(), &msg), 0xa129ca6149be45e5);
    }

    /// First 16 entries of `vectors_sip64` from the reference implementation
    /// (outputs for messages 00, 0001, 000102, ... under the reference key),
    /// stored as little-endian byte arrays there; we compare as u64.
    #[test]
    fn reference_vectors() {
        const EXPECT: [[u8; 8]; 16] = [
            [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
            [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
            [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
            [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
            [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf],
            [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18],
            [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb],
            [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab],
            [0x62, 0x24, 0x93, 0x9a, 0x79, 0xf5, 0xf5, 0x93],
            [0xb0, 0xe4, 0xa9, 0x0b, 0xdf, 0x82, 0x00, 0x9e],
            [0xf3, 0xb9, 0xdd, 0x94, 0xc5, 0xbb, 0x5d, 0x7a],
            [0xa7, 0xad, 0x6b, 0x22, 0x46, 0x2f, 0xb3, 0xf4],
            [0xfb, 0xe5, 0x0e, 0x86, 0xbc, 0x8f, 0x1e, 0x75],
            [0x90, 0x3d, 0x84, 0xc0, 0x27, 0x56, 0xea, 0x14],
            [0xee, 0xf2, 0x7a, 0x8e, 0x90, 0xca, 0x23, 0xf7],
            [0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1],
        ];
        let msg: Vec<u8> = (0u8..16).collect();
        for (len, expect) in EXPECT.iter().enumerate() {
            let got = siphash24(ref_key(), &msg[..len]);
            assert_eq!(got, u64::from_le_bytes(*expect), "vector for message length {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).collect();
        let key = SipKey::new(0xdead_beef, 0xcafe_babe);
        let expect = siphash24(key, &data);
        for split in [0, 1, 7, 8, 9, 100, 255, 256] {
            let mut h = SipHasher24::new(key);
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    /// The lane kernel is bit-identical to scalar hashes over the
    /// little-endian byte serialization, for every message width the suite
    /// uses (1 word = IBLT values, 4 words = 32-byte digests) and for the
    /// zero-length message.
    #[test]
    fn batch_matches_scalar_at_every_width() {
        fn check<const W: usize>(msgs: [[u64; W]; SIP_LANES + 3]) {
            let key = ref_key();
            siphash24_batch(
                [key],
                &msgs,
                |msg| *msg,
                |j, [h]| {
                    let bytes: Vec<u8> = msgs[j].iter().flat_map(|w| w.to_le_bytes()).collect();
                    assert_eq!(h, siphash24(key, &bytes), "item {j} of a {W}-word batch");
                },
            );
        }
        check::<4>(core::array::from_fn(|l| {
            core::array::from_fn(|w| (l * 31 + w * 7 + 1) as u64 * 0x9e37)
        }));
        check::<1>(core::array::from_fn(|l| [0xdead_beef_u64 + l as u64]));
        check::<0>([[]; SIP_LANES + 3]);
    }

    /// The slice driver hands every item's hashes to the sink exactly once,
    /// in input order, for every position of the ragged tail in a chunk.
    #[test]
    fn batch_matches_scalar_at_every_length() {
        let keys = [ref_key(), SipKey::new(7, 9)];
        let items: Vec<u64> = (0..2 * SIP_LANES as u64 + 2).map(|i| i * 0x9e37 + 1).collect();
        for n in 0..=items.len() {
            let mut got = Vec::new();
            siphash24_batch(keys, &items[..n], |&v| [v, !v], |j, h| got.push((j, h)));
            let expect: Vec<_> = items[..n]
                .iter()
                .map(|&v| [v.to_le_bytes(), (!v).to_le_bytes()].concat())
                .map(|bytes| keys.map(|k| siphash24(k, &bytes)))
                .enumerate()
                .collect();
            assert_eq!(got, expect, "batch of {n}");
        }
    }

    /// Both kernels, called by name — on an AVX-512 host
    /// `siphash24_batch` never reaches the lanes past two items — give the
    /// scalar hashes of 1- and 4-word messages under two keys, at every
    /// length through three 16-item passes and one, so every ragged tail
    /// and the one-lane short batches are covered.
    #[test]
    fn every_batch_kernel_matches_the_scalar_hash() {
        fn check<const W: usize>(simd: Option<Avx512>, msgs: &[[u64; W]]) {
            let keys = [ref_key(), SipKey::new(7, 9)];
            for n in 0..=msgs.len() {
                let mut got = Vec::new();
                siphash24_batch_on(simd, keys, &msgs[..n], |msg| *msg, |j, h| got.push((j, h)));
                let expect: Vec<_> = msgs[..n]
                    .iter()
                    .map(|msg| msg.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
                    .map(|bytes| keys.map(|k| siphash24(k, &bytes)))
                    .enumerate()
                    .collect();
                assert_eq!(got, expect, "{simd:?}, {W}-word batch of {n}");
            }
        }
        let avx512 = Cpu::detect().avx512;
        if avx512.is_none() {
            eprintln!("every_batch_kernel_matches_the_scalar_hash: no AVX-512, lanes only");
        }
        let words = |l: u64| crate::mix64(l + 1);
        let one: Vec<[u64; 1]> = (0..3 * PASS as u64 + 1).map(|l| [words(l)]).collect();
        let four: Vec<[u64; 4]> = (0..3 * PASS as u64 + 1)
            .map(|l| core::array::from_fn(|w| words(4 * l + w as u64)))
            .collect();
        for simd in [None].into_iter().chain(avx512.map(Some)) {
            check(simd, &one);
            check(simd, &four);
        }
    }

    #[test]
    fn key_sensitivity() {
        let msg = b"graphene block 1234";
        let a = siphash24(SipKey::new(0, 0), msg);
        let b = siphash24(SipKey::new(0, 1), msg);
        let c = siphash24(SipKey::new(1, 0), msg);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
