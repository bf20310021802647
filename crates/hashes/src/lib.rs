//! Cryptographic hash substrate for the Graphene suite.
//!
//! Everything in this crate is implemented from scratch so that the
//! reproduction is fully self-contained:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 with a streaming API, plus the
//!   double-SHA256 (`sha256d`) used for Bitcoin-style transaction and block
//!   identifiers, and its fixed-shape [`SHA_LANES`]-wide forms for Merkle
//!   nodes: in AVX-512 registers where CPUID reports them, in portable
//!   lanes on hosts without the x86 SHA extensions.
//! * [`siphash`] — SipHash-2-4, the keyed short-input PRF used by Compact
//!   Blocks (BIP152) and XThin to derive per-connection short transaction IDs
//!   that an attacker cannot grind collisions for (paper §6.1).
//! * [`merkle`] — Bitcoin-style Merkle trees; Graphene receivers validate a
//!   decoded block against the Merkle root in the header (paper §3.1 step 4)
//!   with [`verify_merkle_root`], which also refuses a tree with two equal
//!   siblings (CVE-2012-2459).
//! * [`hex`] — minimal hex encoding/decoding for display and test vectors.
//! * [`fast_rem`] — the exact divide-free `% m`, the finaliser `mix64`, and
//!   the one derivation per sketch that turns one keyed hash into indexes:
//!   [`walk_chain`] for a filter's bits, [`cell_index`] for an IBLT's cells.
//! * [`probe`] — a Bloom filter's mempool pass (§6.3).
//! * [`build`] — the sketch builds: every bit index of a slice of ids, or
//!   every cell of a slice of IBLT values.
//! * [`cpu`] — the one detection: [`Cpu::detect`] asks CPUID once which of
//!   the run-time-picked kernels the host can run, and hands out the
//!   tokens that reach them.
//!
//! Four kernels are picked at run time, never by a build flag, feature or
//! setting: SHA-256 compressions on the x86 SHA extensions, and on AVX-512
//! F, DQ and BW the Merkle pair hash (`sha256::avx512`) and, in one module
//! (`avx512`), the sketch kernels — the mempool pass, the Bloom and IBLT
//! builds and [`siphash24_batch`], so the peel and the GCS hash in `zmm`
//! registers too. Elsewhere the portable lanes run; the tests call every
//! kernel the host has by name.
//!
//! Hashing is `update`/`finalize` over borrowed slices and short-ID
//! derivation is pure arithmetic: neither allocates. `merkle_root` allocates
//! once, a buffer of half the leaves: level 0 is reduced from the input
//! into it, every later level in place.
//!
//! The crate holds the workspace's six token-guarded `unsafe` calls: into
//! the SHA-256 compression on the x86 SHA extensions, into the Merkle pair
//! hash on AVX-512, and into the four sketch kernels on AVX-512 (the
//! mempool pass, the batch SipHash, the Bloom build and the IBLT build).
//! The two AVX-512 modules also load and store whole registers, and gather,
//! through raw pointers: fourteen `unsafe` blocks in all, the `asm!` one
//! included, where there were eleven before the sketch builds. A `#[target_feature]` function may only be called
//! safely from code compiled for the same features, and the build targets
//! `x86-64-v3`, so each call sits behind the run-time CPUID detection whose
//! token is the only way to reach it. Each kernel's module or call has its
//! `#[allow(unsafe_code)]`, and so does one empty `asm!` block that orders
//! the SHA-NI kernel's schedule after its rounds; every other crate keeps
//! `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512;
pub mod build;
pub mod cpu;
pub mod fast_rem;
pub mod hex;
pub mod merkle;
pub mod probe;
pub mod sha256;
pub mod siphash;

pub use build::{bloom_indexes_by, iblt_cells};
pub use cpu::{Avx512, Cpu, ShaNi};
pub use fast_rem::{cell_index, mix64, walk_chain, FastRem};
pub use merkle::{merkle_root, verify_merkle_root, MerkleProof, MerkleTree};
pub use probe::{probe_by, FilterBits};
pub use sha256::{sha256, sha256d, Digest, Sha256, SHA_LANES};
pub use siphash::{siphash24, siphash24_batch, siphash24_batch_on, SipHasher24, SipKey, SIP_LANES};

/// Items per pass of the AVX-512 sketch kernels: two registers of eight
/// 64-bit lanes.
const PASS: usize = 16;

/// A `u32` for each item of a pass — a checksum or an index — as one
/// register stores them: lane `l` in the low half of word `l / 2` for even
/// `l`, the high half for odd.
type Lanes32 = [u64; PASS / 2];

/// Derive the 8-byte "short ID" used inside IBLT cells and XThin ID lists.
///
/// The paper (§3.1) notes that the IBLT stores only 8 bytes of each
/// transaction ID while full 32-byte IDs are used for the Bloom filter. The
/// short ID is simply the first 8 bytes of the (already uniform) txid,
/// interpreted little-endian as Bitcoin convention dictates.
#[inline]
pub fn short_id_8(txid: &Digest) -> u64 {
    u64::from_le_bytes(txid.0[..8].try_into().expect("digest has 32 bytes"))
}

/// Derive the 6-byte SipHash short ID used by Compact Blocks (BIP152).
///
/// BIP152 computes `SipHash-2-4(k0, k1, txid)` and keeps the low 6 bytes. The
/// key is derived per-block from the block header and a nonce, which prevents
/// an attacker from pre-computing colliding transactions (paper §6.1).
#[inline]
pub fn short_id_6(key: SipKey, txid: &Digest) -> u64 {
    siphash24(key, &txid.0) & 0x0000_ffff_ffff_ffff
}

/// Other architectures have no AVX-512 sketch kernels: no `Avx512` exists.
#[cfg(not(target_arch = "x86_64"))]
mod avx512 {
    use crate::{Avx512, Digest, FastRem, FilterBits, Lanes32, SipKey, PASS};
    use core::ops::Range;

    impl Avx512 {
        pub(crate) fn probe_tile(
            self,
            _: &FilterBits,
            _: &[&Digest; crate::probe::TILE],
            _: usize,
            _: &mut dyn FnMut(usize),
        ) {
            match self {}
        }

        pub(crate) fn siphash24_x16<const W: usize>(
            self,
            _: SipKey,
            _: &[[u64; PASS]; W],
        ) -> [u64; PASS] {
            match self {}
        }

        pub(crate) fn bloom_rows(
            self,
            _: SipKey,
            _: FastRem,
            _: &[&Digest],
            _: Range<u32>,
            _: &mut [Lanes32],
        ) {
            match self {}
        }

        pub(crate) fn iblt_rows(
            self,
            _: SipKey,
            _: FastRem,
            _: &[u64],
            _: Range<u32>,
            _: &mut [Lanes32],
            _: &mut [Lanes32],
        ) {
            match self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_id_8_is_le_prefix() {
        let mut d = Digest([0u8; 32]);
        d.0[..8].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(short_id_8(&d), u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn short_id_6_masks_to_48_bits() {
        let d = sha256(b"graphene");
        let id = short_id_6(SipKey::new(1, 2), &d);
        assert!(id <= 0x0000_ffff_ffff_ffff);
        // Different keys must give different IDs (overwhelmingly).
        assert_ne!(id, short_id_6(SipKey::new(3, 4), &d));
    }
}
