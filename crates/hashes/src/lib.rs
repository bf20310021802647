//! Cryptographic hash substrate for the Graphene suite.
//!
//! Everything in this crate is implemented from scratch so that the
//! reproduction is fully self-contained:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 with a streaming API, plus the
//!   double-SHA256 (`sha256d`) used for Bitcoin-style transaction and block
//!   identifiers, and its fixed-shape [`SHA_LANES`]-wide form for Merkle
//!   nodes.
//! * [`siphash`] — SipHash-2-4, the keyed short-input PRF used by Compact
//!   Blocks (BIP152) and XThin to derive per-connection short transaction IDs
//!   that an attacker cannot grind collisions for (paper §6.1).
//! * [`merkle`] — Bitcoin-style Merkle trees; Graphene receivers validate a
//!   decoded block against the Merkle root in the header (paper §3.1 step 4).
//! * [`hex`] — minimal hex encoding/decoding for display and test vectors.
//! * [`fast_rem`] — the exact divide-free `% m` and the finaliser `mix64`
//!   that turn one keyed hash into a filter's bit indexes or an IBLT's cell
//!   indexes.
//!
//! Hashing is `update`/`finalize` over borrowed slices and short-ID
//! derivation is pure arithmetic: neither allocates. `merkle_root` allocates
//! once, for the buffer it reduces level by level in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fast_rem;
pub mod hex;
pub mod merkle;
pub mod sha256;
pub mod siphash;

pub use fast_rem::{mix64, FastRem};
pub use merkle::{merkle_root, MerkleProof, MerkleTree};
pub use sha256::{sha256, sha256d, Digest, Sha256, SHA_LANES};
pub use siphash::{siphash24, siphash24_batch, SipHasher24, SipKey, SIP_LANES};

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
