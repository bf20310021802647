//! Probabilistic set-membership filters for the Graphene suite.
//!
//! Graphene's sender filter `S` and receiver filter `R` (paper §3) are
//! classic Bloom filters; §3.3 notes that "any alternative can be used if
//! Eqs. 2, 3, 4, and 5 are updated appropriately". This crate provides:
//!
//! * [`BloomFilter`] — the classic filter, sized by the paper's byte formula
//!   `-n·ln f / (8·ln² 2)`; every index of an id follows from one keyed
//!   SipHash of it (Kirsch–Mitzenmacher double hashing, §6.3's "do not
//!   rehash `k` times" with §6.1's per-filter key kept).
//! * [`Gcs`] — a Golomb-coded set: near information-theoretic size at the
//!   cost of linear-scan queries.
//!
//! Both implement the [`Membership`] trait so the protocol layer can be
//! instantiated with either backend (`DESIGN.md` §6, decision 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod bloom;
pub mod gcs;
pub mod params;

pub use bitvec::BitVec;
pub use bloom::{BloomFilter, HashStrategy};
pub use gcs::{Gcs, GcsBuilder};
pub use params::{bloom_bits, bloom_size_bytes, optimal_hash_count, MAX_HASH_COUNT};

use graphene_hashes::Digest;

/// Common interface over approximate-membership structures keyed by txids.
pub trait Membership {
    /// True if `id` may be in the set (false positives at rate [`Membership::fpr`]);
    /// false means definitely absent.
    fn contains(&self, id: &Digest) -> bool;

    /// Size of the structure as transmitted on the wire, in bytes.
    fn serialized_size(&self) -> usize;

    /// The false-positive rate this structure was built for.
    fn fpr(&self) -> f64;
}
