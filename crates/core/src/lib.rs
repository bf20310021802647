//! Graphene: efficient interactive set reconciliation for block propagation.
//!
//! This crate is the paper's primary contribution (Ozisik et al., SIGCOMM
//! 2019): a block-relay protocol combining a Bloom filter `S` with an IBLT
//! `I`, each too weak alone but whose *sum* is smaller than either — or than
//! any deployed alternative (Compact Blocks, XThin).
//!
//! # Protocol 1 (receiver has the whole block)
//!
//! The sender learns the receiver's mempool size `m` from `getdata`, picks
//! the false-positive rate `f_S = a/(m-n)` that minimizes the combined size
//! of `S` and `I` (Eq. 2), pads the IBLT capacity to `a* > a` false
//! positives with β-assurance (Theorem 1), and sends both. The receiver
//! passes her mempool through `S`, builds `I′` from the survivors, and peels
//! `I ⊖ I′` to eliminate the false positives. See [`protocol1`].
//!
//! # Protocol 2 (receiver missing transactions)
//!
//! If `I ⊖ I′` does not decode (or the Merkle root fails), the receiver
//! derives β-assurance bounds `x* ≤ x` and `y* ≥ y` on the unobservable
//! true/false-positive split of her candidate set (Theorems 2–3), sends a
//! Bloom filter `R` of the candidates, and the sender answers with the
//! definitely-missing transactions plus an IBLT `J` sized for `b + y*`.
//! Ping-pong decoding across `I ⊖ I′` and `J ⊖ J′` (§4.2) squares the
//! residual failure rate. See [`protocol2`].
//!
//! The same machinery synchronizes whole mempools ([`mempool_sync`]), with
//! the `m ≈ n` special case of §3.3.1 handled via a third filter `F`.
//!
//! [`engine`] holds the one receiver state machine (Protocol 1, Protocol
//! 2, then the recovery ladder) and the stateless responder; [`session`],
//! [`recovery`] and [`mempool_sync`] drive them over a lossless synchronous
//! link with exact byte accounting per message — the quantity every figure
//! in the paper plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod config;
pub mod engine;
pub mod error;
pub mod mempool_sync;
pub mod ordering;
pub mod params;
pub mod protocol1;
pub mod protocol2;
pub mod recovery;
pub mod session;

pub use config::GrapheneConfig;
pub use engine::{RecoveryPolicy, RungKind};
pub use error::GrapheneError;
pub use params::{a_star, optimal_a, optimal_b, x_star, y_star, ProtocolParams};
pub use recovery::{relay_with_recovery, LadderReport, RungReport};
pub use session::{relay_block, NodeSnapshot, RelayOutcome, RelayReport};
