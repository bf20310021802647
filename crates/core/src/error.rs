//! Error types for the Graphene protocol.

use core::fmt;

/// Failures surfaced by the protocol layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrapheneError {
    /// Invalid configuration.
    BadConfig(&'static str),
    /// Protocol 1 could not reconstruct the block (expected when the
    /// receiver is missing transactions; the caller should run Protocol 2).
    Protocol1Failed(P1Failure),
    /// Protocol 2 could not reconstruct the block.
    Protocol2Failed(P2Failure),
    /// A peer sent a provably malformed structure (ban-worthy, §6.1).
    Malformed(&'static str),
}

/// Why Protocol 1 failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P1Failure {
    /// `I ⊖ I′` left a non-empty 2-core.
    IbltIncomplete,
    /// The IBLT recovered transactions the receiver does not hold — the
    /// mempool is missing part of the block.
    MissingTransactions {
        /// How many block transactions the receiver provably lacks.
        count: usize,
    },
    /// Reconstructed set hashed to the wrong Merkle root.
    MerkleMismatch,
    /// Two mempool transactions share a short ID (§6.1 collision), so the
    /// candidate set is ambiguous.
    ShortIdCollision,
    /// The peeling loop recovered the same value twice — only possible when
    /// the sender inserted an item into fewer than `k` cells (the §6.1
    /// malformed-IBLT attack). Provably the sender's fault: ban-worthy.
    Malformed(&'static str),
}

/// Why Protocol 2 failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum P2Failure {
    /// `J ⊖ J′` (with ping-pong) left a non-empty 2-core.
    IbltIncomplete,
    /// Reconstructed set hashed to the wrong Merkle root.
    MerkleMismatch,
    /// `J` peeled the same value twice on the plain (non-ping-pong) path —
    /// the §6.1 malformed-IBLT signature, provably the sender's fault.
    /// (Ping-pong decode failures are *not* classified here: the receiver's
    /// own `cancel` operations can manufacture double-decodes.)
    Malformed(&'static str),
}

impl fmt::Display for GrapheneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrapheneError::BadConfig(what) => write!(f, "bad configuration: {what}"),
            GrapheneError::Protocol1Failed(why) => write!(f, "protocol 1 failed: {why:?}"),
            GrapheneError::Protocol2Failed(why) => write!(f, "protocol 2 failed: {why:?}"),
            GrapheneError::Malformed(what) => write!(f, "malformed peer data: {what}"),
        }
    }
}

impl std::error::Error for GrapheneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GrapheneError::Protocol1Failed(P1Failure::MissingTransactions { count: 3 });
        assert!(e.to_string().contains("protocol 1"));
        assert!(format!("{e}").contains("3"));
    }
}
