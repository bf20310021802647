//! Blocks, headers and transaction ordering.

use crate::tx::{Transaction, TxId};
use graphene_hashes::{merkle_root, sha256d, Digest};

/// An 80-byte Bitcoin-style block header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Protocol version.
    pub version: i32,
    /// ID of the previous block.
    pub prev_block: Digest,
    /// Merkle root over the block's transaction IDs, in block order.
    pub merkle_root: Digest,
    /// Unix timestamp.
    pub time: u32,
    /// Compact difficulty target.
    pub bits: u32,
    /// Proof-of-work nonce.
    pub nonce: u32,
}

/// How the transactions inside a block are ordered (paper §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderingScheme {
    /// Canonical Transaction Ordering: sorted by txid. Deployed by Bitcoin
    /// Cash in fall 2018; eliminates the `n·log2(n)`-bit ordering cost.
    #[default]
    Ctor,
    /// Arbitrary (miner-chosen) order: relaying requires shipping an
    /// explicit permutation of `n·log2(n)` bits on top of Graphene.
    MinerChosen,
}

impl OrderingScheme {
    /// Extra bytes Graphene must transmit to convey the order of `n`
    /// transactions under this scheme: `⌈n·log2(n)⌉` bits for miner-chosen
    /// order, zero for CTOR.
    pub fn encoding_bytes(self, n: usize) -> usize {
        match self {
            OrderingScheme::Ctor => 0,
            OrderingScheme::MinerChosen => {
                if n <= 1 {
                    0
                } else {
                    ((n as f64) * (n as f64).log2() / 8.0).ceil() as usize
                }
            }
        }
    }
}

/// Errors from block construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The bodies are not the verified IDs' bodies, position by position.
    BodyMismatch {
        /// First position whose body is missing, surplus or another
        /// transaction's.
        position: usize,
    },
    /// CTOR block whose transactions are not in canonical order.
    NotCanonicalOrder,
}

impl core::fmt::Display for BlockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BlockError::BodyMismatch { position } => {
                write!(f, "body at position {position} is not the verified transaction's")
            }
            BlockError::NotCanonicalOrder => write!(f, "transactions violate CTOR"),
        }
    }
}

impl std::error::Error for BlockError {}

/// A block: header plus ordered transactions.
#[derive(Clone, Debug)]
pub struct Block {
    header: Header,
    /// `header.id()`, hashed once when the block is made.
    id: Digest,
    txns: Vec<Transaction>,
    ordering: OrderingScheme,
}

impl Block {
    /// Assemble a block from transactions, ordering them per `ordering` and
    /// committing the Merkle root into the header.
    pub fn assemble(
        prev_block: Digest,
        time: u32,
        mut txns: Vec<Transaction>,
        ordering: OrderingScheme,
    ) -> Block {
        if ordering == OrderingScheme::Ctor {
            txns.sort_by(|a, b| a.id().cmp(b.id()));
        }
        let ids: Vec<TxId> = txns.iter().map(|t| *t.id()).collect();
        let header = Header {
            version: 2,
            prev_block,
            merkle_root: merkle_root(&ids),
            time,
            bits: 0x1d00_ffff,
            nonce: 0,
        };
        Block { header, id: header.id(), txns, ordering }
    }

    /// The block a relay delivered: `header` and `ids` as the receiver's
    /// engine reported them, `id` the block ID the receiver asked for, and
    /// the body of every ID in the same order.
    ///
    /// `id` and `ids` must already be verified against the header — the
    /// engine's `Step::Done` guarantees that `header.id()` is the block ID
    /// its session was opened for and that `ids` hash to
    /// `header.merkle_root` — so neither the header nor the tree is hashed
    /// again here (a debug build re-checks both).
    /// What this does check is that the bodies are those transactions:
    /// as many as IDs, each carrying the ID at its position.
    pub fn from_verified(
        header: Header,
        id: Digest,
        ids: &[TxId],
        txns: Vec<Transaction>,
        ordering: OrderingScheme,
    ) -> Result<Block, BlockError> {
        let agree = ids.iter().zip(&txns).take_while(|(id, tx)| *id == tx.id()).count();
        if agree != ids.len() || agree != txns.len() {
            return Err(BlockError::BodyMismatch { position: agree });
        }
        debug_assert_eq!(header.id(), id, "header was not verified");
        debug_assert_eq!(merkle_root(ids), header.merkle_root, "ids were not verified");
        Ok(Block { header, id, txns, ordering })
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The block ID ([`Header::id`]).
    pub fn id(&self) -> Digest {
        self.id
    }

    /// Transactions in block order.
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True for the (degenerate) empty block.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transaction IDs in block order.
    pub fn ids(&self) -> Vec<TxId> {
        self.txns.iter().map(|t| *t.id()).collect()
    }

    /// The ordering scheme the block was assembled with.
    pub fn ordering(&self) -> OrderingScheme {
        self.ordering
    }

    /// Total serialized size: header plus transaction payloads (plus a
    /// 3-byte varint-ish count, matching the wire encoding).
    pub fn serialized_size(&self) -> usize {
        80 + 3 + self.txns.iter().map(Transaction::size).sum::<usize>()
    }

    /// Check CTOR compliance.
    pub fn check_canonical(&self) -> Result<(), BlockError> {
        if self.ordering == OrderingScheme::Ctor
            && self.txns.windows(2).any(|w| w[0].id() > w[1].id())
        {
            return Err(BlockError::NotCanonicalOrder);
        }
        Ok(())
    }
}

impl Header {
    /// The ID of the block this header belongs to: the double-SHA256 of
    /// its 80 serialized bytes.
    pub fn id(&self) -> Digest {
        sha256d(&self.to_bytes())
    }

    /// Serialize to the 80-byte Bitcoin wire layout.
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[0..4].copy_from_slice(&self.version.to_le_bytes());
        out[4..36].copy_from_slice(self.prev_block.as_ref());
        out[36..68].copy_from_slice(self.merkle_root.as_ref());
        out[68..72].copy_from_slice(&self.time.to_le_bytes());
        out[72..76].copy_from_slice(&self.bits.to_le_bytes());
        out[76..80].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Parse the 80-byte wire layout.
    pub fn from_bytes(bytes: &[u8; 80]) -> Header {
        Header {
            version: i32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            prev_block: Digest(bytes[4..36].try_into().expect("32 bytes")),
            merkle_root: Digest(bytes[36..68].try_into().expect("32 bytes")),
            time: u32::from_le_bytes(bytes[68..72].try_into().expect("4 bytes")),
            bits: u32::from_le_bytes(bytes[72..76].try_into().expect("4 bytes")),
            nonce: u32::from_le_bytes(bytes[76..80].try_into().expect("4 bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txns(n: usize) -> Vec<Transaction> {
        (0..n as u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect()
    }

    #[test]
    fn assemble_ctor_sorts() {
        let b = Block::assemble(Digest::ZERO, 1000, txns(20), OrderingScheme::Ctor);
        assert!(b.check_canonical().is_ok());
        let ids = b.ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn miner_order_preserved() {
        let t = txns(5);
        let order: Vec<TxId> = t.iter().map(|x| *x.id()).collect();
        let b = Block::assemble(Digest::ZERO, 1000, t, OrderingScheme::MinerChosen);
        assert_eq!(b.ids(), order);
    }

    /// The received block is the assembled one, and bodies that are not
    /// the verified IDs' — too few, too many, another transaction's, the
    /// right ones in another order — are refused at the first such position.
    #[test]
    fn from_verified_checks_bodies_position_by_position() {
        let b = Block::assemble(sha256d(b"prev"), 1, txns(8), OrderingScheme::Ctor);
        let (header, ids, ctor) = (*b.header(), b.ids(), OrderingScheme::Ctor);
        let rebuilt =
            Block::from_verified(header, b.id(), &ids, b.txns().to_vec(), ctor).expect("same");
        assert_eq!((rebuilt.id(), rebuilt.txns()), (b.id(), b.txns()));
        assert_eq!(b.id(), header.id());

        let at = |bodies| match Block::from_verified(header, b.id(), &ids, bodies, ctor) {
            Err(BlockError::BodyMismatch { position }) => position,
            other => panic!("accepted or misreported: {other:?}"),
        };
        assert_eq!(at(b.txns()[..7].to_vec()), 7);
        assert_eq!(at([b.txns(), &txns(1)].concat()), 8);
        let mut foreign = b.txns().to_vec();
        foreign[3] = Transaction::new(&b"extra"[..]);
        assert_eq!(at(foreign), 3);
        let mut swapped = b.txns().to_vec();
        swapped.swap(5, 6);
        assert_eq!(at(swapped), 5);
        assert_eq!(at(Vec::new()), 0);
    }

    #[test]
    fn header_roundtrip() {
        let b = Block::assemble(sha256d(b"prev"), 12345, txns(3), OrderingScheme::Ctor);
        let bytes = b.header().to_bytes();
        assert_eq!(Header::from_bytes(&bytes), *b.header());
    }

    #[test]
    fn block_ids_differ_with_contents() {
        let a = Block::assemble(Digest::ZERO, 1, txns(3), OrderingScheme::Ctor);
        let b = Block::assemble(Digest::ZERO, 1, txns(4), OrderingScheme::Ctor);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn ordering_cost_formula() {
        assert_eq!(OrderingScheme::Ctor.encoding_bytes(10_000), 0);
        assert_eq!(OrderingScheme::MinerChosen.encoding_bytes(0), 0);
        assert_eq!(OrderingScheme::MinerChosen.encoding_bytes(1), 0);
        // n log2 n bits for n = 2000: 2000·10.97 / 8 ≈ 2742 bytes.
        let bytes = OrderingScheme::MinerChosen.encoding_bytes(2000);
        assert!((2700..2800).contains(&bytes), "got {bytes}");
    }

    #[test]
    fn serialized_size_counts_payloads() {
        let b = Block::assemble(Digest::ZERO, 1, txns(10), OrderingScheme::Ctor);
        assert_eq!(b.serialized_size(), 80 + 3 + 10 * 8);
    }
}
