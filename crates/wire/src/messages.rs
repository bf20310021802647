//! Message set for block relay: Graphene, Compact Blocks, XThin, full blocks.
//!
//! Every message knows its exact encoded length; the evaluation figures sum
//! these lengths. Frames are `[type: u8][length: u32 LE][body]` so a stream
//! reader can skip unknown messages — the framing idiom from the networking
//! guides.

use crate::codec::{
    get_u32_le, get_u64_le, get_u8, put_u32_le, put_u64_le, take, Decode, Encode, WireError,
};
use crate::filters::WireIblt;
use crate::varint::{read_varint, varint_len, write_varint};
use graphene_blockchain::{Header, Transaction};
use graphene_bloom::BloomFilter;
use graphene_hashes::Digest;
use graphene_iblt::Iblt;

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn encode_digest(buf: &mut Vec<u8>, d: &Digest) {
    buf.extend_from_slice(d.as_ref());
}

fn decode_digest(buf: &mut &[u8]) -> Result<Digest, WireError> {
    Ok(Digest(take(buf, 32)?.try_into().expect("32 bytes")))
}

fn encode_tx(buf: &mut Vec<u8>, tx: &Transaction) {
    write_varint(buf, tx.size() as u64);
    buf.extend_from_slice(tx.payload());
}

fn decode_tx(buf: &mut &[u8]) -> Result<Transaction, WireError> {
    let len = read_varint(buf)? as usize;
    if len > 4_000_000 {
        return Err(WireError::Invalid("transaction too large"));
    }
    Ok(Transaction::new(take(buf, len)?.to_vec()))
}

fn tx_len(tx: &Transaction) -> usize {
    varint_len(tx.size() as u64) + tx.size()
}

fn encode_txns(buf: &mut Vec<u8>, txns: &[Transaction]) {
    write_varint(buf, txns.len() as u64);
    for tx in txns {
        encode_tx(buf, tx);
    }
}

fn decode_txns(buf: &mut &[u8]) -> Result<Vec<Transaction>, WireError> {
    let count = read_varint(buf)? as usize;
    if count > 1_000_000 {
        return Err(WireError::Invalid("absurd transaction count"));
    }
    let mut txns = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        txns.push(decode_tx(buf)?);
    }
    Ok(txns)
}

fn txns_len(txns: &[Transaction]) -> usize {
    varint_len(txns.len() as u64) + txns.iter().map(tx_len).sum::<usize>()
}

fn encode_header(buf: &mut Vec<u8>, h: &Header) {
    buf.extend_from_slice(&h.to_bytes());
}

fn decode_header(buf: &mut &[u8]) -> Result<Header, WireError> {
    Ok(Header::from_bytes(take(buf, 80)?.try_into().expect("80 bytes")))
}

// ---------------------------------------------------------------------------
// Message bodies
// ---------------------------------------------------------------------------

/// Announce a new block (`inv`). Real clients often send the header instead;
/// we account the conservative 32-byte form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvMsg {
    /// ID of the announced block.
    pub block_id: Digest,
}

/// Request a block. Graphene's getdata carries the receiver's mempool size
/// `m` (Protocol 1 step 2); other protocols ignore the field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetDataMsg {
    /// Which block is requested.
    pub block_id: Digest,
    /// Receiver's mempool transaction count (`m`).
    pub mempool_count: u64,
}

/// Graphene Protocol 1 step 3: header, Bloom filter `S`, IBLT `I`, and any
/// transactions the sender knows the receiver lacks (per-peer inv tracking).
#[derive(Clone, Debug)]
pub struct GrapheneBlockMsg {
    /// Block header (carries the Merkle commitment).
    pub header: Header,
    /// Number of transactions in the block (`n`).
    pub block_tx_count: u64,
    /// Sender's Bloom filter over the block's full txids.
    pub bloom_s: BloomFilter,
    /// Sender's IBLT over the block's 8-byte short IDs.
    pub iblt_i: Iblt,
    /// Transactions proactively included (never inv'd to this peer).
    pub prefilled: Vec<Transaction>,
    /// Explicit ordering permutation (empty under CTOR, `⌈n·log2 n⌉` bits
    /// otherwise — §6.2).
    pub order_bytes: Vec<u8>,
}

/// Graphene Protocol 2 step 2: the receiver's Bloom filter `R` plus the
/// bounds the sender needs to size IBLT `J`.
#[derive(Clone, Debug)]
pub struct GrapheneRequestMsg {
    /// Which block this recovery round is for.
    pub block_id: Digest,
    /// Receiver's Bloom filter over its candidate set `Z`.
    pub bloom_r: BloomFilter,
    /// β-assurance bound `y*` on false positives through `S`.
    pub y_star: u64,
    /// The receiver's chosen `b` (expected false positives through `R`).
    pub b: u64,
    /// Set when the `m ≈ n` special case is in effect (§3.3.1): the sender
    /// must respond with a third filter `F` and solve the bounds itself.
    pub special_mn: bool,
}

/// Graphene Protocol 2 steps 3–4: transactions that failed `R`, the IBLT
/// `J`, and (in the `m ≈ n` special case) the compensating filter `F`.
#[derive(Clone, Debug)]
pub struct GrapheneRecoveryMsg {
    /// Which block this recovery round is for.
    pub block_id: Digest,
    /// Block transactions that did not pass `R` (definitely missing).
    pub missing: Vec<Transaction>,
    /// IBLT over the block's short IDs, sized for `b + y*`.
    pub iblt_j: Iblt,
    /// Filter over the `n - h` passing transactions (`m ≈ n` case only).
    pub bloom_f: Option<BloomFilter>,
}

/// BIP152 `cmpctblock`: 6-byte SipHash short IDs plus prefilled txns.
#[derive(Clone, Debug)]
pub struct CmpctBlockMsg {
    /// Block header.
    pub header: Header,
    /// Nonce from which the per-block SipHash key is derived.
    pub nonce: u64,
    /// 6-byte short IDs in block order.
    pub short_ids: Vec<u64>,
    /// Prefilled (index, transaction) pairs — at least the coinbase.
    pub prefilled: Vec<(u64, Transaction)>,
}

/// BIP152 `getblocktxn`: differentially varint-encoded indexes of missing
/// transactions (1–3 bytes each, as the paper's comparison assumes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetBlockTxnMsg {
    /// Which block.
    pub block_id: Digest,
    /// Absolute indexes of requested transactions, ascending.
    pub indexes: Vec<u64>,
}

/// BIP152 `blocktxn`: the requested transactions.
#[derive(Clone, Debug)]
pub struct BlockTxnMsg {
    /// Which block.
    pub block_id: Digest,
    /// The transactions, in request order.
    pub txns: Vec<Transaction>,
}

/// XThin `get_xthin`: request carrying a Bloom filter of the receiver's
/// mempool txids.
#[derive(Clone, Debug)]
pub struct XthinGetDataMsg {
    /// Which block.
    pub block_id: Digest,
    /// Bloom filter over the receiver's mempool.
    pub mempool_filter: BloomFilter,
}

/// XThin `xthinblock`: 8-byte short IDs for everything, plus full
/// transactions for whatever missed the receiver's filter.
#[derive(Clone, Debug)]
pub struct XthinBlockMsg {
    /// Block header.
    pub header: Header,
    /// 8-byte short IDs in block order.
    pub short_ids: Vec<u64>,
    /// Transactions that did not match the receiver's mempool filter.
    pub missing: Vec<Transaction>,
}

/// A full serialized block (the no-compression baseline).
#[derive(Clone, Debug)]
pub struct FullBlockMsg {
    /// Block header.
    pub header: Header,
    /// Every transaction, in block order.
    pub txns: Vec<Transaction>,
}

/// Announce transactions by ID (`inv` for loose transactions, §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxInvMsg {
    /// Announced transaction IDs.
    pub txids: Vec<Digest>,
}

/// Request announced transactions by ID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetTxnsMsg {
    /// Wanted transaction IDs.
    pub txids: Vec<Digest>,
}

/// Deliver loose transactions.
#[derive(Clone, Debug)]
pub struct TxnsMsg {
    /// The transactions.
    pub txns: Vec<Transaction>,
}

/// Graphene extra-fetch: request transactions by 8-byte short ID (the `R`
/// false positives of Protocol 2 whose bodies the receiver lacks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetGrapheneTxnMsg {
    /// Which block.
    pub block_id: Digest,
    /// Short IDs of the wanted transactions.
    pub short_ids: Vec<u64>,
}

/// Fallback: request the uncompressed block (after repeated relay failures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetFullBlockMsg {
    /// Which block.
    pub block_id: Digest,
}

/// Recovery-ladder rung 2: re-request a Graphene encoding with inflated
/// parameters (fresh salts, decayed β, larger IBLT). `attempt` tells the
/// sender which inflation step to apply; the receiver refreshes `m` since
/// its mempool may have grown since the original `getdata`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetGrapheneRetryMsg {
    /// Which block.
    pub block_id: Digest,
    /// Receiver's current mempool transaction count (`m`).
    pub mempool_count: u64,
    /// 1-based retry attempt the sender should inflate for.
    pub attempt: u32,
}

/// Rateless-IBLT rung: one window of the sender's unbounded coded-cell
/// stream for a block (arXiv 2402.02668 index-mapped hashing). The stream
/// is a pure function of `(salt, block short IDs)`, so the sender can
/// regenerate any window statelessly; `start_index` says where this window
/// sits and the receiver only accepts the window it asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RatelessCellsMsg {
    /// Which block.
    pub block_id: Digest,
    /// Codec salt the cells (and their checksums) are keyed by. Derived
    /// deterministically from the block ID, so the receiver can verify it.
    pub salt: u64,
    /// Stream index of the first cell in this window.
    pub start_index: u64,
    /// The coded cells.
    pub cells: Vec<graphene_iblt::Cell>,
}

/// Request the next window of rateless coded cells for a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetMoreCellsMsg {
    /// Which block.
    pub block_id: Digest,
    /// Stream index to resume from (== cells received so far).
    pub from_index: u64,
    /// How many cells to send.
    pub count: u32,
}

// ---------------------------------------------------------------------------
// The envelope
// ---------------------------------------------------------------------------

/// Any relay message, taggable onto a framed stream.
#[derive(Clone, Debug)]
pub enum Message {
    /// Block announcement.
    Inv(InvMsg),
    /// Block request (+ mempool count for Graphene).
    GetData(GetDataMsg),
    /// Graphene Protocol 1 payload.
    GrapheneBlock(GrapheneBlockMsg),
    /// Graphene Protocol 2 request.
    GrapheneRequest(GrapheneRequestMsg),
    /// Graphene Protocol 2 response.
    GrapheneRecovery(GrapheneRecoveryMsg),
    /// BIP152 compact block.
    CmpctBlock(CmpctBlockMsg),
    /// BIP152 missing-transaction request.
    GetBlockTxn(GetBlockTxnMsg),
    /// BIP152 missing-transaction response.
    BlockTxn(BlockTxnMsg),
    /// XThin request with mempool filter.
    XthinGetData(XthinGetDataMsg),
    /// XThin block payload.
    XthinBlock(XthinBlockMsg),
    /// Uncompressed block.
    FullBlock(FullBlockMsg),
    /// Graphene extra-fetch by short ID.
    GetGrapheneTxn(GetGrapheneTxnMsg),
    /// Fallback full-block request.
    GetFullBlock(GetFullBlockMsg),
    /// Inflated-parameter Graphene re-request (recovery ladder).
    GetGrapheneRetry(GetGrapheneRetryMsg),
    /// Rateless coded-cell window (recovery ladder's rateless rung).
    RatelessCells(RatelessCellsMsg),
    /// Request the next rateless coded-cell window.
    GetMoreCells(GetMoreCellsMsg),
    /// Loose-transaction announcement.
    TxInv(TxInvMsg),
    /// Loose-transaction request.
    GetTxns(GetTxnsMsg),
    /// Loose-transaction delivery.
    Txns(TxnsMsg),
}

impl Message {
    /// Frame type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Message::Inv(_) => 0x01,
            Message::GetData(_) => 0x02,
            Message::GrapheneBlock(_) => 0x10,
            Message::GrapheneRequest(_) => 0x11,
            Message::GrapheneRecovery(_) => 0x12,
            Message::CmpctBlock(_) => 0x20,
            Message::GetBlockTxn(_) => 0x21,
            Message::BlockTxn(_) => 0x22,
            Message::XthinGetData(_) => 0x30,
            Message::XthinBlock(_) => 0x31,
            Message::FullBlock(_) => 0x40,
            Message::GetGrapheneTxn(_) => 0x13,
            Message::GetGrapheneRetry(_) => 0x14,
            Message::RatelessCells(_) => 0x15,
            Message::GetMoreCells(_) => 0x16,
            Message::GetFullBlock(_) => 0x42,
            Message::TxInv(_) => 0x03,
            Message::GetTxns(_) => 0x04,
            Message::Txns(_) => 0x05,
        }
    }

    /// Body length (excluding the 5-byte frame header).
    pub fn body_len(&self) -> usize {
        match self {
            Message::Inv(_) => 32,
            Message::GetData(m) => 32 + varint_len(m.mempool_count),
            Message::GrapheneBlock(m) => {
                80 + varint_len(m.block_tx_count)
                    + m.bloom_s.encoded_len()
                    + m.iblt_i.serialized_size()
                    + txns_len(&m.prefilled)
                    + varint_len(m.order_bytes.len() as u64)
                    + m.order_bytes.len()
            }
            Message::GrapheneRequest(m) => {
                32 + m.bloom_r.encoded_len() + varint_len(m.y_star) + varint_len(m.b) + 1
            }
            Message::GrapheneRecovery(m) => {
                32 + txns_len(&m.missing)
                    + m.iblt_j.serialized_size()
                    + 1
                    + m.bloom_f.as_ref().map_or(0, Encode::encoded_len)
            }
            Message::CmpctBlock(m) => {
                80 + 8
                    + varint_len(m.short_ids.len() as u64)
                    + 6 * m.short_ids.len()
                    + varint_len(m.prefilled.len() as u64)
                    + m.prefilled.iter().map(|(i, tx)| varint_len(*i) + tx_len(tx)).sum::<usize>()
            }
            Message::GetBlockTxn(m) => {
                32 + varint_len(m.indexes.len() as u64)
                    + diff_indexes(&m.indexes).map(varint_len).sum::<usize>()
            }
            Message::BlockTxn(m) => 32 + txns_len(&m.txns),
            Message::XthinGetData(m) => 32 + m.mempool_filter.encoded_len(),
            Message::XthinBlock(m) => {
                80 + varint_len(m.short_ids.len() as u64)
                    + 8 * m.short_ids.len()
                    + txns_len(&m.missing)
            }
            Message::FullBlock(m) => 80 + txns_len(&m.txns),
            Message::GetGrapheneTxn(m) => {
                32 + varint_len(m.short_ids.len() as u64) + 8 * m.short_ids.len()
            }
            Message::GetFullBlock(_) => 32,
            Message::GetGrapheneRetry(m) => {
                32 + varint_len(m.mempool_count) + varint_len(m.attempt as u64)
            }
            Message::RatelessCells(m) => {
                32 + 8 + 8 + varint_len(m.cells.len() as u64) + 16 * m.cells.len()
            }
            Message::GetMoreCells(m) => 32 + 8 + varint_len(m.count as u64),
            Message::TxInv(m) => varint_len(m.txids.len() as u64) + 32 * m.txids.len(),
            Message::GetTxns(m) => varint_len(m.txids.len() as u64) + 32 * m.txids.len(),
            Message::Txns(m) => txns_len(&m.txns),
        }
    }

    /// Total frame size on the wire (type byte + length + body).
    pub fn wire_size(&self) -> usize {
        5 + self.body_len()
    }

    /// The block a *request*-class message asks a server about, if any.
    /// Announcements and transaction gossip are not request/response
    /// paired and return `None`.
    pub fn request_block_id(&self) -> Option<Digest> {
        match self {
            Message::GetData(m) => Some(m.block_id),
            Message::GrapheneRequest(m) => Some(m.block_id),
            Message::GetGrapheneTxn(m) => Some(m.block_id),
            Message::GetGrapheneRetry(m) => Some(m.block_id),
            Message::GetBlockTxn(m) => Some(m.block_id),
            Message::XthinGetData(m) => Some(m.block_id),
            Message::GetFullBlock(m) => Some(m.block_id),
            Message::GetMoreCells(m) => Some(m.block_id),
            _ => None,
        }
    }

    /// The block a *response*-class message (a server's answer to one of
    /// the [`request_block_id`](Self::request_block_id) messages) carries
    /// or repairs, if any. Header-bearing payloads name their block by the
    /// header's hash.
    pub fn response_block_id(&self) -> Option<Digest> {
        match self {
            Message::GrapheneBlock(m) => Some(m.header.id()),
            Message::CmpctBlock(m) => Some(m.header.id()),
            Message::XthinBlock(m) => Some(m.header.id()),
            Message::FullBlock(m) => Some(m.header.id()),
            Message::GrapheneRecovery(m) => Some(m.block_id),
            Message::RatelessCells(m) => Some(m.block_id),
            Message::BlockTxn(m) => Some(m.block_id),
            _ => None,
        }
    }
}

/// Differential encoding of ascending indexes (BIP152): first index as-is,
/// then gaps minus one.
fn diff_indexes(indexes: &[u64]) -> impl Iterator<Item = u64> + '_ {
    indexes.iter().enumerate().map(
        |(pos, &idx)| {
            if pos == 0 {
                idx
            } else {
                idx - indexes[pos - 1] - 1
            }
        },
    )
}

impl Encode for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.type_byte());
        put_u32_le(buf, self.body_len() as u32);
        match self {
            Message::Inv(m) => encode_digest(buf, &m.block_id),
            Message::GetData(m) => {
                encode_digest(buf, &m.block_id);
                write_varint(buf, m.mempool_count);
            }
            Message::GrapheneBlock(m) => {
                encode_header(buf, &m.header);
                write_varint(buf, m.block_tx_count);
                m.bloom_s.encode(buf);
                // Serialize in place — no clone of the cell array per encode.
                m.iblt_i.write_bytes(buf);
                encode_txns(buf, &m.prefilled);
                write_varint(buf, m.order_bytes.len() as u64);
                buf.extend_from_slice(&m.order_bytes);
            }
            Message::GrapheneRequest(m) => {
                encode_digest(buf, &m.block_id);
                m.bloom_r.encode(buf);
                write_varint(buf, m.y_star);
                write_varint(buf, m.b);
                buf.push(m.special_mn as u8);
            }
            Message::GrapheneRecovery(m) => {
                encode_digest(buf, &m.block_id);
                encode_txns(buf, &m.missing);
                m.iblt_j.write_bytes(buf);
                match &m.bloom_f {
                    Some(f) => {
                        buf.push(1);
                        f.encode(buf);
                    }
                    None => buf.push(0),
                }
            }
            Message::CmpctBlock(m) => {
                encode_header(buf, &m.header);
                put_u64_le(buf, m.nonce);
                write_varint(buf, m.short_ids.len() as u64);
                for id in &m.short_ids {
                    buf.extend_from_slice(&id.to_le_bytes()[..6]);
                }
                write_varint(buf, m.prefilled.len() as u64);
                for (i, tx) in &m.prefilled {
                    write_varint(buf, *i);
                    encode_tx(buf, tx);
                }
            }
            Message::GetBlockTxn(m) => {
                encode_digest(buf, &m.block_id);
                write_varint(buf, m.indexes.len() as u64);
                for gap in diff_indexes(&m.indexes) {
                    write_varint(buf, gap);
                }
            }
            Message::BlockTxn(m) => {
                encode_digest(buf, &m.block_id);
                encode_txns(buf, &m.txns);
            }
            Message::XthinGetData(m) => {
                encode_digest(buf, &m.block_id);
                m.mempool_filter.encode(buf);
            }
            Message::XthinBlock(m) => {
                encode_header(buf, &m.header);
                write_varint(buf, m.short_ids.len() as u64);
                for id in &m.short_ids {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
                encode_txns(buf, &m.missing);
            }
            Message::FullBlock(m) => {
                encode_header(buf, &m.header);
                encode_txns(buf, &m.txns);
            }
            Message::GetGrapheneTxn(m) => {
                encode_digest(buf, &m.block_id);
                write_varint(buf, m.short_ids.len() as u64);
                for id in &m.short_ids {
                    buf.extend_from_slice(&id.to_le_bytes());
                }
            }
            Message::GetFullBlock(m) => encode_digest(buf, &m.block_id),
            Message::GetGrapheneRetry(m) => {
                encode_digest(buf, &m.block_id);
                write_varint(buf, m.mempool_count);
                write_varint(buf, m.attempt as u64);
            }
            Message::RatelessCells(m) => {
                encode_digest(buf, &m.block_id);
                put_u64_le(buf, m.salt);
                put_u64_le(buf, m.start_index);
                write_varint(buf, m.cells.len() as u64);
                for c in &m.cells {
                    put_u32_le(buf, c.count as u32);
                    put_u64_le(buf, c.key_sum);
                    put_u32_le(buf, c.check_sum);
                }
            }
            Message::GetMoreCells(m) => {
                encode_digest(buf, &m.block_id);
                put_u64_le(buf, m.from_index);
                write_varint(buf, m.count as u64);
            }
            Message::TxInv(m) => {
                write_varint(buf, m.txids.len() as u64);
                for id in &m.txids {
                    encode_digest(buf, id);
                }
            }
            Message::GetTxns(m) => {
                write_varint(buf, m.txids.len() as u64);
                for id in &m.txids {
                    encode_digest(buf, id);
                }
            }
            Message::Txns(m) => encode_txns(buf, &m.txns),
        }
    }

    fn encoded_len(&self) -> usize {
        self.wire_size()
    }
}

impl Decode for Message {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let ty = get_u8(buf)?;
        let len = get_u32_le(buf)? as usize;
        let mut body = take(buf, len)?;
        let b = &mut body;
        let msg = match ty {
            0x01 => Message::Inv(InvMsg { block_id: decode_digest(b)? }),
            0x02 => Message::GetData(GetDataMsg {
                block_id: decode_digest(b)?,
                mempool_count: read_varint(b)?,
            }),
            0x10 => {
                let header = decode_header(b)?;
                let block_tx_count = read_varint(b)?;
                let bloom_s = BloomFilter::decode(b)?;
                let iblt_i = WireIblt::decode(b)?.0;
                let prefilled = decode_txns(b)?;
                let order_len = read_varint(b)? as usize;
                let order_bytes = take(b, order_len)?.to_vec();
                Message::GrapheneBlock(GrapheneBlockMsg {
                    header,
                    block_tx_count,
                    bloom_s,
                    iblt_i,
                    prefilled,
                    order_bytes,
                })
            }
            0x11 => Message::GrapheneRequest(GrapheneRequestMsg {
                block_id: decode_digest(b)?,
                bloom_r: BloomFilter::decode(b)?,
                y_star: read_varint(b)?,
                b: read_varint(b)?,
                special_mn: get_u8(b)? != 0,
            }),
            0x12 => {
                let block_id = decode_digest(b)?;
                let missing = decode_txns(b)?;
                let iblt_j = WireIblt::decode(b)?.0;
                let bloom_f = match get_u8(b)? {
                    0 => None,
                    1 => Some(BloomFilter::decode(b)?),
                    _ => return Err(WireError::Invalid("recovery: bad filter flag")),
                };
                Message::GrapheneRecovery(GrapheneRecoveryMsg {
                    block_id,
                    missing,
                    iblt_j,
                    bloom_f,
                })
            }
            0x20 => {
                let header = decode_header(b)?;
                let nonce = get_u64_le(b)?;
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd short-id count"));
                }
                let mut short_ids = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let raw = take(b, 6)?;
                    let mut bytes = [0u8; 8];
                    bytes[..6].copy_from_slice(raw);
                    short_ids.push(u64::from_le_bytes(bytes));
                }
                let pcount = read_varint(b)? as usize;
                if pcount > 1_000_000 {
                    return Err(WireError::Invalid("absurd prefilled count"));
                }
                let mut prefilled = Vec::with_capacity(pcount.min(4096));
                for _ in 0..pcount {
                    let i = read_varint(b)?;
                    prefilled.push((i, decode_tx(b)?));
                }
                Message::CmpctBlock(CmpctBlockMsg { header, nonce, short_ids, prefilled })
            }
            0x21 => {
                let block_id = decode_digest(b)?;
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd index count"));
                }
                let mut indexes = Vec::with_capacity(count.min(4096));
                let mut prev: Option<u64> = None;
                for _ in 0..count {
                    let gap = read_varint(b)?;
                    let idx = match prev {
                        None => gap,
                        Some(p) => p
                            .checked_add(gap)
                            .and_then(|v| v.checked_add(1))
                            .ok_or(WireError::Invalid("index overflow"))?,
                    };
                    indexes.push(idx);
                    prev = Some(idx);
                }
                Message::GetBlockTxn(GetBlockTxnMsg { block_id, indexes })
            }
            0x22 => Message::BlockTxn(BlockTxnMsg {
                block_id: decode_digest(b)?,
                txns: decode_txns(b)?,
            }),
            0x30 => Message::XthinGetData(XthinGetDataMsg {
                block_id: decode_digest(b)?,
                mempool_filter: BloomFilter::decode(b)?,
            }),
            0x31 => {
                let header = decode_header(b)?;
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd short-id count"));
                }
                let mut short_ids = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    short_ids.push(get_u64_le(b)?);
                }
                let missing = decode_txns(b)?;
                Message::XthinBlock(XthinBlockMsg { header, short_ids, missing })
            }
            0x40 => Message::FullBlock(FullBlockMsg {
                header: decode_header(b)?,
                txns: decode_txns(b)?,
            }),
            0x13 => {
                let block_id = decode_digest(b)?;
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd short-id count"));
                }
                let mut short_ids = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    short_ids.push(get_u64_le(b)?);
                }
                Message::GetGrapheneTxn(GetGrapheneTxnMsg { block_id, short_ids })
            }
            0x42 => Message::GetFullBlock(GetFullBlockMsg { block_id: decode_digest(b)? }),
            0x14 => {
                let block_id = decode_digest(b)?;
                let mempool_count = read_varint(b)?;
                let attempt = read_varint(b)?;
                if attempt > 64 {
                    return Err(WireError::Invalid("absurd retry attempt"));
                }
                Message::GetGrapheneRetry(GetGrapheneRetryMsg {
                    block_id,
                    mempool_count,
                    attempt: attempt as u32,
                })
            }
            0x15 => {
                let block_id = decode_digest(b)?;
                let salt = get_u64_le(b)?;
                let start_index = get_u64_le(b)?;
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd cell count"));
                }
                let mut cells = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    let cell_count = get_u32_le(b)? as i32;
                    let key_sum = get_u64_le(b)?;
                    let check_sum = get_u32_le(b)?;
                    cells.push(graphene_iblt::Cell { count: cell_count, key_sum, check_sum });
                }
                Message::RatelessCells(RatelessCellsMsg { block_id, salt, start_index, cells })
            }
            0x16 => {
                let block_id = decode_digest(b)?;
                let from_index = get_u64_le(b)?;
                let count = read_varint(b)?;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd cell request"));
                }
                Message::GetMoreCells(GetMoreCellsMsg { block_id, from_index, count: count as u32 })
            }
            0x03 | 0x04 => {
                let count = read_varint(b)? as usize;
                if count > 1_000_000 {
                    return Err(WireError::Invalid("absurd txid count"));
                }
                let mut txids = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    txids.push(decode_digest(b)?);
                }
                if ty == 0x03 {
                    Message::TxInv(TxInvMsg { txids })
                } else {
                    Message::GetTxns(GetTxnsMsg { txids })
                }
            }
            0x05 => Message::Txns(TxnsMsg { txns: decode_txns(b)? }),
            _ => return Err(WireError::Invalid("unknown message type")),
        };
        if !body.is_empty() {
            return Err(WireError::Invalid("trailing bytes in frame body"));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_blockchain::{Block, OrderingScheme};

    fn sample_header() -> Header {
        let txns: Vec<Transaction> =
            (0u64..4).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect();
        *Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor).header()
    }

    fn sample_txns(n: u64) -> Vec<Transaction> {
        (0..n).map(|i| Transaction::new(vec![i as u8; 100])).collect()
    }

    fn roundtrip(msg: Message) -> Message {
        let bytes = msg.to_vec();
        assert_eq!(bytes.len(), msg.wire_size(), "wire_size out of sync");
        Message::decode_exact(&bytes).expect("roundtrip decode")
    }

    #[test]
    fn inv_getdata_roundtrip() {
        let id = Digest([7u8; 32]);
        match roundtrip(Message::Inv(InvMsg { block_id: id })) {
            Message::Inv(m) => assert_eq!(m.block_id, id),
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(Message::GetData(GetDataMsg { block_id: id, mempool_count: 60_000 })) {
            Message::GetData(m) => {
                assert_eq!(m.block_id, id);
                assert_eq!(m.mempool_count, 60_000);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn graphene_block_roundtrip() {
        let mut bloom = BloomFilter::new(100, 0.05, 9);
        let mut iblt = Iblt::new(24, 3, 5);
        for i in 0u64..100 {
            let d = graphene_hashes::sha256(&i.to_le_bytes());
            bloom.insert(&d);
            iblt.insert(i);
        }
        let msg = Message::GrapheneBlock(GrapheneBlockMsg {
            header: sample_header(),
            block_tx_count: 100,
            bloom_s: bloom,
            iblt_i: iblt.clone(),
            prefilled: sample_txns(2),
            order_bytes: vec![1, 2, 3],
        });
        match roundtrip(msg) {
            Message::GrapheneBlock(m) => {
                assert_eq!(m.block_tx_count, 100);
                assert_eq!(m.iblt_i, iblt);
                assert_eq!(m.prefilled.len(), 2);
                assert_eq!(m.order_bytes, vec![1, 2, 3]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn graphene_request_recovery_roundtrip() {
        let req = Message::GrapheneRequest(GrapheneRequestMsg {
            block_id: Digest([1; 32]),
            bloom_r: BloomFilter::new(50, 0.1, 2),
            y_star: 12,
            b: 3,
            special_mn: true,
        });
        match roundtrip(req) {
            Message::GrapheneRequest(m) => {
                assert_eq!(m.y_star, 12);
                assert_eq!(m.b, 3);
                assert!(m.special_mn);
            }
            other => panic!("wrong variant: {other:?}"),
        }

        let rec = Message::GrapheneRecovery(GrapheneRecoveryMsg {
            block_id: Digest([2; 32]),
            missing: sample_txns(3),
            iblt_j: Iblt::new(12, 3, 1),
            bloom_f: Some(BloomFilter::new(10, 0.1, 3)),
        });
        match roundtrip(rec) {
            Message::GrapheneRecovery(m) => {
                assert_eq!(m.missing.len(), 3);
                assert!(m.bloom_f.is_some());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn cmpct_block_roundtrip_and_size() {
        let short_ids: Vec<u64> = (0..2000u64).map(|i| i * 31 % 0xffff_ffff_ffff).collect();
        let msg = Message::CmpctBlock(CmpctBlockMsg {
            header: sample_header(),
            nonce: 77,
            short_ids: short_ids.clone(),
            prefilled: vec![(0, sample_txns(1)[0].clone())],
        });
        // 6 bytes per short ID dominates: n = 2000 → about 12 KB.
        assert!(msg.body_len() > 6 * 2000);
        assert!(msg.body_len() < 6 * 2000 + 300);
        match roundtrip(msg) {
            Message::CmpctBlock(m) => assert_eq!(m.short_ids, short_ids),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn getblocktxn_differential_encoding() {
        let msg = Message::GetBlockTxn(GetBlockTxnMsg {
            block_id: Digest([3; 32]),
            indexes: vec![5, 6, 10, 500, 501],
        });
        match roundtrip(msg.clone()) {
            Message::GetBlockTxn(m) => assert_eq!(m.indexes, vec![5, 6, 10, 500, 501]),
            other => panic!("wrong variant: {other:?}"),
        }
        // Dense requests stay near 1 byte per index.
        let dense = Message::GetBlockTxn(GetBlockTxnMsg {
            block_id: Digest([3; 32]),
            indexes: (0..1000).collect(),
        });
        assert!(dense.body_len() < 32 + 3 + 1100);
    }

    #[test]
    fn xthin_roundtrip() {
        let msg = Message::XthinBlock(XthinBlockMsg {
            header: sample_header(),
            short_ids: vec![1, 2, 3],
            missing: sample_txns(1),
        });
        match roundtrip(msg) {
            Message::XthinBlock(m) => {
                assert_eq!(m.short_ids, vec![1, 2, 3]);
                assert_eq!(m.missing.len(), 1);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn full_block_roundtrip() {
        let txns = sample_txns(5);
        let msg = Message::FullBlock(FullBlockMsg { header: sample_header(), txns: txns.clone() });
        match roundtrip(msg) {
            Message::FullBlock(m) => assert_eq!(m.txns, txns),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn graphene_retry_roundtrip() {
        let msg = Message::GetGrapheneRetry(GetGrapheneRetryMsg {
            block_id: Digest([4; 32]),
            mempool_count: 12_345,
            attempt: 2,
        });
        match roundtrip(msg) {
            Message::GetGrapheneRetry(m) => {
                assert_eq!(m.block_id, Digest([4; 32]));
                assert_eq!(m.mempool_count, 12_345);
                assert_eq!(m.attempt, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // An absurd attempt count must be rejected, not trusted.
        let silly = Message::GetGrapheneRetry(GetGrapheneRetryMsg {
            block_id: Digest([4; 32]),
            mempool_count: 1,
            attempt: 1000,
        });
        assert!(Message::decode_exact(&silly.to_vec()).is_err());
    }

    #[test]
    fn rateless_cells_roundtrip() {
        let cells: Vec<graphene_iblt::Cell> = (0..50i32)
            .map(|i| graphene_iblt::Cell {
                count: i - 25,
                key_sum: (i as u64).wrapping_mul(0x9e37_79b9),
                check_sum: i as u32 * 7,
            })
            .collect();
        let msg = Message::RatelessCells(RatelessCellsMsg {
            block_id: Digest([5; 32]),
            salt: 0xfeed_beef,
            start_index: 64,
            cells: cells.clone(),
        });
        match roundtrip(msg) {
            Message::RatelessCells(m) => {
                assert_eq!(m.block_id, Digest([5; 32]));
                assert_eq!(m.salt, 0xfeed_beef);
                assert_eq!(m.start_index, 64);
                assert_eq!(m.cells, cells);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn get_more_cells_roundtrip() {
        let msg = Message::GetMoreCells(GetMoreCellsMsg {
            block_id: Digest([6; 32]),
            from_index: 128,
            count: 96,
        });
        match roundtrip(msg) {
            Message::GetMoreCells(m) => {
                assert_eq!(m.block_id, Digest([6; 32]));
                assert_eq!(m.from_index, 128);
                assert_eq!(m.count, 96);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let msg = Message::Inv(InvMsg { block_id: Digest([9; 32]) });
        let bytes = msg.to_vec();
        // Unknown type byte.
        let mut bad = bytes.clone();
        bad[0] = 0x77;
        assert!(Message::decode_exact(&bad).is_err());
        // Truncated body.
        assert!(Message::decode_exact(&bytes[..bytes.len() - 1]).is_err());
        // Oversized declared length.
        let mut long = bytes.clone();
        long[1] = 0xff;
        assert!(Message::decode_exact(&long).is_err());
    }
}
