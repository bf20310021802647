//! Adversarial decode tests: hostile or damaged frames must come back as
//! `Err(WireError)` — never a panic, never an over-read.
//!
//! The netsim fault injector and the §6.1 adversary both hand the decoder
//! truncated and bit-flipped frames; these tests pin down the contract the
//! recovery ladder relies on: *any* mutilation of a `GrapheneBlockMsg` or
//! a raw IBLT payload is either rejected cleanly or yields a value whose
//! re-encoding is exactly as long as it claims.

use graphene_blockchain::{Block, OrderingScheme, Transaction};
use graphene_bloom::{BloomFilter, Membership};
use graphene_hashes::{sha256, Digest};
use graphene_iblt::cell::check_hash;
use graphene_iblt::Iblt;
use graphene_wire::filters::WireIblt;
use graphene_wire::messages::{GetMoreCellsMsg, GrapheneBlockMsg, RatelessCellsMsg};
use graphene_wire::{Decode, Encode, Message};
use proptest::prelude::*;

/// A realistic Graphene block frame: populated Bloom filter, populated
/// IBLT, a prefilled transaction, and order bytes.
fn graphene_block_frame() -> Vec<u8> {
    let txns = vec![Transaction::new(&b"coinbase"[..])];
    let block = Block::assemble(Digest::ZERO, 7, txns, OrderingScheme::Ctor);
    let mut bloom = BloomFilter::new(64, 0.01, 11);
    let mut iblt = Iblt::new(24, 3, 11);
    for i in 0u64..40 {
        bloom.insert(&sha256(&i.to_le_bytes()));
        iblt.insert(i | 1);
    }
    Message::GrapheneBlock(GrapheneBlockMsg {
        header: *block.header(),
        block_tx_count: 40,
        bloom_s: bloom,
        iblt_i: iblt,
        prefilled: vec![Transaction::new(&b"coinbase"[..])],
        order_bytes: vec![3, 1, 4, 1, 5],
    })
    .to_vec()
}

fn iblt_payload() -> Vec<u8> {
    let mut t = Iblt::new(30, 3, 5);
    for v in 0u64..12 {
        t.insert(v.wrapping_mul(0x9e37_79b9) | 1);
    }
    WireIblt(t).to_vec()
}

#[test]
fn every_graphene_block_truncation_errors() {
    let frame = graphene_block_frame();
    // Every proper prefix — including the empty one — must be rejected.
    for n in 0..frame.len() {
        assert!(
            Message::decode_exact(&frame[..n]).is_err(),
            "prefix of {n}/{} bytes decoded",
            frame.len()
        );
    }
    assert!(Message::decode_exact(&frame).is_ok());
}

#[test]
fn every_iblt_truncation_errors() {
    let payload = iblt_payload();
    for n in 0..payload.len() {
        assert!(
            WireIblt::decode_exact(&payload[..n]).is_err(),
            "IBLT prefix of {n}/{} bytes decoded",
            payload.len()
        );
    }
    assert!(WireIblt::decode_exact(&payload).is_ok());
}

#[test]
fn every_single_bit_flip_is_handled() {
    // Exhaustive over every bit of the frame: the link fault injector
    // flips exactly one bit, so this is the precise corruption model the
    // simulator exercises. Decoding must not panic; on success the value
    // must re-encode to its declared size.
    let frame = graphene_block_frame();
    let mut ok = 0usize;
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut flipped = frame.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(msg) = Message::decode_exact(&flipped) {
                assert_eq!(msg.to_vec().len(), msg.wire_size());
                ok += 1;
            }
        }
    }
    // Many flips land in filter bits or transaction payloads and still
    // parse — that is fine (and why recovery, not framing, catches them).
    assert!(ok > 0, "expected some flips to remain parseable");
}

#[test]
fn every_single_bit_flip_of_an_iblt_is_handled() {
    let payload = iblt_payload();
    for byte in 0..payload.len() {
        for bit in 0..8 {
            let mut flipped = payload.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(w) = WireIblt::decode_exact(&flipped) {
                assert_eq!(w.to_vec().len(), w.encoded_len());
            }
        }
    }
}

/// Flag 2 is reserved (`docs/PROTOCOL.md`): a filter frame that is
/// well-formed under flag 0 is refused under it, at any hash count.
#[test]
fn reserved_filter_flag_rejected() {
    // flag | 64 bits | k | salt | all bits set
    let mut frame = vec![0, 0x40, 0, 0, 0, 8];
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&[0xff; 8]);
    let f = BloomFilter::decode_exact(&frame).expect("flag 0 is the one derivation");
    let id = sha256(b"probe");
    assert!(f.contains(&id) && f.contains_batch(&[id]).get(0));
    frame[0] = 2;
    assert!(BloomFilter::decode_exact(&frame).is_err(), "reserved flag decoded");
}

/// A realistic rateless-cells frame: a genuine stream window with live
/// checksums, as the rateless rung would send it.
fn rateless_cells_frame() -> Vec<u8> {
    let salt = 0x524c_0007u64;
    let cells: Vec<graphene_iblt::Cell> = (0u64..48)
        .map(|i| {
            let v = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            graphene_iblt::Cell { count: 1, key_sum: v, check_sum: check_hash(salt, v) }
        })
        .collect();
    Message::RatelessCells(RatelessCellsMsg {
        block_id: Digest([0x15; 32]),
        salt,
        start_index: 32,
        cells,
    })
    .to_vec()
}

fn get_more_cells_frame() -> Vec<u8> {
    Message::GetMoreCells(GetMoreCellsMsg {
        block_id: Digest([0x16; 32]),
        from_index: 96,
        count: 64,
    })
    .to_vec()
}

#[test]
fn every_rateless_cells_truncation_errors() {
    let frame = rateless_cells_frame();
    for n in 0..frame.len() {
        assert!(
            Message::decode_exact(&frame[..n]).is_err(),
            "0x15 prefix of {n}/{} bytes decoded",
            frame.len()
        );
    }
    assert!(Message::decode_exact(&frame).is_ok());
}

#[test]
fn every_get_more_cells_truncation_errors() {
    let frame = get_more_cells_frame();
    for n in 0..frame.len() {
        assert!(
            Message::decode_exact(&frame[..n]).is_err(),
            "0x16 prefix of {n}/{} bytes decoded",
            frame.len()
        );
    }
    assert!(Message::decode_exact(&frame).is_ok());
}

#[test]
fn every_single_bit_flip_of_rateless_frames_is_handled() {
    for frame in [rateless_cells_frame(), get_more_cells_frame()] {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[byte] ^= 1 << bit;
                if let Ok(msg) = Message::decode_exact(&flipped) {
                    assert_eq!(msg.to_vec().len(), msg.wire_size());
                }
            }
        }
    }
}

#[test]
fn hostile_rateless_cell_count_rejected() {
    // A 0x15 frame whose varint claims over a million cells must be
    // rejected before any allocation is attempted.
    let mut frame = vec![0x15u8];
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // declared body len
    frame.extend_from_slice(&[0u8; 32]); // block id
    frame.extend_from_slice(&[0u8; 16]); // salt + start_index
    let mut n = 5_000_000u64;
    while n >= 0x80 {
        frame.push((n as u8 & 0x7f) | 0x80);
        n >>= 7;
    }
    frame.push(n as u8);
    assert!(Message::decode_exact(&frame).is_err());
}

proptest! {
    /// Random multi-byte corruption + truncation of a rateless-cells
    /// frame: decode never panics, successful decodes stay length-honest.
    #[test]
    fn smashed_rateless_cells_never_panics(
        positions in proptest::collection::vec(any::<u64>(), 1..32),
        values in proptest::collection::vec(any::<u8>(), 32..33),
        cut in any::<u64>(),
    ) {
        let mut frame = rateless_cells_frame();
        for (slot, pos) in positions.iter().enumerate() {
            let i = (*pos as usize) % frame.len();
            frame[i] = values[slot % values.len()];
        }
        let keep = (cut as usize) % (frame.len() + 1);
        frame.truncate(keep);
        if let Ok(msg) = Message::decode_exact(&frame) {
            prop_assert_eq!(msg.to_vec().len(), msg.wire_size());
        }
    }

    /// Hostile cell-request counts (0x16) are rejected without allocation.
    #[test]
    fn hostile_cell_request_count_rejected(count in 1_000_001u64..u64::MAX / 2) {
        let mut body = Vec::new();
        body.extend_from_slice(&[0u8; 32]); // block id
        body.extend_from_slice(&[0u8; 8]); // from_index
        let mut n = count;
        while n >= 0x80 {
            body.push((n as u8 & 0x7f) | 0x80);
            n >>= 7;
        }
        body.push(n as u8);
        let mut frame = vec![0x16u8];
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        prop_assert!(Message::decode_exact(&frame).is_err());
    }
}

proptest! {
    /// Random multi-byte corruption of a valid Graphene block frame:
    /// decode never panics, successful decodes stay length-honest.
    #[test]
    fn smashed_graphene_block_never_panics(
        positions in proptest::collection::vec(any::<u64>(), 1..32),
        values in proptest::collection::vec(any::<u8>(), 32..33),
        cut in any::<u64>(),
    ) {
        let mut frame = graphene_block_frame();
        for (slot, pos) in positions.iter().enumerate() {
            let i = (*pos as usize) % frame.len();
            frame[i] = values[slot % values.len()];
        }
        // Also exercise corruption + truncation together.
        let keep = (cut as usize) % (frame.len() + 1);
        frame.truncate(keep);
        if let Ok(msg) = Message::decode_exact(&frame) {
            prop_assert_eq!(msg.to_vec().len(), msg.wire_size());
        }
    }

    /// Random corruption of a raw IBLT payload.
    #[test]
    fn smashed_iblt_never_panics(
        positions in proptest::collection::vec(any::<u64>(), 1..16),
        values in proptest::collection::vec(any::<u8>(), 16..17),
    ) {
        let mut payload = iblt_payload();
        for (slot, pos) in positions.iter().enumerate() {
            let i = (*pos as usize) % payload.len();
            payload[i] = values[slot % values.len()];
        }
        if let Ok(w) = WireIblt::decode_exact(&payload) {
            prop_assert_eq!(w.to_vec().len(), w.encoded_len());
        }
    }

    /// Frames that lie about their element counts (huge varints spliced
    /// into the body) must be rejected without attempting the allocation.
    #[test]
    fn hostile_count_prefix_rejected(count in 1_000_001u64..u64::MAX / 2) {
        // Type byte for GetGrapheneTxn followed by a block id and an
        // absurd short-id count.
        let mut frame = vec![0x13u8];
        frame.extend_from_slice(&[0u8; 32]);
        let mut n = count;
        while n >= 0x80 {
            frame.push((n as u8 & 0x7f) | 0x80);
            n >>= 7;
        }
        frame.push(n as u8);
        prop_assert!(Message::decode_exact(&frame).is_err());
    }
}
