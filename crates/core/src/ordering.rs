//! Transaction-ordering transmission (paper §6.2).
//!
//! Bloom filters and IBLTs carry unordered sets, but the Merkle root commits
//! to an order. Under CTOR the order is implicit (sort by txid, zero bytes).
//! Under miner-chosen ordering the sender ships a permutation: for each
//! block position, the rank of its transaction within the sorted ID list,
//! packed at `⌈log2 n⌉` bits each — the `n·log2 n` bits the paper says
//! dominate Graphene itself as `n` grows.

use graphene_blockchain::TxId;

/// Bits needed to index `n` items.
fn index_bits(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Encode the permutation taking the sorted ID list to block order.
///
/// Returns the packed rank list. Empty when `n ≤ 1` (or under CTOR, where
/// callers skip encoding entirely).
pub fn encode_order(block_order: &[TxId]) -> Vec<u8> {
    let n = block_order.len();
    if index_bits(n) == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<TxId> = block_order.to_vec();
    sorted.sort();
    pack(n, block_order.iter().map(|id| sorted.binary_search(id).expect("id is in its own list")))
}

/// `ranks` of a list of `n` ids packed at [`index_bits`]`(n)` bits each,
/// least significant bit first.
pub(crate) fn pack(n: usize, ranks: impl IntoIterator<Item = usize>) -> Vec<u8> {
    let bits = index_bits(n);
    let mut out = Vec::with_capacity((n * bits as usize).div_ceil(8));
    let mut acc: u64 = 0;
    let mut used: u32 = 0;
    for rank in ranks {
        acc |= (rank as u64) << used;
        used += bits;
        while used >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            used -= 8;
        }
    }
    if used > 0 {
        out.push(acc as u8);
    }
    out
}

/// Apply a permutation produced by [`encode_order`] to a *sorted* candidate
/// ID list, recovering block order. Returns `None` if the byte string is
/// too short, or holds an out-of-range or a repeated rank: a list that
/// names one id twice is no permutation, and the Merkle tree would not
/// catch every such list on its own (CVE-2012-2459).
pub fn decode_order(sorted: &[TxId], order_bytes: &[u8]) -> Option<Vec<TxId>> {
    let n = sorted.len();
    let bits = index_bits(n);
    if bits == 0 {
        return Some(sorted.to_vec());
    }
    if order_bytes.len() < (n * bits as usize).div_ceil(8) {
        return None;
    }
    let mask = (1u64 << bits) - 1;
    let mut out = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut acc: u64 = 0;
    let mut used: u32 = 0;
    let mut byte_iter = order_bytes.iter();
    for _ in 0..n {
        while used < bits {
            acc |= (*byte_iter.next()? as u64) << used;
            used += 8;
        }
        let rank = (acc & mask) as usize;
        acc >>= bits;
        used -= bits;
        if rank >= n || std::mem::replace(&mut seen[rank], true) {
            return None;
        }
        out.push(sorted[rank]);
    }
    Some(out)
}

/// Size in bytes of the encoded permutation for `n` transactions — the
/// `⌈n·⌈log2 n⌉ / 8⌉` cost quoted in §6.2.
pub fn order_bytes_len(n: usize) -> usize {
    (n * index_bits(n) as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_hashes::sha256;

    fn ids(n: usize) -> Vec<TxId> {
        (0..n as u64).map(|i| sha256(&i.to_le_bytes())).collect()
    }

    #[test]
    fn roundtrip_various_sizes() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 100, 257] {
            let block_order = ids(n); // hash order ≈ random permutation
            let bytes = encode_order(&block_order);
            assert_eq!(bytes.len(), order_bytes_len(n), "n = {n}");
            let mut sorted = block_order.clone();
            sorted.sort();
            let recovered = decode_order(&sorted, &bytes).expect("decode");
            assert_eq!(recovered, block_order, "n = {n}");
        }
    }

    #[test]
    fn trivial_sizes_are_free() {
        assert_eq!(order_bytes_len(0), 0);
        assert_eq!(order_bytes_len(1), 0);
        assert!(order_bytes_len(2) >= 1);
    }

    #[test]
    fn cost_close_to_n_log_n_bits() {
        let n = 2000usize;
        let exact = order_bytes_len(n);
        let approx = (n as f64 * (n as f64).log2() / 8.0).ceil() as usize;
        // ⌈log2⌉ vs log2: within one bit per element.
        assert!(exact >= approx);
        assert!(exact <= approx + n / 8 + 1);
    }

    #[test]
    fn decode_rejects_short_or_corrupt() {
        let block_order = ids(10);
        let mut sorted = block_order.clone();
        sorted.sort();
        let bytes = encode_order(&block_order);
        assert!(decode_order(&sorted, &bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn decode_rejects_out_of_range_rank() {
        // n = 3 needs 2 bits; rank 3 is out of range.
        let sorted = {
            let mut s = ids(3);
            s.sort();
            s
        };
        let bytes = vec![0b11_11_11u8];
        assert!(decode_order(&sorted, &bytes).is_none());
    }

    #[test]
    fn decode_rejects_a_repeated_rank() {
        // Six ids then the last two again: the tree of the eight has the
        // root of the six (CVE-2012-2459), so the order must refuse it.
        let mut sorted = ids(8);
        sorted.sort();
        let bytes = pack(8, [0, 1, 2, 3, 4, 5, 4, 5]);
        assert!(decode_order(&sorted, &bytes).is_none());
        let bytes = pack(8, [7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(decode_order(&sorted, &bytes), Some(sorted.iter().rev().copied().collect()));
    }
}
