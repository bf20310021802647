//! Wire encodings for the probabilistic structures (Bloom filter, IBLT).

use crate::codec::{
    get_u32_le, get_u64_le, get_u8, put_u32_le, put_u64_le, take, Decode, Encode, WireError,
};
use graphene_bloom::{bitvec::BitVec, BloomFilter, HashStrategy, Membership};
use graphene_iblt::Iblt;

/// Flag byte values for the Bloom filter encoding. 2 is reserved: the
/// decoder refuses it, like any flag it does not know.
const BLOOM_MATCH_ALL: u8 = 1;
const BLOOM_DOUBLE: u8 = 0;

impl Encode for BloomFilter {
    /// Panics on a filter the header cannot describe — more than
    /// `u32::MAX` bits or more than [`graphene_bloom::MAX_HASH_COUNT`]
    /// hashes — rather than send a header that disagrees with the bits.
    /// `BloomFilter::new` never makes more hashes; the bit length is the
    /// sizing formula's for the caller's `n` and `fpr`.
    fn encode(&self, buf: &mut Vec<u8>) {
        if self.bit_len() == 0 {
            buf.push(BLOOM_MATCH_ALL);
            return;
        }
        let nbits = u32::try_from(self.bit_len()).expect("bloom: over u32::MAX bits");
        let k = u8::try_from(self.hash_count()).expect("bloom: over 255 hashes");
        buf.push(BLOOM_DOUBLE);
        put_u32_le(buf, nbits);
        buf.push(k);
        put_u64_le(buf, self.salt());
        // Append directly — no temporary byte vector per encode.
        self.bit_vec().write_bytes(buf);
    }

    fn encoded_len(&self) -> usize {
        // Kept in lock-step with `Membership::serialized_size`.
        self.serialized_size()
    }
}

impl Decode for BloomFilter {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let flags = get_u8(buf)?;
        match flags {
            BLOOM_MATCH_ALL => Ok(BloomFilter::new(1, 1.0, 0)),
            BLOOM_DOUBLE => {
                let nbits = get_u32_le(buf)? as usize;
                let k = get_u8(buf)? as u32;
                if k == 0 || nbits == 0 {
                    return Err(WireError::Invalid("bloom: zero bits or hashes"));
                }
                let salt = get_u64_le(buf)?;
                let data = take(buf, nbits.div_ceil(8))?;
                let bits = BitVec::from_bytes(data, nbits)
                    .ok_or(WireError::Invalid("bloom: short bit array"))?;
                Ok(BloomFilter::from_parts(bits, k, 0.0, salt, HashStrategy::DoubleHashing))
            }
            _ => Err(WireError::Invalid("bloom: unknown flag byte")),
        }
    }
}

/// Newtype so we can implement the wire traits for IBLTs using their
/// existing byte format.
pub struct WireIblt(pub Iblt);

impl Encode for WireIblt {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.write_bytes(buf);
    }

    fn encoded_len(&self) -> usize {
        self.0.serialized_size()
    }
}

impl Decode for WireIblt {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        // Read the header to learn the length, then slice exactly.
        if buf.len() < graphene_iblt::HEADER_BYTES {
            return Err(WireError::UnexpectedEnd);
        }
        let ncells = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        let total = graphene_iblt::HEADER_BYTES + ncells * graphene_iblt::CELL_BYTES;
        let body = take(buf, total)?;
        Iblt::from_bytes(body)
            .map(WireIblt)
            .ok_or(WireError::Invalid("iblt: malformed header or body"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_hashes::sha256;

    #[test]
    fn bloom_roundtrip_preserves_membership() {
        let ids: Vec<_> = (0u64..300).map(|i| sha256(&i.to_le_bytes())).collect();
        let mut f = BloomFilter::new(ids.len(), 0.02, 99);
        for id in &ids {
            f.insert(id);
        }
        let bytes = f.to_vec();
        assert_eq!(bytes.len(), f.serialized_size());
        let g = BloomFilter::decode_exact(&bytes).unwrap();
        // Decoded filter answers identically for members and probes.
        for id in &ids {
            assert!(g.contains(id));
        }
        let probes: Vec<_> = (1000u64..1400).map(|i| sha256(&i.to_le_bytes())).collect();
        for id in &probes {
            assert_eq!(f.contains(id), g.contains(id));
        }
    }

    /// The header says what the filter is down to the smallest fpr there
    /// is: the hash count is capped at the wire's byte, so the receiver
    /// probes the bits the sender set.
    #[test]
    fn bloom_roundtrip_at_every_precision() {
        let ids: Vec<_> = (0u64..10).map(|i| sha256(&i.to_le_bytes())).collect();
        let probes: Vec<_> = (100u64..400).map(|i| sha256(&i.to_le_bytes())).collect();
        for fpr in [1e-3, 1e-20, 1e-76, 1e-80, 1e-200, f64::MIN_POSITIVE] {
            let mut f = BloomFilter::new(ids.len(), fpr, 7);
            f.insert_batch(&ids);
            let g = BloomFilter::decode_exact(&f.to_vec()).unwrap();
            assert_eq!((g.hash_count(), g.bit_len()), (f.hash_count(), f.bit_len()), "{fpr}");
            assert_eq!(g.bit_vec(), f.bit_vec(), "{fpr}");
            assert!(ids.iter().all(|id| g.contains(id)), "{fpr}");
            assert_eq!(g.contains_batch(&probes), f.contains_batch(&probes), "{fpr}");
        }
        assert_eq!(BloomFilter::new(10, f64::MIN_POSITIVE, 7).hash_count(), 255);
    }

    #[test]
    #[should_panic(expected = "over 255 hashes")]
    fn bloom_refuses_a_hash_count_the_header_cannot_carry() {
        let bits = BitVec::new(64);
        BloomFilter::from_parts(bits, 256, 0.0, 1, HashStrategy::DoubleHashing).to_vec();
    }

    #[test]
    fn bloom_match_all_roundtrip() {
        let f = BloomFilter::new(10, 1.0, 0);
        let bytes = f.to_vec();
        assert_eq!(bytes, vec![BLOOM_MATCH_ALL]);
        let g = BloomFilter::decode_exact(&bytes).unwrap();
        assert!(g.contains(&sha256(b"anything")));
    }

    #[test]
    fn bloom_rejects_garbage() {
        assert!(BloomFilter::decode_exact(&[9]).is_err());
        assert!(BloomFilter::decode_exact(&[]).is_err());
        // Valid flag but truncated body.
        let ids: Vec<_> = (0u64..50).map(|i| sha256(&i.to_le_bytes())).collect();
        let mut f = BloomFilter::new(ids.len(), 0.1, 1);
        for id in &ids {
            f.insert(id);
        }
        let bytes = f.to_vec();
        assert!(BloomFilter::decode_exact(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn iblt_roundtrip() {
        let mut t = Iblt::new(30, 3, 5);
        for v in 0..10u64 {
            t.insert(v);
        }
        let w = WireIblt(t.clone());
        let bytes = w.to_vec();
        assert_eq!(bytes.len(), w.encoded_len());
        let back = WireIblt::decode_exact(&bytes).unwrap();
        assert_eq!(back.0, t);
    }

    #[test]
    fn iblt_rejects_truncation() {
        let t = Iblt::new(12, 3, 0);
        let bytes = WireIblt(t).to_vec();
        assert!(WireIblt::decode_exact(&bytes[..bytes.len() - 3]).is_err());
    }
}
