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
    fn encode(&self, buf: &mut Vec<u8>) {
        if self.bit_len() == 0 {
            buf.push(BLOOM_MATCH_ALL);
            return;
        }
        buf.push(BLOOM_DOUBLE);
        put_u32_le(buf, self.bit_len() as u32);
        buf.push(self.hash_count() as u8);
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
