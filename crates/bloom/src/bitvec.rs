//! A compact bit vector backing the Bloom filter.

/// Fixed-length bit vector stored as packed `u64` words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Create an all-zero vector of `len` bits.
    pub fn new(len: usize) -> Self {
        BitVec { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to 1. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and the
    /// bits above `len` are 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The positions of the set bits, in increasing order: a word at a time,
    /// one `trailing_zeros` per set bit, so a sparse vector costs its words
    /// and its ones, not a test of every bit.
    pub fn ones(&self) -> Ones<'_> {
        Ones { words: self.words.iter().enumerate(), base: 0, word: 0 }
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Reset every bit to 0 without touching the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Set every in-range bit to 1 (word-level fill; stray bits above `len`
    /// stay 0 so equality remains structural).
    pub fn fill_ones(&mut self) {
        self.words.fill(u64::MAX);
        if !self.len.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }

    /// Word-level union: OR every bit of `other` into `self`. Panics if the
    /// lengths differ (a union across geometries is meaningless).
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bit-vector length mismatch in union");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Word-level intersection: AND every bit of `self` with `other`.
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bit-vector length mismatch in intersection");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Serialize as packed little-endian bytes (`ceil(len/8)` of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        self.write_bytes(&mut out);
        out
    }

    /// Append the packed little-endian bytes to `out` without allocating a
    /// temporary (the wire encoder's reusable-buffer path). Byte-identical
    /// to [`BitVec::to_bytes`].
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let nbytes = self.len.div_ceil(8);
        out.reserve(nbytes);
        // Whole words first (8 bytes at a time), then the ragged tail.
        let full_words = nbytes / 8;
        for w in &self.words[..full_words] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for i in (full_words * 8)..nbytes {
            let word = self.words[i / 8];
            out.push((word >> ((i % 8) * 8)) as u8);
        }
    }

    /// Rebuild from packed bytes produced by [`BitVec::to_bytes`].
    ///
    /// `len` is the bit length; bytes beyond it are ignored. Returns `None`
    /// if `bytes` is too short to hold `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Self> {
        if bytes.len() < len.div_ceil(8) {
            return None;
        }
        let mut v = BitVec::new(len);
        for (i, &b) in bytes.iter().take(len.div_ceil(8)).enumerate() {
            v.words[i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        // Mask stray bits above `len` so equality is structural.
        if !len.is_multiple_of(64) {
            if let Some(last) = v.words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Some(v)
    }
}

/// The iterator of [`BitVec::ones`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    /// The words not yet loaded, with their positions.
    words: core::iter::Enumerate<core::slice::Iter<'a, u64>>,
    /// The position of bit 0 of `word`.
    base: usize,
    /// The ones of the current word not yet yielded.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (w, &word) = self.words.next()?;
            (self.base, self.word) = (64 * w, word);
        }
        let at = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get() {
        let mut v = BitVec::new(130);
        assert_eq!(v.len(), 130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!v.get(i));
            v.set(i);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitVec::new(10).get(10);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut v = BitVec::new(77);
        for i in (0..77).step_by(3) {
            v.set(i);
        }
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 10);
        assert_eq!(BitVec::from_bytes(&bytes, 77), Some(v));
    }

    #[test]
    fn from_bytes_too_short() {
        assert_eq!(BitVec::from_bytes(&[0xff], 9), None);
    }

    #[test]
    fn zero_length() {
        let v = BitVec::new(0);
        assert!(v.is_empty());
        assert_eq!(v.to_bytes().len(), 0);
        assert_eq!(BitVec::from_bytes(&[], 0), Some(v));
    }

    #[test]
    fn write_bytes_matches_to_bytes() {
        for len in [0usize, 1, 7, 8, 63, 64, 65, 77, 128, 130, 1000] {
            let mut v = BitVec::new(len);
            for i in (0..len).step_by(3) {
                v.set(i);
            }
            let mut appended = vec![0xaa, 0xbb]; // pre-existing prefix survives
            v.write_bytes(&mut appended);
            assert_eq!(&appended[..2], &[0xaa, 0xbb]);
            assert_eq!(&appended[2..], v.to_bytes().as_slice(), "len {len}");
        }
    }

    #[test]
    fn union_and_intersection_are_wordwise() {
        let mut a = BitVec::new(130);
        let mut b = BitVec::new(130);
        for i in (0..130).step_by(2) {
            a.set(i);
        }
        for i in (0..130).step_by(3) {
            b.set(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        let mut x = a.clone();
        x.intersect_with(&b);
        for i in 0..130 {
            assert_eq!(u.get(i), a.get(i) || b.get(i), "union bit {i}");
            assert_eq!(x.get(i), a.get(i) && b.get(i), "intersection bit {i}");
        }
    }

    /// `ones` is the filter of `get` over every position, for vectors that
    /// end inside, on and past a word, with no bits, every bit and random
    /// bits set.
    #[test]
    fn ones_are_the_set_bits() {
        for len in [0usize, 1, 63, 64, 65, 60_200] {
            let mut all = BitVec::new(len);
            all.fill_ones();
            let mut random = BitVec::new(len);
            let mut x = len as u64;
            for i in 0..len {
                x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
                if x >> 61 == 0 {
                    random.set(i);
                }
            }
            for v in [BitVec::new(len), all, random] {
                let want: Vec<usize> = (0..len).filter(|&i| v.get(i)).collect();
                assert_eq!(v.ones().collect::<Vec<_>>(), want, "len {len}");
            }
        }
    }

    #[test]
    fn fill_and_clear() {
        let mut v = BitVec::new(70);
        v.fill_ones();
        assert_eq!(v.count_ones(), 70);
        // Stray bits above len stay clear so equality is structural.
        let mut w = BitVec::new(70);
        for i in 0..70 {
            w.set(i);
        }
        assert_eq!(v, w);
        v.clear();
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v, BitVec::new(70));
    }
}
