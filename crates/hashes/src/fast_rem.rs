//! From one keyed hash to every index: exact `% m` without a divide, and
//! the finaliser that makes further hashes out of the first.
//!
//! Every sketch turns hashes into positions by a remainder — a filter's bit
//! index, an IBLT's cell within its partition — once per hash, under a
//! modulus fixed for the whole structure. [`FastRem`] pays the divide once,
//! when the modulus is known, and a multiply per hash after that. An id is
//! hashed under the sketch's salted key once (§6.1 needs the hash keyed,
//! §6.3 needs it not repeated `k` times); [`mix64`] of that hash is where
//! the other indexes come from.

/// `% m` by a reciprocal multiply (Barrett): exact, and no divide per index.
#[derive(Clone, Copy, Debug)]
pub struct FastRem {
    m: u64,
    /// `⌊(2^64 − 1) / m⌋`.
    recip: u64,
}

impl FastRem {
    /// `1 ≤ m < 2^63`: a structure with no positions has no indexes to
    /// reduce, and an array of `2^63` of anything cannot be allocated.
    /// Panics on `m == 0`.
    #[inline]
    pub fn new(m: u64) -> Self {
        FastRem { m, recip: u64::MAX / m }
    }

    /// `h % m`. With `q = ⌊h·recip / 2^64⌋`: `recip ≤ 2^64/m` gives
    /// `q ≤ ⌊h/m⌋`, and `recip·m ≥ 2^64 − m` with `h < 2^64` gives
    /// `h·recip/2^64 > h/m − 1`, so `q` is the true quotient or one short of
    /// it and `r = h − q·m` lies in `[0, 2m)`. `r − m` wraps above `r`
    /// exactly when `r < m`, so the minimum of the two is the remainder — a
    /// conditional move, never a branch on a hash bit.
    // Not `ops::Rem`: `m.rem(h)` is `h % m`, the operands the other way round.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn rem(self, h: u64) -> u64 {
        let q = ((u128::from(h) * u128::from(self.recip)) >> 64) as u64;
        let r = h.wrapping_sub(q.wrapping_mul(self.m));
        r.min(r.wrapping_sub(self.m))
    }
}

/// The splitmix64 finaliser (Steele, Lea & Flood 2014): a fixed bijection
/// of `u64` under which every output bit depends on every input bit. It
/// adds no secrecy — what goes in must already be a keyed hash — only
/// independence between the indexes taken from it.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published splitmix64 stream from state 0 is `mix64` of the
    /// multiples of the golden-ratio increment.
    #[test]
    fn mix64_is_the_splitmix64_finaliser() {
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(GOLDEN), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(GOLDEN.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(mix64(GOLDEN.wrapping_mul(3)), 0x06c4_5d18_8009_454f);
    }

    /// `FastRem::rem` is `%` for every modulus a sketch can have — the
    /// sizing formulas' minimum of one bit, the wire format's `u32` bit
    /// lengths, and on to the largest array that could be allocated — at
    /// the hashes where a short quotient estimate would show: multiples of
    /// `m` and their neighbours, and the top of the `u64` range.
    #[test]
    fn fast_rem_is_exact_at_the_edges() {
        let small = [1, 2, 3, 63, 64, 65, 4580, 4581];
        let wire = [(1 << 32) - 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1];
        let large = [(1 << 40) + 7, (1 << 62) - 1, 1 << 62, (1 << 63) - 25, (1 << 63) - 1];
        for m in small.into_iter().chain(wire).chain(large) {
            let fast = FastRem::new(m);
            let top = u64::MAX / m;
            let near = [1, 2, 3, top / 2, top - 1, top].into_iter().flat_map(|q| {
                let qm = q.min(top) * m;
                [qm.wrapping_sub(1), qm, qm.saturating_add(1), qm.saturating_add(m - 1)]
            });
            for h in near.chain([0, 1, m - 1, u64::MAX - m, u64::MAX - 1, u64::MAX]) {
                assert_eq!(fast.rem(h), h % m, "{h} % {m}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fast_rem_matches_remainder(m in 1u64..(1 << 63), shift in 0u32..63, h: u64) {
            // Moduli of every magnitude, not only the top few bits' worth.
            let m = (m >> shift).max(1);
            let fast = FastRem::new(m);
            proptest::prop_assert_eq!(fast.rem(h), h % m);
            // ... and at the multiple of `m` next to `h`.
            let qm = h - h % m;
            proptest::prop_assert_eq!(fast.rem(qm), 0);
            proptest::prop_assert_eq!(fast.rem(qm.wrapping_sub(1)), qm.wrapping_sub(1) % m);
        }
    }
}
