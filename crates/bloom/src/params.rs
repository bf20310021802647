//! Bloom-filter sizing formulas from the paper (§2.1, §3.3.1).

/// Number of filter bits for `n` items at false-positive rate `f`:
/// `-n·log2(f) / ln 2` (paper §2.1), i.e. `-n·ln f / ln² 2`.
///
/// Clamps to at least 1 bit for a non-degenerate filter; `f >= 1` yields 0
/// bits (the match-everything filter used when `m ≈ n`, §3.3.1).
pub fn bloom_bits(n: usize, f: f64) -> usize {
    if f >= 1.0 || n == 0 {
        return 0;
    }
    let f = f.max(f64::MIN_POSITIVE);
    let bits = -(n as f64) * f.ln() / (core::f64::consts::LN_2 * core::f64::consts::LN_2);
    (bits.ceil() as usize).max(1)
}

/// Size in bytes of the Bloom filter payload: `-n·ln f / (8·ln² 2)` (Eq. 2's
/// `T_BF` term), realized with ceiling to whole bytes.
pub fn bloom_size_bytes(n: usize, f: f64) -> usize {
    bloom_bits(n, f).div_ceil(8)
}

/// The most hash functions a filter can have: the wire format carries `k`
/// in one byte.
pub const MAX_HASH_COUNT: u32 = u8::MAX as u32;

/// Optimal number of hash functions for `bits` total bits and `n` items:
/// `k = (bits/n)·ln 2`, at least 1 and at most [`MAX_HASH_COUNT`]. The cap
/// binds only below `fpr ≈ 2^−255`, where it costs nothing a filter could
/// measure; past it a filter would be one its encoding cannot describe.
pub fn optimal_hash_count(bits: usize, n: usize) -> u32 {
    if n == 0 || bits == 0 {
        return 1;
    }
    let k = (bits as f64 / n as f64) * core::f64::consts::LN_2;
    (k.round() as u32).clamp(1, MAX_HASH_COUNT)
}

/// The theoretical false-positive rate of a Bloom filter with `bits` bits,
/// `k` hashes and `n` inserted items: `(1 - e^{-kn/bits})^k`.
pub fn theoretical_fpr(bits: usize, k: u32, n: usize) -> f64 {
    if bits == 0 {
        return 1.0;
    }
    if n == 0 {
        return 0.0;
    }
    let exponent = -(k as f64) * (n as f64) / (bits as f64);
    (1.0 - exponent.exp()).powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_formula_matches_paper() {
        // n = 1000, f = 0.01: -1000·ln(0.01)/ln²2 ≈ 9585.1 bits.
        let bits = bloom_bits(1000, 0.01);
        assert!((9585..=9587).contains(&bits), "got {bits}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(bloom_bits(1000, 1.0), 0);
        assert_eq!(bloom_bits(0, 0.01), 0);
        assert_eq!(bloom_size_bytes(1000, 1.0), 0);
        assert_eq!(bloom_bits(10, 0.0), bloom_bits(10, f64::MIN_POSITIVE));
    }

    #[test]
    fn optimal_k_near_log2_inv_f() {
        // For optimally sized filters, k ≈ -log2(f).
        for &f in &[0.1, 0.01, 0.001] {
            let n = 5000;
            let k = optimal_hash_count(bloom_bits(n, f), n);
            let expect = (-f.log2()).round() as u32;
            assert!((k as i64 - expect as i64).abs() <= 1, "f={f}: k={k} expect≈{expect}");
        }
    }

    #[test]
    fn hash_count_fits_the_wire() {
        assert_eq!(optimal_hash_count(bloom_bits(10, 1e-80), 10), MAX_HASH_COUNT);
        assert_eq!(optimal_hash_count(bloom_bits(10, f64::MIN_POSITIVE), 10), MAX_HASH_COUNT);
        // Above 2^-255 the formula's own k stands.
        assert!(optimal_hash_count(bloom_bits(1000, 2f64.powi(-254)), 1000) < MAX_HASH_COUNT);
    }

    #[test]
    fn theoretical_fpr_close_to_target() {
        for &f in &[0.5, 0.1, 0.01] {
            let n = 10_000;
            let bits = bloom_bits(n, f);
            let k = optimal_hash_count(bits, n);
            let actual = theoretical_fpr(bits, k, n);
            assert!(actual <= f * 1.25, "f={f}: theoretical {actual} too far above target");
        }
    }

    #[test]
    fn size_monotone_in_n_and_precision() {
        assert!(bloom_size_bytes(2000, 0.01) > bloom_size_bytes(1000, 0.01));
        assert!(bloom_size_bytes(1000, 0.001) > bloom_size_bytes(1000, 0.01));
    }
}
