//! CPISync — set reconciliation by Characteristic Polynomial Interpolation
//! (Minsky, Trachtenberg, Zippel 2003), the paper's §2.1 example of an
//! approach that is *smaller* than IBLTs but needs far more computation.
//!
//! Each party evaluates the characteristic polynomial
//! `χ_S(z) = Π_{s∈S}(z − s)` of its set at `m̄ + CHECK` agreed sample
//! points. The ratio `χ_A(z)/χ_B(z)` is a rational function whose numerator
//! and denominator vanish exactly on `A∖B` and `B∖A`; with at least
//! `|AΔB|` evaluations it can be interpolated (one Gaussian solve) and its
//! roots extracted (Rabin root-finding). Transfer cost: `8·(m̄ + CHECK)`
//! bytes — within a small constant of the information-theoretic bound —
//! versus the IBLT's `~24–48` bytes per difference, at `O(m̄³)` computation
//! instead of `O(m̄)`.
//!
//! The `CHECK` extra evaluations verify the interpolation; an undersized
//! `m̄` is detected (with overwhelming probability) rather than silently
//! miscorrected, so callers can double `m̄` and retry — the standard
//! probabilistic CPISync loop.
#![allow(clippy::needless_range_loop)] // index loops mirror the linear-algebra notation

use crate::gf::{Fe, P};
use crate::poly::Poly;

/// Verification evaluations appended beyond `m̄`.
pub const CHECK: usize = 2;

/// Errors from reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpiError {
    /// The difference bound `m̄` was too small (detected by the check
    /// points or a singular system). Retry with a larger bound.
    BoundTooSmall,
    /// A sample point collided with a set element (probability ≈ m̄·|S|/p).
    PointCollision,
}

impl core::fmt::Display for CpiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CpiError::BoundTooSmall => write!(f, "difference exceeded the m̄ bound"),
            CpiError::PointCollision => write!(f, "sample point collided with an element"),
        }
    }
}

impl std::error::Error for CpiError {}

/// The transferred sketch: evaluations of `χ_A` plus the set size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpiSketch {
    /// Evaluations at `sample_point(0..m̄+CHECK)`.
    pub evals: Vec<Fe>,
    /// `|A|`.
    pub set_size: usize,
    /// The difference bound the sketch was built for.
    pub mbar: usize,
}

impl CpiSketch {
    /// Wire size in bytes: the evaluations, plus size/bound varints
    /// (modeled as 2×4 bytes).
    pub fn serialized_size(&self) -> usize {
        8 * self.evals.len() + 8
    }
}

/// The i-th agreed sample point: descending from p−1, far from embedded
/// IDs with overwhelming probability.
fn sample_point(i: usize) -> Fe {
    Fe(P - 1 - i as u64)
}

/// Build the sketch of `values` for difference bound `mbar`.
pub fn sketch(values: impl Iterator<Item = u64> + Clone, mbar: usize) -> CpiSketch {
    let mut evals = Vec::with_capacity(mbar + CHECK);
    let mut set_size = 0usize;
    for i in 0..mbar + CHECK {
        let z = sample_point(i);
        let mut acc = Fe::ONE;
        set_size = 0;
        for v in values.clone() {
            acc = acc.mul(z.sub(Fe::embed(v)));
            set_size += 1;
        }
        evals.push(acc);
    }
    CpiSketch { evals, set_size, mbar }
}

/// The recovered symmetric difference (as embedded field values).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CpiDiff {
    /// Elements of the remote set absent locally.
    pub only_remote: Vec<u64>,
    /// Local elements absent remotely.
    pub only_local: Vec<u64>,
}

/// Reconcile a received sketch against the local set.
pub fn reconcile(remote: &CpiSketch, local: &[u64]) -> Result<CpiDiff, CpiError> {
    let mbar = remote.mbar;
    let total = mbar + CHECK;
    assert_eq!(remote.evals.len(), total, "sketch length mismatch");

    // Local evaluations and the ratios f_i = χ_A(z_i) / χ_B(z_i).
    let mut ratios = Vec::with_capacity(total);
    for (i, &ae) in remote.evals.iter().enumerate() {
        let z = sample_point(i);
        let mut be = Fe::ONE;
        for &v in local {
            be = be.mul(z.sub(Fe::embed(v)));
        }
        if be == Fe::ZERO || ae == Fe::ZERO {
            return Err(CpiError::PointCollision);
        }
        ratios.push(ae.mul(be.inv()));
    }

    // Degrees: deg P − deg Q = |A| − |B| = Δ, deg P + deg Q ≤ m̄. When
    // m̄ + Δ is odd the split cannot use all of m̄; shrink by one (the true
    // difference has the same parity as Δ, so nothing is lost).
    let delta = remote.set_size as i64 - local.len() as i64;
    let mbar_eff = if (mbar as i64 + delta) % 2 != 0 { mbar.saturating_sub(1) } else { mbar };
    if delta.unsigned_abs() as usize > mbar_eff {
        return Err(CpiError::BoundTooSmall);
    }
    let dp = ((mbar_eff as i64 + delta) / 2) as usize;
    let dq = mbar_eff - dp;
    debug_assert_eq!(dp as i64 - dq as i64, delta);

    // Linear system over the first m̄ points for the non-leading
    // coefficients of monic P (deg dp) and monic Q (deg dq):
    //   Σ_j P_j z^j − f·Σ_j Q_j z^j = f·z^dq − z^dp.
    let unknowns = dp + dq;
    let mut m: Vec<Vec<Fe>> = Vec::with_capacity(unknowns);
    let mut rhs: Vec<Fe> = Vec::with_capacity(unknowns);
    for i in 0..unknowns.min(mbar) {
        let z = sample_point(i);
        let f = ratios[i];
        let mut row = Vec::with_capacity(unknowns);
        let mut zp = Fe::ONE;
        for _ in 0..dp {
            row.push(zp);
            zp = zp.mul(z);
        }
        let mut zq = Fe::ONE;
        for _ in 0..dq {
            row.push(f.neg().mul(zq));
            zq = zq.mul(z);
        }
        // zp is now z^dp, zq is z^dq.
        rhs.push(f.mul(zq).sub(zp));
        m.push(row);
    }

    let coeffs = solve(m, rhs).ok_or(CpiError::BoundTooSmall)?;
    let mut p_coeffs: Vec<Fe> = coeffs[..dp].to_vec();
    p_coeffs.push(Fe::ONE);
    let mut q_coeffs: Vec<Fe> = coeffs[dp..].to_vec();
    q_coeffs.push(Fe::ONE);
    let p_poly = Poly(p_coeffs);
    let q_poly = Poly(q_coeffs);

    // Remove any common factor introduced by over-sizing m̄.
    let g = p_poly.gcd(&q_poly);
    let (p_poly, q_poly) = if g.degree().unwrap_or(0) > 0 {
        (p_poly.divmod(&g).0, q_poly.divmod(&g).0)
    } else {
        (p_poly, q_poly)
    };

    // Verify at the CHECK points and any sample points the (possibly
    // parity-shrunk) system did not consume.
    for i in mbar_eff..total {
        let z = sample_point(i);
        let qz = q_poly.eval(z);
        if qz == Fe::ZERO {
            return Err(CpiError::BoundTooSmall);
        }
        if p_poly.eval(z).mul(qz.inv()) != ratios[i] {
            return Err(CpiError::BoundTooSmall);
        }
    }

    // Extract roots.
    let p_roots = p_poly.roots(0xc715);
    let q_roots = q_poly.roots(0xc716);
    if Some(p_roots.len()) != p_poly.degree() || Some(q_roots.len()) != q_poly.degree() {
        // Repeated or extension-field roots: not a valid difference.
        return Err(CpiError::BoundTooSmall);
    }
    Ok(CpiDiff {
        only_remote: p_roots.into_iter().map(|f| f.0).collect(),
        only_local: q_roots.into_iter().map(|f| f.0).collect(),
    })
}

/// Gaussian elimination over GF(p) with free variables set to zero.
///
/// When the true difference is smaller than `m̄` the system is consistent
/// but rank-deficient (P and Q share arbitrary extra factors); any solution
/// works because the subsequent GCD reduction cancels the shared factor.
/// Returns `None` only for an *inconsistent* system.
fn solve(mut m: Vec<Vec<Fe>>, mut rhs: Vec<Fe>) -> Option<Vec<Fe>> {
    let rows = rhs.len();
    let cols = m.first().map_or(0, Vec::len);
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; cols];
    let mut row = 0usize;
    for col in 0..cols {
        if row >= rows {
            break;
        }
        let Some(pr) = (row..rows).find(|&r| m[r][col] != Fe::ZERO) else {
            continue; // free column
        };
        m.swap(row, pr);
        rhs.swap(row, pr);
        let inv = m[row][col].inv();
        for c in col..cols {
            m[row][c] = m[row][c].mul(inv);
        }
        rhs[row] = rhs[row].mul(inv);
        for r in 0..rows {
            if r == row || m[r][col] == Fe::ZERO {
                continue;
            }
            let factor = m[r][col];
            for c in col..cols {
                let v = m[row][c].mul(factor);
                m[r][c] = m[r][c].sub(v);
            }
            let v = rhs[row].mul(factor);
            rhs[r] = rhs[r].sub(v);
        }
        pivot_of_col[col] = Some(row);
        row += 1;
    }
    // Inconsistency check: a zero row with non-zero RHS.
    for r in row..rows {
        if rhs[r] != Fe::ZERO && m[r].iter().all(|&c| c == Fe::ZERO) {
            return None;
        }
    }
    // Read off: pivot columns take the (fully reduced) RHS; free columns 0.
    let mut out = vec![Fe::ZERO; cols];
    for (col, pivot) in pivot_of_col.iter().enumerate() {
        if let Some(r) = pivot {
            out[col] = rhs[*r];
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3).collect()
    }

    fn run(a: &[u64], b: &[u64], mbar: usize) -> Result<CpiDiff, CpiError> {
        let sk = sketch(a.iter().copied(), mbar);
        reconcile(&sk, b)
    }

    fn embedded(mut v: Vec<u64>) -> Vec<u64> {
        // Compare against the field embedding (ids ≥ p fold).
        for x in v.iter_mut() {
            *x = Fe::embed(*x).0;
        }
        v.sort_unstable();
        v
    }

    #[test]
    fn identical_sets_empty_diff() {
        let a = ids(0..50);
        let d = run(&a, &a, 4).expect("reconciles");
        assert!(d.only_remote.is_empty() && d.only_local.is_empty());
    }

    #[test]
    fn small_asymmetric_difference() {
        let shared = ids(0..60);
        let mut a = shared.clone();
        a.extend(ids(1000..1003)); // 3 only-remote
        let mut b = shared;
        b.extend(ids(2000..2002)); // 2 only-local
        let d = run(&a, &b, 8).expect("reconciles");
        assert_eq!(d.only_remote.len(), 3);
        assert_eq!(d.only_local.len(), 2);
        assert_eq!(embedded(d.only_remote), embedded(ids(1000..1003)));
        assert_eq!(embedded(d.only_local), embedded(ids(2000..2002)));
    }

    #[test]
    fn exact_bound_works() {
        let a = ids(0..30);
        let b = ids(5..30); // diff = 5, all on the remote side
        let d = run(&a, &b, 5).expect("tight bound suffices");
        assert_eq!(d.only_remote.len(), 5);
        assert!(d.only_local.is_empty());
    }

    #[test]
    fn undersized_bound_detected() {
        let a = ids(0..100);
        let b = ids(20..100); // diff = 20
        match run(&a, &b, 6) {
            Err(CpiError::BoundTooSmall) => {}
            other => panic!("undersized bound not caught: {other:?}"),
        }
    }

    #[test]
    fn retry_loop_converges() {
        let a = ids(0..200);
        let b = ids(37..200);
        let mut mbar = 4;
        loop {
            match run(&a, &b, mbar) {
                Ok(d) => {
                    assert_eq!(d.only_remote.len(), 37);
                    break;
                }
                Err(CpiError::BoundTooSmall) => mbar *= 2,
                Err(e) => panic!("{e}"),
            }
            assert!(mbar <= 256, "retry loop diverged");
        }
    }

    #[test]
    fn empty_local_set() {
        let a = ids(0..10);
        let d = run(&a, &[], 12).expect("reconciles");
        assert_eq!(d.only_remote.len(), 10);
    }

    #[test]
    fn sketch_size_near_information_bound() {
        let sk = sketch(ids(0..1000).into_iter(), 40);
        // 8 bytes per difference slot + check/header overhead.
        assert_eq!(sk.serialized_size(), 8 * 42 + 8);
    }

    #[test]
    fn larger_difference_both_sides() {
        let shared = ids(0..150);
        let mut a = shared.clone();
        a.extend(ids(5000..5025));
        let mut b = shared;
        b.extend(ids(9000..9030));
        let d = run(&a, &b, 60).expect("reconciles");
        assert_eq!(d.only_remote.len(), 25);
        assert_eq!(d.only_local.len(), 30);
        assert_eq!(embedded(d.only_remote), embedded(ids(5000..5025)));
        assert_eq!(embedded(d.only_local), embedded(ids(9000..9030)));
    }
}
