//! Algorithm 1 (paper Fig. 9): find the optimally small cell count for a
//! target decode rate, plus the outer loop over `k`.

use crate::hypergraph::{decode_trial_with, Scratch};
use crate::FailureRate;
use rand::{rngs::StdRng, SeedableRng};

/// Tuning for the statistical search.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Maximum hedge factor searched: `c_max = ceil(j · max_tau)` (the
    /// paper's implementation sets this to 20).
    pub max_tau: f64,
    /// Two-sided z-score for the confidence interval (1.96 ≈ 95%).
    pub z: f64,
    /// Per-candidate trial cap; if the interval is still inconclusive after
    /// this many trials the candidate is treated as insufficient
    /// (conservative — never undershoots the target rate).
    pub max_trials: usize,
    /// RNG seed for reproducible searches.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { max_tau: 20.0, z: 1.96, max_trials: 12_000, seed: 0x1b17 }
    }
}

/// Wilson score interval half-widths are awkward to invert, so we use the
/// plain Wald interval the paper's `conf_int` suggests, with a +1/+2 Agresti
/// smoothing to behave at extreme proportions.
fn conf_halfwidth(successes: usize, trials: usize, z: f64) -> f64 {
    let n = trials as f64 + 4.0;
    let p = (successes as f64 + 2.0) / n;
    z * (p * (1.0 - p) / n).sqrt()
}

/// Decision of the acceptance test for one candidate `c`.
enum Verdict {
    Sufficient,
    Insufficient,
}

/// Run trials at a fixed candidate `c` until the confidence interval clears
/// the target success rate `p` on one side, the interval shrinks inside the
/// paper's `±L` dead-band (treated as insufficient, see module docs), or the
/// trial cap is hit.
fn test_candidate(
    j: usize,
    k: u32,
    c: usize,
    p: f64,
    cfg: &SearchConfig,
    rng: &mut StdRng,
    scratch: &mut Scratch,
) -> Verdict {
    let dead_band = (1.0 - p) / 5.0; // the paper's L
    let mut successes = 0usize;
    let mut trials = 0usize;
    loop {
        trials += 1;
        if decode_trial_with(j, k, c, rng, scratch) {
            successes += 1;
        }
        // Only test every few trials; the interval moves slowly.
        if !trials.is_multiple_of(32) && trials < cfg.max_trials {
            continue;
        }
        let r = successes as f64 / trials as f64;
        let conf = conf_halfwidth(successes, trials, cfg.z);
        if r - conf >= p {
            return Verdict::Sufficient;
        }
        if r + conf <= p {
            return Verdict::Insufficient;
        }
        if (r - conf > p - dead_band) && (r + conf < p + dead_band) {
            // Statistically indistinguishable from the target: the paper
            // bumps the lower bound (cl = c), i.e. treats c as insufficient.
            return Verdict::Insufficient;
        }
        if trials >= cfg.max_trials {
            return Verdict::Insufficient;
        }
    }
}

/// Algorithm 1: binary-search the smallest `c` (multiple of `k`) such that a
/// j-item IBLT with `k` hash functions decodes with probability ≥
/// `1 - rate.0`, with high statistical confidence.
///
/// Returns `None` if even `c_max` is insufficient (never happens for sane
/// targets with `max_tau = 20`).
pub fn search_c(j: usize, k: u32, rate: FailureRate, cfg: &SearchConfig) -> Option<usize> {
    search_c_with(j, k, rate, cfg, &mut Scratch::default())
}

/// As [`search_c`], with caller-provided hypergraph scratch so the outer
/// `k`-loop ([`optimize`]) reuses one trial buffer across the whole search
/// instead of reallocating per `k`. The RNG stream depends only on
/// `(j, k, seed)`, so results are identical to [`search_c`].
pub fn search_c_with(
    j: usize,
    k: u32,
    rate: FailureRate,
    cfg: &SearchConfig,
    scratch: &mut Scratch,
) -> Option<usize> {
    let p = rate.success();
    let k_us = k as usize;
    if j == 0 {
        return Some(k_us);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (j as u64) << 20 ^ (k as u64));

    // Search in units of k cells: candidate c = u·k. Fewer cells than items
    // can never decode, so the lower bound is j rounded up.
    let mut lo = j.max(1).div_ceil(k_us); // first candidate that could work
    let mut hi = (((j as f64) * cfg.max_tau).ceil() as usize).div_ceil(k_us).max(lo);

    // Confirm the upper bound actually suffices.
    match test_candidate(j, k, hi * k_us, p, cfg, &mut rng, scratch) {
        Verdict::Sufficient => {}
        Verdict::Insufficient => return None,
    }

    // Invariant: hi is sufficient; all candidates below lo are untested or
    // insufficient. Standard lower-bound binary search.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match test_candidate(j, k, mid * k_us, p, cfg, &mut rng, scratch) {
            Verdict::Sufficient => hi = mid,
            Verdict::Insufficient => lo = mid + 1,
        }
    }
    Some(hi * k_us)
}

/// The outer loop of §4.1: try each `k` in `ks` and keep the smallest `c`.
///
/// Returns `(k, c)` of the best geometry found.
pub fn optimize(
    j: usize,
    rate: FailureRate,
    ks: impl IntoIterator<Item = u32>,
    cfg: &SearchConfig,
) -> Option<(u32, usize)> {
    let mut best: Option<(u32, usize)> = None;
    // One trial scratch for the whole k-loop.
    let mut scratch = Scratch::default();
    for k in ks {
        if k < 2 {
            continue;
        }
        // Prune: cap the search at the best geometry found so far — a `k`
        // that cannot beat it fails its upper-bound check quickly.
        let mut cfg_k = *cfg;
        if let Some((_, bc)) = best {
            cfg_k.max_tau = cfg_k.max_tau.min(bc as f64 / j.max(1) as f64);
        }
        if let Some(c) = search_c_with(j, k, rate, &cfg_k, &mut scratch) {
            if best.is_none_or(|(_, bc)| c < bc) {
                best = Some((k, c));
            }
        }
    }
    best
}

/// As [`optimize`], but searches each `k` on its own scoped thread. Used by
/// the table generator on multi-core machines; results are identical to the
/// sequential search (each `k`'s RNG stream is derived from `(j, k, seed)`
/// only).
///
/// Note: without the sequential version's best-so-far pruning each `k` pays
/// its full search, so this only wins when cores outnumber the pruning
/// savings (roughly: 4+ cores).
pub fn optimize_parallel(
    j: usize,
    rate: FailureRate,
    ks: impl IntoIterator<Item = u32>,
    cfg: &SearchConfig,
) -> Option<(u32, usize)> {
    let ks: Vec<u32> = ks.into_iter().filter(|&k| k >= 2).collect();
    let mut results: Vec<Option<(u32, usize)>> = vec![None; ks.len()];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ks.len());
        for &k in &ks {
            let cfg = *cfg;
            // One scratch per thread, reused across that k's whole search.
            handles.push(scope.spawn(move || {
                search_c_with(j, k, rate, &cfg, &mut Scratch::default()).map(|c| (k, c))
            }));
        }
        for (slot, handle) in results.iter_mut().zip(handles) {
            *slot = handle.join().expect("search thread panicked");
        }
    });
    results.into_iter().flatten().min_by_key(|&(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::failure_rate;

    fn cfg() -> SearchConfig {
        // Cheap settings for unit tests; the table generator uses defaults.
        SearchConfig { max_trials: 6_000, ..SearchConfig::default() }
    }

    #[test]
    fn found_c_meets_rate() {
        let rate = FailureRate(1.0 / 24.0);
        let c = search_c(20, 4, rate, &cfg()).expect("search converges");
        // Validate empirically with an independent seed.
        let mut rng = StdRng::seed_from_u64(9999);
        let measured = failure_rate(20, 4, c, 4_000, &mut rng);
        assert!(
            measured <= rate.0 * 1.6,
            "c = {c}: measured failure {measured} vs target {}",
            rate.0
        );
    }

    #[test]
    fn found_c_is_tight() {
        // A substantially smaller table must miss the target — otherwise the
        // search result is not minimal.
        let rate = FailureRate(1.0 / 24.0);
        let c = search_c(20, 4, rate, &cfg()).expect("search converges");
        let smaller = (c * 7 / 10).div_ceil(4) * 4;
        let mut rng = StdRng::seed_from_u64(777);
        let measured = failure_rate(20, 4, smaller.max(4), 4_000, &mut rng);
        assert!(
            measured > rate.0,
            "70% of the found c still meets the rate: c={c}, measured {measured}"
        );
    }

    #[test]
    fn c_multiple_of_k() {
        for k in [3u32, 4, 5] {
            let c = search_c(15, k, FailureRate(1.0 / 24.0), &cfg()).unwrap();
            assert_eq!(c % k as usize, 0, "k = {k}, c = {c}");
        }
    }

    #[test]
    fn zero_items_trivial() {
        assert_eq!(search_c(0, 3, FailureRate(0.01), &cfg()), Some(3));
    }

    #[test]
    fn stricter_rate_needs_more_cells() {
        let loose = search_c(30, 4, FailureRate(1.0 / 24.0), &cfg()).unwrap();
        let strict = search_c(30, 4, FailureRate(1.0 / 240.0), &cfg()).unwrap();
        assert!(strict >= loose, "stricter target produced a smaller table: {strict} < {loose}");
    }

    #[test]
    fn parallel_matches_sequential_candidates() {
        // The parallel search lacks cross-k pruning, so it may find a
        // *smaller* c for some k than the pruned sequential pass skipped —
        // but its winner can never be worse.
        let rate = FailureRate(1.0 / 24.0);
        let seq = optimize(25, rate, 3..=5, &cfg()).unwrap();
        let par = optimize_parallel(25, rate, 3..=5, &cfg()).unwrap();
        // The sequential pass prunes `max_tau` from the best-so-far, which
        // changes the pruned k's binary-search path and hence its RNG
        // stream; the two runs are different statistical estimates and may
        // legitimately disagree by one step of the search granularity `k`.
        assert!(
            par.1 <= seq.1 + par.0 as usize,
            "parallel {par:?} worse than sequential {seq:?} by more than one k-step"
        );
    }

    #[test]
    fn optimize_picks_min_over_k() {
        let rate = FailureRate(1.0 / 24.0);
        let (k, c) = optimize(50, rate, 3..=6, &cfg()).unwrap();
        for other_k in 3..=6u32 {
            if other_k == k {
                continue;
            }
            let oc = search_c(50, other_k, rate, &cfg()).unwrap();
            assert!(c <= oc, "k={k} gave {c} but k={other_k} gives {oc}");
        }
    }
}
