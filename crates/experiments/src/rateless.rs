//! Rateless-vs-retry sweep over the recovery ladder: what does a failed
//! Graphene attempt cost to rescue?
//!
//! Each trial generates one scenario under a deliberately under-assured
//! Graphene configuration (low β, coarse IBLT rate, no ping-pong — the
//! same "flaky" knobs the core recovery tests use) and relays it twice
//! through [`relay_with_recovery`]:
//!
//! * **retry arm** — the default ladder: inflated Graphene re-requests
//!   (fresh salts, 1.5×-sized IBLTs), then short IDs, then the full block;
//! * **rateless arm** — [`RecoveryPolicy::rateless_first`]: one Graphene
//!   attempt, then a growing stream of rateless coded cells (arXiv
//!   2402.02668) against the candidates the failed attempt already built.
//!
//! Both arms must deliver every block (asserted). The sweep reports, over
//! the *degraded* trials only (where at least one arm left the first
//! rung), the mean recovery bytes (transaction bodies excluded — both
//! arms ship the same bodies) and round trips per arm. The interesting
//! regime is a bad difference estimate: a large block almost entirely
//! held by the receiver, so the true symmetric difference is tiny but the
//! failed sketches were sized for `n`. There a retry re-ships
//! block-proportional sketches while the rateless rung streams
//! difference-proportional cells — it must win on bytes AND rounds.
//!
//! Trials run through the deterministic [`Engine`], so every reported
//! number is bit-identical for any `--threads` value.

use crate::{Engine, PropAcc, SumAcc};
use graphene::{relay_with_recovery, GrapheneConfig, RecoveryPolicy};
use graphene_blockchain::{Scenario, ScenarioParams};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// (block size, fraction of the block already in the receiver's mempool)
/// points the default sweep visits. The last point is the
/// bad-difference-estimate regime the ISSUE's acceptance criterion names.
pub const POINTS: &[(usize, f64)] = &[(100, 0.50), (200, 0.50), (400, 0.80), (800, 0.95)];

/// The under-assured configuration that makes first attempts fail on a
/// few percent of seeds: β barely above ½, an IBLT sized at a third of
/// the estimated difference, no ping-pong decode.
pub fn flaky_config() -> GrapheneConfig {
    GrapheneConfig { beta: 0.51, iblt_rate_denom: 3, pingpong: false, ..GrapheneConfig::default() }
}

/// Aggregated results for one (n, held) sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Block size (transactions).
    pub n: usize,
    /// Fraction of the block in the receiver's mempool.
    pub held: f64,
    /// Fraction of relays (both arms) that reconstructed the block.
    /// Must be 1.0 — the ladder never gives up.
    pub delivery: f64,
    /// Fraction of trials where at least one arm degraded past rung 1.
    pub degraded: f64,
    /// Mean recovery bytes per degraded trial, retry arm (bodies excluded).
    pub retry_bytes: f64,
    /// Mean round trips per degraded trial, retry arm.
    pub retry_rounds: f64,
    /// Mean recovery bytes per degraded trial, rateless arm.
    pub rateless_bytes: f64,
    /// Mean round trips per degraded trial, rateless arm.
    pub rateless_rounds: f64,
}

/// Raw per-trial measurements.
struct Trial {
    delivered_retry: bool,
    delivered_rateless: bool,
    degraded: bool,
    retry_bytes: f64,
    retry_rounds: f64,
    rateless_bytes: f64,
    rateless_rounds: f64,
}

/// One trial: generate the scenario, run both arms, compare.
fn run_once(n: usize, held: f64, seed: u64) -> Trial {
    let params = ScenarioParams {
        block_size: n,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: held,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(seed));
    let cfg = flaky_config();
    let retry =
        relay_with_recovery(&s.block, None, &s.receiver_mempool, &cfg, &RecoveryPolicy::default());
    let rateless = relay_with_recovery(
        &s.block,
        None,
        &s.receiver_mempool,
        &cfg,
        &RecoveryPolicy::rateless_first(),
    );
    let degraded = !(retry.clean() && rateless.clean());
    Trial {
        delivered_retry: retry.ordered_ids == s.block.ids(),
        delivered_rateless: rateless.ordered_ids == s.block.ids(),
        degraded,
        // Bodies excluded: both arms fetch the same missing transactions,
        // so including them would only dilute the protocol-cost contrast.
        retry_bytes: if degraded { retry.bytes.total_excluding_txns() as f64 } else { 0.0 },
        retry_rounds: if degraded { retry.rounds as f64 } else { 0.0 },
        rateless_bytes: if degraded { rateless.bytes.total_excluding_txns() as f64 } else { 0.0 },
        rateless_rounds: if degraded { rateless.rounds as f64 } else { 0.0 },
    }
}

/// Run `trials` trials at one sweep point through `engine`.
pub fn sweep_point(engine: &Engine, trials: usize, n: usize, held: f64) -> SweepPoint {
    type Acc = (PropAcc, SumAcc, SumAcc, SumAcc, SumAcc, SumAcc);
    let label = format!("rateless n={n} held={:.0}%", held * 100.0);
    let (delivered, degraded, retry_b, retry_r, rateless_b, rateless_r) =
        engine.run(&label, trials, |_, rng: &mut StdRng, acc: &mut Acc| {
            let t = run_once(n, held, rng.random());
            acc.0.push(t.delivered_retry);
            acc.0.push(t.delivered_rateless);
            acc.1.push(if t.degraded { 1.0 } else { 0.0 });
            acc.2.push(t.retry_bytes);
            acc.3.push(t.retry_rounds);
            acc.4.push(t.rateless_bytes);
            acc.5.push(t.rateless_rounds);
        });
    let d = degraded.sum().max(1.0);
    SweepPoint {
        n,
        held,
        delivery: delivered.rate(),
        degraded: degraded.sum() / trials as f64,
        retry_bytes: retry_b.sum() / d,
        retry_rounds: retry_r.sum() / d,
        rateless_bytes: rateless_b.sum() / d,
        rateless_rounds: rateless_r.sum() / d,
    }
}

/// Sweep all `points`.
pub fn run_sweep(engine: &Engine, trials: usize, points: &[(usize, f64)]) -> Vec<SweepPoint> {
    points.iter().map(|&(n, held)| sweep_point(engine, trials, n, held)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE acceptance criterion: in the bad-difference-estimate
    /// regime the rateless rung strictly beats the inflated retries on
    /// BOTH bytes and rounds, with every block delivered in both arms.
    #[test]
    fn bad_estimate_regime_rateless_strictly_wins() {
        let p = sweep_point(&Engine::new(4, 0xeca1), 60, 800, 0.95);
        assert!((p.delivery - 1.0).abs() < 1e-12, "a ladder failed to deliver: {p:?}");
        assert!(p.degraded > 0.0, "flaky config never degraded; sweep is vacuous");
        assert!(p.rateless_bytes < p.retry_bytes, "rateless must beat retry on bytes: {p:?}");
        assert!(p.rateless_rounds < p.retry_rounds, "rateless must beat retry on rounds: {p:?}");
    }

    /// The sweep is bit-identical for any thread count (the mc engine's
    /// chunked merge order plus counter-based trial seeds).
    #[test]
    fn sweep_is_thread_count_invariant() {
        let trials = 20;
        let points = [(100, 0.50), (200, 0.80)];
        let a = run_sweep(&Engine::new(1, 7), trials, &points);
        let b = run_sweep(&Engine::new(2, 7), trials, &points);
        let c = run_sweep(&Engine::new(8, 7), trials, &points);
        assert_eq!(a, b, "1 vs 2 threads diverged");
        assert_eq!(a, c, "1 vs 8 threads diverged");
        for p in &a {
            assert!((p.delivery - 1.0).abs() < 1e-12, "delivery not total: {p:?}");
        }
    }
}
