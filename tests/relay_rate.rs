//! The statistical gate on the paper's central claim, on the relay that
//! ships.
//!
//! `tests/decode_rate.rs` holds each sketch to what it was sized for; this
//! holds the protocols built from them to what they promise. A relay fails
//! with probability at most 1 − β = 1/240 — Protocol 1 for a receiver that
//! holds the block (Fig. 15), Protocol 2 with ping-pong for one that does
//! not (Fig. 16) — and the bounds of Theorems 2 and 3, `x* ≤ x` and
//! `y* ≥ y`, hold with probability β (Figs. 19, 20). Every trial is a
//! [`Trial`]: a CTOR block and a receiver's mempool of forged transactions
//! through `relay_block`, or through Protocol 1 and Protocol 2's request,
//! at n = 200 with fixed seeds on the `mc` engine.
//!
//! Each check fails only when the claim is out of reach of what was seen:
//! a failure rate whose Wilson 95 % interval lies wholly above 1/240, a
//! bound's hold rate whose interval lies wholly below β. At 600 trials a
//! point fails from 6 failures, or 6 violations of a bound, up (2.5 are
//! expected at exactly 1/240).

use graphene::{GrapheneConfig, RelayOutcome};
use graphene_experiments::{mc::run_trials, PropAcc, Trial};

const N: usize = 200;
const TRIALS: usize = 600;
const BETA: f64 = 239.0 / 240.0;

fn assert_fails_at_most_once_in_240(point: &str, failed: PropAcc) {
    let (rate, lo, _) = failed.ci95();
    println!("{point}: {} failures in {}", failed.successes(), failed.trials());
    assert!(lo <= 1.0 - BETA, "{point}: failure rate {rate:.5}, Wilson low end {lo:.5} > 1/240");
}

fn assert_holds_at_beta(point: &str, held: PropAcc) {
    let (rate, _, hi) = held.ci95();
    println!("{point}: violated {} times in {}", held.failures(), held.trials());
    assert!(hi >= BETA, "{point}: holds at rate {rate:.5}, Wilson high end {hi:.5} < β");
}

/// Fig. 15 at mempool multiples 1 and 3: the receiver holds the whole
/// block among `N · multiple` unrelated transactions, and Protocol 1 alone
/// must decode.
#[test]
fn protocol1_fails_at_most_once_in_240() {
    let cfg = GrapheneConfig::default();
    for multiple in [1, 3] {
        let failed = run_trials(TRIALS, 0x15 + multiple as u64, |_, rng, acc: &mut PropAcc| {
            let trial = Trial::draw(N, 1.0, N * multiple, rng);
            acc.push(trial.relay(&cfg) != RelayOutcome::DecodedP1);
        });
        assert_fails_at_most_once_in_240(&format!("P1, multiple {multiple}"), failed);
    }
}

/// Figs. 16, 19 and 20 at fractions held 0.2 and 0.6, with `N` unrelated
/// transactions in the pool: the relay through Protocol 2 with ping-pong
/// must reconstruct the block, and the `x*` and `y*` that sized its request
/// must bound the truth.
#[test]
fn protocol2_fails_at_most_once_in_240_and_its_bounds_hold_at_beta() {
    let cfg = GrapheneConfig::default();
    for fraction in [0.2, 0.6] {
        let seed = 0x16 + (fraction * 10.0) as u64;
        let (failed, x_star, y_star) =
            run_trials(TRIALS, seed, |_, rng, acc: &mut (PropAcc, PropAcc, PropAcc)| {
                let trial = Trial::draw(N, fraction, N, rng);
                acc.0.push(!trial.relay(&cfg).is_success());
                let bounds = trial.bounds(&cfg).expect("P1 cannot decode a block it lacks");
                acc.1.push(bounds.x_star_holds);
                acc.2.push(bounds.y_star_holds);
            });
        assert_fails_at_most_once_in_240(&format!("P2, fraction {fraction}"), failed);
        assert_holds_at_beta(&format!("x* <= x, fraction {fraction}"), x_star);
        assert_holds_at_beta(&format!("y* >= y, fraction {fraction}"), y_star);
    }
}
