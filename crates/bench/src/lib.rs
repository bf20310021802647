//! Shared benchmark infrastructure: the deterministic regression-gate
//! runner, its standard scenario, and pre-optimization reference
//! implementations.

#![forbid(unsafe_code)]

pub mod reference;
pub mod runner;

use graphene_blockchain::{Scenario, ScenarioParams, TxProfile};
use rand::{rngs::StdRng, SeedableRng};

/// A standard benchmark scenario: block of `n`, mempool superset with `n`
/// extras, 120-byte transactions.
pub fn bench_scenario(n: usize, seed: u64) -> Scenario {
    let params = ScenarioParams {
        block_size: n,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        profile: TxProfile::Fixed(120),
        ..Default::default()
    };
    Scenario::generate(&params, &mut StdRng::seed_from_u64(seed))
}
