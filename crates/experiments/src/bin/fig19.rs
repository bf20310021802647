//! Figure 19: empirical validation of Theorem 2 — the fraction of Monte
//! Carlo trials in which `x* ≤ x`, versus the fraction of the block in the
//! receiver's mempool. Must stay at or above β = 239/240.

use graphene::GrapheneConfig;
use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter, Trial};
use rand::rngs::StdRng;

fn main() {
    let opts = RunOpts::from_args(10_000);
    let engine = opts.engine();
    let cfg = GrapheneConfig::default();
    let mut table = Table::new(
        "Fig. 19 — Theorem 2 validation: Pr[x* <= x] vs fraction of block held (beta = 239/240)",
        &["n", "fraction", "bound_holds", "trials", "beta"],
    );
    for n in [200usize, 2000, 10_000] {
        let trials = opts.trials_for(n);
        for frac10 in (0..=9).step_by(3) {
            let fraction = frac10 as f64 / 10.0;
            let holds = engine.run(
                &format!("fig19 n={n} frac={fraction:.1}"),
                trials,
                |_, rng: &mut StdRng, acc: &mut PropAcc| {
                    // The theorem is only engaged when Protocol 2 runs.
                    if let Some(bounds) = Trial::draw(n, fraction, n, rng).bounds(&cfg) {
                        acc.push(bounds.x_star_holds);
                    }
                },
            );
            let rate = if holds.trials() == 0 { 1.0 } else { holds.rate() };
            table.row(&[
                n.to_string(),
                format!("{fraction:.1}"),
                format!("{rate:.5}"),
                holds.trials().to_string(),
                format!("{:.5}", 239.0 / 240.0),
            ]);
        }
    }
    TableWriter::new().emit("fig19", &table);
}
