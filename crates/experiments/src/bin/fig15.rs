//! Figure 15: [Simulation, Protocol 1] decode failure probability with
//! β = 239/240 as the mempool's extra transactions grow, for blocks of
//! 200 / 2000 / 10000 transactions. The measured rate should stay below
//! 1/240 at every point.

use graphene::{GrapheneConfig, RelayOutcome};
use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter, Trial};
use rand::rngs::StdRng;

fn main() {
    let opts = RunOpts::from_args(10_000);
    let engine = opts.engine();
    let cfg = GrapheneConfig::default();
    let mut table = Table::new(
        "Fig. 15 — [Sim P1] decode failure probability vs mempool multiple (target 1/240)",
        &["n", "multiple", "fail_rate", "trials", "target"],
    );
    for n in [200usize, 2000, 10_000] {
        let trials = opts.trials_for(n);
        for mult10 in (0..=50).step_by(10) {
            let multiple = mult10 as f64 / 10.0;
            let extras = ((n as f64) * multiple).round() as usize;
            let fail = engine.run(
                &format!("fig15 n={n} mult={multiple:.1}"),
                trials,
                |_, rng: &mut StdRng, acc: &mut PropAcc| {
                    acc.push(
                        Trial::draw(n, 1.0, extras, rng).relay(&cfg) != RelayOutcome::DecodedP1,
                    );
                },
            );
            table.row(&[
                n.to_string(),
                format!("{multiple:.1}"),
                format!("{:.5}", fail.rate()),
                trials.to_string(),
                format!("{:.5}", 1.0 / 240.0),
            ]);
        }
    }
    TableWriter::new().emit("fig15", &table);
}
