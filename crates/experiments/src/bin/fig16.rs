//! Figure 16: [Simulation, Protocol 2] decode failure probability versus
//! the fraction of the block the receiver holds, with and without §4.2
//! ping-pong decoding. Ping-pong should improve the rate by orders of
//! magnitude.

use graphene::GrapheneConfig;
use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter, Trial};
use rand::rngs::StdRng;

fn main() {
    let opts = RunOpts::from_args(10_000);
    let engine = opts.engine();
    let cfg = GrapheneConfig::default();
    let single = GrapheneConfig { pingpong: false, ..cfg };
    let mut table = Table::new(
        "Fig. 16 — [Sim P2] decode failure vs fraction of block held, ping-pong ablation",
        &["n", "fraction", "fail_pingpong", "fail_single", "trials"],
    );
    for n in [200usize, 2000, 10_000] {
        let trials = opts.trials_for(n);
        for frac10 in (0..=10).step_by(2) {
            let fraction = frac10 as f64 / 10.0;
            let (pp_fail, single_fail) = engine.run(
                &format!("fig16 n={n} frac={fraction:.1}"),
                trials,
                |_, rng: &mut StdRng, acc: &mut (PropAcc, PropAcc)| {
                    let trial = Trial::draw(n, fraction, n, rng);
                    acc.0.push(!trial.relay(&cfg).is_success());
                    acc.1.push(!trial.relay(&single).is_success());
                },
            );
            table.row(&[
                n.to_string(),
                format!("{fraction:.1}"),
                format!("{:.5}", pp_fail.rate()),
                format!("{:.5}", single_fail.rate()),
                trials.to_string(),
            ]);
        }
    }
    TableWriter::new().emit("fig16", &table);
}
