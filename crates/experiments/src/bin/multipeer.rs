//! §4.2 extension experiment: joint decoding of IBLTs from multiple
//! neighbors. "A receiver could ask many neighbors for the same block and
//! the IBLTs can be jointly decoded" — each neighbor builds its Graphene
//! IBLT with an independent salt; the receiver subtracts her candidate set
//! from each and decodes them together.
//!
//! We sweep the per-table hedge below the single-table requirement and show
//! how many neighbors buy back the decode rate — i.e., how much smaller
//! each sender's IBLT could be if receivers pooled responses.

use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter};
use graphene_iblt::{joint_decode, Iblt};
use rand::{rngs::StdRng, RngExt};

fn main() {
    let opts = RunOpts::from_args(4000);
    let engine = opts.engine();
    let mut table = Table::new(
        "§4.2 extension — joint decode failure rate vs neighbor count (j = 40 items, k = 3)",
        &["tau", "cells", "neighbors_1", "neighbors_2", "neighbors_3", "neighbors_5", "trials"],
    );
    let j = 40usize;
    let counts = [1usize, 2, 3, 5];
    for tau10 in [10usize, 11, 12, 13, 15] {
        let cells = (j * tau10 / 10).div_ceil(3) * 3;
        let trials = opts.trials;
        let failures = engine.run(
            &format!("multipeer tau={:.1}", tau10 as f64 / 10.0),
            trials,
            |_, rng: &mut StdRng, acc: &mut [PropAcc; 4]| {
                let values: Vec<u64> = (0..j).map(|_| rng.random()).collect();
                let salts: Vec<u64> = (0..5).map(|_| rng.random()).collect();
                let build = |salt: u64| {
                    let mut t = Iblt::new(cells, 3, salt);
                    t.insert_batch(&values);
                    t
                };
                for (slot, &count) in counts.iter().enumerate() {
                    let mut tables: Vec<Iblt> = salts[..count].iter().map(|&s| build(s)).collect();
                    acc[slot].push(!joint_decode(&mut tables).map(|r| r.complete).unwrap_or(false));
                }
            },
        );
        table.row(&[
            format!("{:.1}", tau10 as f64 / 10.0),
            cells.to_string(),
            format!("{:.4}", failures[0].rate()),
            format!("{:.4}", failures[1].rate()),
            format!("{:.4}", failures[2].rate()),
            format!("{:.4}", failures[3].rate()),
            trials.to_string(),
        ]);
    }
    TableWriter::new().emit("multipeer", &table);
    println!(
        "Reading: at τ where one IBLT fails most of the time, a handful of neighbors'\n\
         tables decode jointly — senders could ship materially smaller IBLTs when\n\
         receivers pool responses."
    );
}
