//! §2.1 comparison: CPISync (Characteristic Polynomial Interpolation)
//! versus IBLTs for recovering a set difference of known size `d`.
//!
//! The paper: "several approaches involve more computation but are smaller
//! in size … Our focus is on IBLTs because they are balanced: minimal
//! computational costs and small size." This experiment puts numbers on
//! that sentence: CPISync transfers ~8 bytes per difference (near the
//! information bound) but decodes in O(d³); the IBLT transfers ~24–48
//! bytes per difference and decodes in O(d).
//!
//! The stdout table carries only what a fixed `--seed` reproduces at any
//! `--threads` — the byte counts and how many of the IBLTs, sized for one
//! failure in 240, did not decode; the measured decode times go to stderr
//! alongside the engine's own timing lines.

use graphene_baselines::cpisync::{reconcile, sketch, CHECK};
use graphene_experiments::{PropAcc, RunOpts, SumAcc, Table, TableWriter};
use graphene_iblt::{Iblt, CELL_BYTES, HEADER_BYTES};
use graphene_iblt_params::params_for;
use rand::{rngs::StdRng, RngExt};
use std::time::Instant;

fn main() {
    let opts = RunOpts::from_args(50);
    let engine = opts.engine();
    let mut table = Table::new(
        "§2.1 — CPISync vs IBLT for a difference of d items (sets of 2000)",
        &["d", "cpi_bytes", "iblt_bytes", "bytes_ratio", "iblt_failures", "trials"],
    );
    let n = 2000usize;
    for d in [2usize, 8, 32, 128, 512] {
        let trials = opts.trials;
        let (cpi_b, iblt_b, cpi_t, iblt_t, iblt_decoded) = engine.run(
            &format!("cpisync d={d}"),
            trials,
            |_, rng: &mut StdRng, acc: &mut (SumAcc, SumAcc, SumAcc, SumAcc, PropAcc)| {
                let shared: Vec<u64> = (0..n - d).map(|_| rng.random()).collect();
                let extra: Vec<u64> = (0..d).map(|_| rng.random()).collect();
                let mut a = shared.clone();
                a.extend(&extra);
                let b = shared;

                // CPISync with the exact bound (fair best case for it).
                let sk = sketch(a.iter().copied(), d);
                acc.0.push(sk.serialized_size() as f64);
                let t0 = Instant::now();
                let diff = reconcile(&sk, &b).expect("bound is exact");
                acc.2.push(t0.elapsed().as_secs_f64() * 1000.0);
                assert_eq!(diff.only_remote.len(), d);

                // IBLT sized from the table at 1/240.
                let p = params_for(d, 240);
                acc.1.push((HEADER_BYTES + p.c * CELL_BYTES) as f64);
                let salt: u64 = rng.random();
                let mut ia = Iblt::new(p.c, p.k, salt);
                let mut ib = Iblt::new(p.c, p.k, salt);
                let t1 = Instant::now();
                ia.insert_batch(&a);
                ib.insert_batch(&b);
                let r = ia.subtract(&ib).unwrap().peel().unwrap();
                acc.3.push(t1.elapsed().as_secs_f64() * 1000.0);
                acc.4.push(r.complete);
            },
        );
        let _ = CHECK;
        // Byte counts are identical every trial, so the means are exact.
        let cpi_bytes = (cpi_b.sum() / trials as f64).round() as usize;
        let iblt_bytes = (iblt_b.sum() / trials as f64).round() as usize;
        eprintln!(
            "[cpisync] d={d}: decode {:.3} ms/trial (cpisync) vs {:.3} ms/trial (iblt), {:.1}x",
            cpi_t.sum() / trials as f64,
            iblt_t.sum() / trials as f64,
            cpi_t.sum() / iblt_t.sum().max(1e-9),
        );
        table.row(&[
            d.to_string(),
            cpi_bytes.to_string(),
            iblt_bytes.to_string(),
            format!("{:.2}", iblt_bytes as f64 / cpi_bytes as f64),
            iblt_decoded.failures().to_string(),
            trials.to_string(),
        ]);
    }
    TableWriter::new().emit("cpisync", &table);
    println!(
        "CPISync is ~3-6x smaller on the wire but orders of magnitude slower to\n\
         decode as d grows (decode timings on stderr) — the balance argument\n\
         behind Graphene's IBLT choice."
    );
}
