//! Ablation studies for the design choices called out in DESIGN.md §6.
//!
//! 1. **Chernoff padding (`a*`) on/off** — sizing IBLT `I` for the *expected*
//!    false-positive count `a` instead of the β-assured `a*` collapses the
//!    Protocol 1 decode rate (this is why Theorem 1 exists).
//! 2. **Eq. 3 closed form vs exact discrete scan** — §3.3.1 warns the
//!    closed-form critical point can be up to ~20% off the true discrete
//!    minimum for `a < 100`.
//! 3. **Bloom backend** — classic Bloom vs Cuckoo vs Golomb-coded set at
//!    equal FPR: the size/query tradeoff behind §3.3's "alternatives" note.

use graphene::params::{a_star, optimal_a};
use graphene_bloom::{params::bloom_size_bytes, BloomFilter, CuckooFilter, GcsBuilder, Membership};
use graphene_experiments::{PropAcc, RunOpts, Table, TableWriter};
use graphene_hashes::{short_id_8, Digest};
use graphene_iblt::{Iblt, CELL_BYTES, HEADER_BYTES};
use graphene_iblt_params::params_for;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Ablation 1: decode rate with and without the Theorem 1 padding.
fn padding_ablation(opts: &RunOpts) -> Table {
    let beta = 239.0 / 240.0;
    let mut table = Table::new(
        "Ablation 1 — IBLT sized for a (unpadded) vs a* (Theorem 1): P1 decode failure",
        &["n", "m", "a", "a_star", "fail_unpadded", "fail_padded", "trials"],
    );
    for (n, mult) in [(200usize, 2.0), (1000, 1.0)] {
        let m = n + (n as f64 * mult) as usize;
        let choice = optimal_a(n, m, beta, 240);
        let (a, astar) = (choice.a, choice.a_star);
        let trials = opts.trials_for(n);
        let fail = opts.engine().run(
            &format!("ablation padding n={n}"),
            trials,
            |_, rng: &mut StdRng, acc: &mut [PropAcc; 2]| {
                let block: Vec<Digest> = (0..n).map(|_| Digest(rng.random())).collect();
                let extras: Vec<Digest> = (0..m - n).map(|_| Digest(rng.random())).collect();
                let salt: u64 = rng.random();
                let mut s = BloomFilter::new(n, choice.fpr, salt);
                s.insert_batch(&block);
                let s_hits = s.contains_batch(&extras);
                let false_positives: Vec<Digest> = (extras.iter().enumerate())
                    .filter(|(j, _)| s_hits.get(*j))
                    .map(|(_, id)| *id)
                    .collect();
                for (which, j) in [(0usize, a), (1, astar)] {
                    let p = params_for(j.max(1), 240);
                    let mut i = Iblt::new(p.c, p.k, salt ^ (which as u64 + 1));
                    i.insert_batch_by(&block, short_id_8);
                    let mut i_prime = i.clone(); // receiver holds all
                    i_prime.insert_batch_by(&false_positives, short_id_8);
                    let ok = i
                        .subtract(&i_prime)
                        .and_then(|mut d| d.peel())
                        .map(|r| r.complete)
                        .unwrap_or(false);
                    acc[which].push(!ok);
                }
            },
        );
        table.row(&[
            n.to_string(),
            m.to_string(),
            a.to_string(),
            astar.to_string(),
            format!("{:.4}", fail[0].rate()),
            format!("{:.4}", fail[1].rate()),
            trials.to_string(),
        ]);
    }
    table
}

/// Ablation 2: Eq. 3 closed form only vs the exact discrete scan.
fn closed_form_ablation() -> Table {
    let beta = 239.0 / 240.0;
    let mut table = Table::new(
        "Ablation 2 — a from Eq. 3 closed form vs exact discrete optimum: T(a) bytes",
        &["n", "m", "a_closed", "T_closed", "a_exact", "T_exact", "penalty_%"],
    );
    let ln2sq = core::f64::consts::LN_2 * core::f64::consts::LN_2;
    for (n, m) in [(50usize, 500usize), (200, 1000), (500, 2000), (2000, 6000), (10_000, 30_000)] {
        let mn = m - n;
        // Closed form with τ = 1.5, r = CELL_BYTES, clamped like Eq. 3 users must.
        let a_closed =
            ((n as f64 / (8.0 * CELL_BYTES as f64 * 1.5 * ln2sq)).round() as usize).clamp(1, mn);
        let t = |a: usize| -> usize {
            let fpr = (a as f64 / mn as f64).min(1.0);
            let bloom = if fpr >= 1.0 { 1 } else { 14 + bloom_size_bytes(n, fpr) };
            let astar = a_star(a as f64, beta).max(1);
            let p = params_for(astar, 240);
            bloom + HEADER_BYTES + p.c * CELL_BYTES
        };
        let t_closed = t(a_closed);
        let exact = optimal_a(n, m, beta, 240);
        table.row(&[
            n.to_string(),
            m.to_string(),
            a_closed.to_string(),
            t_closed.to_string(),
            exact.a.to_string(),
            exact.total.to_string(),
            format!("{:.1}", 100.0 * (t_closed as f64 / exact.total as f64 - 1.0)),
        ]);
    }
    table
}

/// Ablation 3: membership-structure backends at equal target FPR.
fn backend_ablation() -> Table {
    let mut table = Table::new(
        "Ablation 3 — membership backends at n = 2000, fpr = 0.005: size and observed FPR",
        &["backend", "bytes", "observed_fpr", "supports_delete"],
    );
    let n = 2000usize;
    let fpr = 0.005f64;
    let mut rng = StdRng::seed_from_u64(0xabab);
    let members: Vec<Digest> = (0..n).map(|_| Digest(rng.random())).collect();
    let probes: Vec<Digest> = (0..100_000).map(|_| Digest(rng.random())).collect();

    let mut bloom = BloomFilter::new(n, fpr, 1);
    let mut cuckoo = CuckooFilter::new(n, fpr, 2);
    let mut gcs = GcsBuilder::new(n, fpr, 3);
    bloom.insert_batch(&members);
    gcs.insert_batch(&members);
    for id in &members {
        assert!(cuckoo.insert(id));
    }
    let gcs = gcs.build();

    let observed = |f: &dyn Membership| -> f64 {
        probes.iter().filter(|id| f.contains(id)).count() as f64 / probes.len() as f64
    };
    for (label, f, del) in [
        ("bloom", &bloom as &dyn Membership, "no"),
        ("cuckoo", &cuckoo as &dyn Membership, "yes"),
        ("gcs", &gcs as &dyn Membership, "no"),
    ] {
        table.row(&[
            label.into(),
            f.serialized_size().to_string(),
            format!("{:.5}", observed(f)),
            del.into(),
        ]);
    }
    table
}

fn main() {
    let opts = RunOpts::from_args(2000);
    let w = TableWriter::new();
    w.emit("ablation_padding", &padding_ablation(&opts));
    w.emit("ablation_closed_form", &closed_form_ablation());
    w.emit("ablation_backends", &backend_ablation());
}
