//! Encode-once fan-out sweep: one sender relays one block to up to 1200
//! receivers, with and without the relay [`EncodeCache`](graphene::EncodeCache), reporting the
//! sender's CPU proxy (encodings actually performed), relay bytes, cache
//! hit rate and occupancy — and *asserting* that every cache-served
//! frame is byte-identical to a fresh canonical encode.
//!
//! Flags: `--quick` (2 trials), `--trials N`, `--seed N`, `--threads N`
//! (output is bit-identical for every thread count; CI diffs the CSV),
//! and `--receivers N` to cap the largest sweep point (CI smoke runs at
//! reduced scale).

use graphene_experiments::fanout::{run_sweep, CACHE_BYTES};
use graphene_experiments::mc::default_threads;
use graphene_experiments::{flag_value, usage_exit, Engine, Table, TableWriter};

/// Fan-out CLI: `RunOpts` minus its 50-trial `--quick` floor (a 1200-
/// receiver trial is expensive; a handful of trials is plenty), plus
/// `--receivers`.
struct Opts {
    trials: usize,
    seed: u64,
    threads: usize,
    receivers: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { trials: 5, seed: 0xeca1, threads: default_threads(), receivers: 1200 };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.trials = 2,
            "--trials" => opts.trials = flag_value(flag, args.next())?,
            "--seed" => opts.seed = flag_value(flag, args.next())?,
            "--threads" => opts.threads = flag_value(flag, args.next())?,
            "--receivers" => opts.receivers = flag_value(flag, args.next())?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| usage_exit(&e, " [--receivers N]"));
    let engine = Engine::new(opts.threads, opts.seed);
    let mut table = Table::new(
        "Encode-once fan-out — one block to N receivers, canonical bucketed \
         encodings served from the relay cache vs performed per receiver",
        &[
            "receivers",
            "enc_nocache",
            "enc_cache",
            "reduction_x",
            "hit_rate_%",
            "evictions",
            "MB_nocache",
            "MB_cache",
            "kB_saved",
            "mismatches",
            "delivered_%",
            "cache_kB",
        ],
    );
    for p in run_sweep(&engine, opts.trials, opts.receivers) {
        assert_eq!(p.frame_mismatches, 0.0, "cache-served frame diverged from fresh encode: {p:?}");
        assert!(
            p.max_cache_bytes <= CACHE_BYTES as f64,
            "cache occupancy {} over the {CACHE_BYTES}-byte budget",
            p.max_cache_bytes
        );
        assert!((p.delivery_cached - 1.0).abs() < 1e-12, "cached arm dropped a receiver: {p:?}");
        assert!(
            (p.delivery_uncached - 1.0).abs() < 1e-12,
            "uncached arm dropped a receiver: {p:?}"
        );
        if p.receivers >= 1000 {
            assert!(
                p.reduction >= 10.0,
                "acceptance: {} receivers needs ≥10x fewer encodings, got {:.1}x",
                p.receivers,
                p.reduction
            );
        }
        table.row(&[
            format!("{}", p.receivers),
            format!("{:.0}", p.encodings_uncached),
            format!("{:.1}", p.encodings_cached),
            format!("{:.1}", p.reduction),
            format!("{:.2}", p.hit_rate * 100.0),
            format!("{:.1}", p.evictions),
            format!("{:.3}", p.bytes_uncached / 1e6),
            format!("{:.3}", p.bytes_cached / 1e6),
            format!("{:.1}", p.frame_bytes_saved / 1000.0),
            format!("{:.0}", p.frame_mismatches),
            format!("{:.1}", p.delivery_cached * 100.0),
            format!("{:.2}", p.max_cache_bytes / 1000.0),
        ]);
    }
    TableWriter::new().emit("fanout_sweep", &table);
    println!(
        "Every cache-served frame matched a fresh canonical encode byte-for-byte\n\
         (asserted), both arms delivered to 100% of receivers (asserted), and the\n\
         cache stayed under its {CACHE_BYTES}-byte budget (asserted). The hit rate\n\
         climbs with fan-out: receivers fall into a handful of mempool-size\n\
         buckets, so the sender encodes each block a constant number of times\n\
         no matter how many peers it serves."
    );
}
