//! Experiment harness: one runnable binary per figure in the paper's
//! evaluation (§5), plus the Theorem 4 comparison and the §6.1 security
//! experiments.
//!
//! Run e.g. `cargo run --release -p graphene-experiments --bin fig14`.
//! Every binary:
//!
//! * prints the same series the paper's figure plots, as an aligned table;
//! * writes a CSV under `results/` for plotting;
//! * accepts `--quick` (fewer Monte Carlo trials), `--trials N`, `--seed N`
//!   and `--threads N` (parallel trial engine; output bytes are identical
//!   for every thread count).
//!
//! Every figure runs the production code: the decode-rate and theorem
//! figures (15, 16, 19, 20), which need thousands of relays a point, draw
//! each one as a [`Trial`] — a CTOR block and a mempool of transactions
//! forged around random IDs — and relay it through `graphene::session` or
//! Protocol 1 and Protocol 2's request; there is no second, ID-level copy
//! of the protocols to drift from the shipped one.
//!
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured for
//! every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod chaos;
pub mod latency;
pub mod mc;
pub mod output;
pub mod propagation;
pub mod rateless;
pub mod stats;
pub mod trial;

pub use mc::{run_trials, Engine};
pub use output::{Table, TableWriter};
pub use stats::{mean, mean_ci95, proportion_ci95, Accum, MaxAcc, MeanAcc, PropAcc, SumAcc};
pub use trial::{Bounds, Trial};

/// Common CLI knobs for experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Monte Carlo trials per point (binaries scale this per block size).
    pub trials: usize,
    /// RNG seed base.
    pub seed: u64,
    /// Worker threads for the trial engine (`--threads`, default: available
    /// parallelism). Results are bit-identical for any value.
    pub threads: usize,
}

impl RunOpts {
    /// Parse `--quick` / `--trials N` / `--seed N` / `--threads N` from
    /// `std::env::args`; on an unknown flag or an unparsable value, print
    /// the error and a usage line and exit non-zero — a mistyped flag must
    /// never silently run the defaults and overwrite a committed CSV.
    ///
    /// `default_trials` is the full-run trial count; `--quick` divides it
    /// by 10 (min 50). `--threads` defaults to the available parallelism
    /// and never affects results, only wall-clock time.
    pub fn from_args(default_trials: usize) -> RunOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        RunOpts::parse(&args, default_trials).unwrap_or_else(|e| usage_exit(&e, ""))
    }

    /// [`from_args`](Self::from_args) over an explicit argument list.
    pub fn parse(args: &[String], default_trials: usize) -> Result<RunOpts, String> {
        let mut opts =
            RunOpts { trials: default_trials, seed: 0xeca1, threads: mc::default_threads() };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--quick" => opts.trials = (default_trials / 10).max(50),
                "--trials" => opts.trials = flag_value(flag, args.next())?,
                "--seed" => opts.seed = flag_value(flag, args.next())?,
                "--threads" => opts.threads = flag_value(flag, args.next())?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    /// The trial engine configured by these options.
    pub fn engine(&self) -> Engine {
        Engine::new(self.threads, self.seed)
    }

    /// Scale trials down for expensive (large `n`) points.
    pub fn trials_for(&self, n: usize) -> usize {
        match n {
            0..=500 => self.trials,
            501..=5000 => (self.trials / 2).max(25),
            _ => (self.trials / 5).max(10),
        }
    }
}

/// The value following `flag` on a command line, parsed.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Report a bad command line and exit non-zero. `extra` names the flags a
/// binary accepts beyond the common ones.
pub fn usage_exit(error: &str, extra: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: [--quick] [--trials N] [--seed N] [--threads N]{extra}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_accepts_the_documented_flags() {
        let o = RunOpts::parse(&args("--quick --seed 7 --threads 3"), 2000).expect("valid");
        assert_eq!((o.trials, o.seed, o.threads), (200, 7, 3));
        // Later flags win, as they always have: CI passes `--quick --trials 8`.
        let o = RunOpts::parse(&args("--quick --trials 8"), 2000).expect("valid");
        assert_eq!(o.trials, 8);
        assert_eq!(RunOpts::parse(&[], 120).expect("valid").trials, 120);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_bad_values() {
        // The ROADMAP 4d bug: `--trails 100` ran the default trial count.
        let e = RunOpts::parse(&args("--trails 100"), 2000).expect_err("typo must fail");
        assert!(e.contains("--trails"), "{e}");
        for bad in ["--trials many", "--trials", "--seed -1", "--threads 1.5", "100"] {
            assert!(RunOpts::parse(&args(bad), 2000).is_err(), "{bad:?} was accepted");
        }
    }
}
