//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! graphene-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! graphene-benchmark all [--seed N] [--seconds S] [--runs K] [--sensitivity]
//! graphene-benchmark compare A.json B.json
//! graphene-benchmark manifest                                        print BENCHMARK.json
//! ```

mod alloc;
mod defs;
mod json;
mod proc;
mod recon;
mod relay;
mod run;
mod sim;
mod span;
mod stats;
mod suite;
mod workload;

use run::{Report, RunArgs};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// `--key value` pairs; every flag of every mode takes one value except
/// `--sensitivity`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = match key {
                "sensitivity" => "1".to_string(),
                _ => it.next().ok_or_else(|| format!("`{flag}` needs a value"))?.clone(),
            };
            pairs.push((key.to_string(), value));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("bad value `{v}` for --{key}")),
            None => Ok(default),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn print_report(args: &RunArgs, report: &Report) {
    println!(
        "workload {} seed {} seconds {} trace {} scale {} timed_ops {} window_ops {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        report.samples,
        report.window_ops
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    println!("{}", report.to_json());
}

fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    flags.reject_unknown(&["workload", "seed", "seconds", "trace", "scale"])?;
    let args = RunArgs {
        workload: flags.get("workload", String::new())?,
        seed: flags.get("seed", 1)?,
        seconds: flags.get("seconds", defs::RUN_SECONDS as f64)?,
        trace: flags.get::<u8>("trace", 0)? != 0,
        scale: flags.get("scale", 1.0)?,
    };
    if !(args.seconds > 0.0 && args.seconds <= 3600.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    let report = run::run(&args)?;
    print_report(&args, &report);
    // Any miss of the correctness gate fails the command as well as the
    // `correct` field.
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..])?;
            flags.reject_unknown(&["seed", "seconds", "runs", "sensitivity"])?;
            suite::all(&suite::AllArgs {
                seed: flags.get("seed", 1)?,
                seconds: flags.get("seconds", defs::RUN_SECONDS as f64)?,
                runs: flags.get("runs", 1usize)?.max(1),
                sensitivity: flags.get::<u8>("sensitivity", 0)? != 0,
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("manifest") => {
            println!("{:#}", defs::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => single_run(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("graphene-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
