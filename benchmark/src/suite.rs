//! The whole benchmark in one command (`all`), and the comparison of two
//! of its result files (`compare`).
//!
//! `all` starts one child process per run, so every workload is measured
//! in a fresh address space: an untraced pass (`--runs` seeds per
//! workload) for the end-to-end metrics, then one traced pass for the
//! per-layer metrics.

use crate::defs::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::json::{self, obj, str, Value};
use crate::proc;
use crate::run::OUT_DIR;
use crate::stats::{median, spread};
use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub sensitivity: bool,
}

/// `--sensitivity`: scaling the dominant layer's work of these workloads by
/// this factor must move `op_ms_p50` by a share inside `SENSITIVITY_RANGE`.
const SENSITIVITY_SCALE: f64 = 1.2;
const SENSITIVITY_RANGE: (f64, f64) = (0.10, 0.35);
const SENSITIVITY_WORKLOADS: &[&str] = &["relay_synced", "relay_bigpool", "sim_gossip"];

struct Child {
    timed_ops: f64,
    window_ops: f64,
    result: Value,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }
}

/// Run one workload once in a child process and parse what it printed.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace}) failed with {}:\n{stdout}",
            out.status
        ));
    }
    let result = json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: last line of output is not the result object: {e}"))?;
    let header: Vec<&str> = stdout.lines().next().unwrap_or("").split_whitespace().collect();
    let field = |key: &str| -> Result<f64, String> {
        header
            .chunks(2)
            .find(|kv| kv[0] == key)
            .and_then(|kv| kv.get(1)?.parse().ok())
            .ok_or_else(|| format!("{workload}: no {key} in `{}`", header.join(" ")))
    };
    Ok(Child { timed_ops: field("timed_ops")?, window_ops: field("window_ops")?, result })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", str(proc::cpu_model())),
        ("rustc", str(command_line("rustc", &["--version"]))),
        ("git_rev", str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

pub fn all(args: &AllArgs) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let runs: Vec<Child> = (0..args.runs as u64)
            .map(|r| child(name, args.seed + r, args.seconds, false, 1.0))
            .collect::<Result<_, _>>()?;
        let traced = child(name, args.seed, args.seconds, true, 1.0)?;

        println!("\n{name}: {} run(s) of {} s, seeds {}..", args.runs, args.seconds, args.seed);
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|c| c.metric(m.name)).collect();
            if values.len() != runs.len() {
                return Err(format!("{name}: a run did not report {}", m.name));
            }
            let ops: Vec<String> = runs.iter().map(|c| c.timed_ops.to_string()).collect();
            println!(
                "  {:<32} {:>16.4} {:<6} spread {:>6.2}%  timed ops {}",
                m.name,
                median(&values),
                m.unit,
                spread(&values) * 100.0,
                ops.join(",")
            );
            let fields = [
                ("unit", str(m.unit)),
                ("median", Value::Num(median(&values))),
                ("spread", Value::Num(spread(&values))),
                ("values", Value::Arr(values.into_iter().map(Value::Num).collect())),
            ];
            end_to_end.push((m.name, obj(fields)));
        }
        println!("  -- traced pass, {} traced ops --", traced.metric("trace.ops").unwrap_or(0.0));
        let layers = traced.result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
        for (metric, v) in layers {
            let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {metric:<32} {value:>16.4} {}",
                v.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }

        // The traced pass reran seed `args.seed`: its counts must equal
        // the first untraced run's, digit for digit — provided both runs
        // were long enough to complete the count window.
        if runs[0].window_ops != traced.window_ops {
            println!(
                "  counts not cross-checked: the passes counted over {} and {} ops; lengthen --seconds",
                runs[0].window_ops, traced.window_ops
            );
        } else {
            for (e2e, check) in [
                ("wire_bytes_per_delivery", "check.wire_bytes_per_delivery"),
                ("msgs_per_delivery", "check.msgs_per_delivery"),
            ] {
                let (a, b) = (runs[0].metric(e2e), traced.metric(check));
                if a != b || a.is_none() {
                    println!(
                        "  MISMATCH: {e2e} {a:?} (untraced) vs {b:?} (traced) for the same seed"
                    );
                    ok = false;
                }
            }
        }

        let mut entry = vec![
            ("timed_ops", Value::Arr(runs.iter().map(|c| Value::Num(c.timed_ops)).collect())),
            ("attempted", runs[0].result.get("attempted").cloned().unwrap_or(Value::Null)),
            ("failed", runs[0].result.get("failed").cloned().unwrap_or(Value::Null)),
            ("end_to_end", obj(end_to_end)),
            ("per_layer", Value::Obj(layers.to_vec())),
        ];

        if args.sensitivity && SENSITIVITY_WORKLOADS.contains(name) {
            // Base, scaled, scaled, base, back to back at half length each:
            // a drift in the host's speed over these minutes cancels.
            let mut p50 = [0.0; 4];
            for (slot, scale) in
                [1.0, SENSITIVITY_SCALE, SENSITIVITY_SCALE, 1.0].into_iter().enumerate()
            {
                p50[slot] = child(name, args.seed, args.seconds / 2.0, false, scale)?
                    .metric("op_ms_p50")
                    .ok_or("sensitivity run reported no op_ms_p50")?;
            }
            let (base, scaled) = ((p50[0] + p50[3]) / 2.0, (p50[1] + p50[2]) / 2.0);
            let rise = scaled / base - 1.0;
            let resolved = (SENSITIVITY_RANGE.0..=SENSITIVITY_RANGE.1).contains(&rise);
            println!(
                "  sensitivity: dominant dimension x{SENSITIVITY_SCALE} moves op_ms_p50 {base:.4} -> {scaled:.4} ms ({:+.1}%): {}",
                rise * 100.0,
                if resolved { "resolved" } else { "NOT within 10-35%" }
            );
            ok &= resolved;
            entry.push(("sensitivity_rise", Value::Num(rise)));
        }
        workloads.push((*name, obj(entry)));
    }

    let results = obj([
        ("host", host_facts()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("runs", Value::Num(args.runs as f64)),
        ("workloads", obj(workloads)),
    ]);
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join("results.json");
    fs::write(&path, format!("{results:#}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Better,
    Regression,
    Unresolved,
}

/// Judge B against A by the rule of the choosing-metrics guide: the median
/// may worsen by at most the bound; where either side's run-to-run spread
/// is wider than the bound the pair is unresolved, unless every run of B
/// reads better than every run of A.
fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| match m.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread(a).max(spread(b)) > m.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > m.bound {
        Verdict::Regression
    } else if all_better {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn values_of(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values =
        results.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("values")?;
    values.as_arr()?.iter().map(Value::as_f64).collect()
}

pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut regressions = 0;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) =
                (values_of(&a, workload, m.name), values_of(&b, workload, m.name))
            else {
                println!("{workload:<14} {:<24} missing from one of the files", m.name);
                continue;
            };
            let (worse_by, verdict) = judge(m, &va, &vb);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<14} {:<24} {:>12.4} {:>12.4} {:>+8.2}% {:>6.1}%  {}",
                m.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better in every run",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (run spread exceeds the bound)",
                }
            );
        }
    }
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd { name: "t", unit: "ms", better: Better::Lower, bound: 0.10 };
    const HIGHER: EndToEnd =
        EndToEnd { name: "r", unit: "1/s", better: Better::Higher, bound: 0.10 };

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = [10.0, 10.1, 10.2, 10.1, 10.0];
        assert_eq!(judge(&LOWER, &steady, &[10.5, 10.6, 10.4, 10.5, 10.5]).1, Verdict::Ok);
        assert_eq!(judge(&LOWER, &steady, &[11.5, 11.6, 11.4, 11.5, 11.5]).1, Verdict::Regression);
        assert_eq!(judge(&LOWER, &steady, &[9.0, 9.1, 9.2, 9.1, 9.0]).1, Verdict::Better);
        // Throughput falling is the regression when higher is better.
        let (worse_by, verdict) = judge(&HIGHER, &steady, &[8.0, 8.1, 8.0, 8.1, 8.0]);
        assert!(worse_by > 0.19 && verdict == Verdict::Regression);
        // Noisy runs cannot show a regression or its absence ...
        let noisy = [10.0, 14.0, 8.0, 12.0, 9.0];
        assert_eq!(judge(&LOWER, &steady, &noisy).1, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(&LOWER, &noisy, &[5.0, 7.0, 4.0, 6.0, 5.5]).1, Verdict::Better);
        // A single run each has no spread to exceed the bound.
        assert_eq!(judge(&LOWER, &[10.0], &[10.5]).1, Verdict::Ok);
    }
}
