//! Deterministic fixed-iteration benchmark harness.
//!
//! The per-function regression gate (the end-to-end benchmark is
//! `benchmark/run.sh`): every bench runs a *fixed* number of iterations (so
//! the measured workload is identical run to run), results are written as a
//! small JSON document (`BENCH_*.json`), and a committed baseline can be
//! compared against with a tolerance band.
//!
//! The JSON is handwritten on purpose — the schema is five fields and the
//! workspace has no serde.

use std::fmt::Write as _;
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable identifier, used to match baseline entries.
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per second (1e9 / ns_per_iter).
    pub ops_per_sec: f64,
    /// Speedup over the pre-optimization reference implementation, when one
    /// was timed alongside (reference ns / optimized ns).
    pub speedup_vs_reference: Option<f64>,
}

/// Time `f` for `iters` iterations after `warmup` untimed ones; returns
/// mean ns per iteration. The closure must keep its result observable
/// (return it, or push into a sink) so the optimizer cannot delete the work
/// — use `std::hint::black_box` at the call site.
pub fn time_fn<F: FnMut()>(warmup: u64, iters: u64, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Build a [`BenchResult`] from a measured optimized path and an optional
/// reference timing.
pub fn result(name: &str, iters: u64, ns: f64, reference_ns: Option<f64>) -> BenchResult {
    BenchResult {
        name: name.to_string(),
        iters,
        ns_per_iter: ns,
        ops_per_sec: if ns > 0.0 { 1e9 / ns } else { 0.0 },
        speedup_vs_reference: reference_ns.map(|r| r / ns.max(1e-9)),
    }
}

/// Serialize results to the `BENCH_*.json` document.
pub fn to_json(mode: &str, threads: usize, benches: &[BenchResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(s, "  \"benches\": [");
    for (i, b) in benches.iter().enumerate() {
        let speedup = match b.speedup_vs_reference {
            Some(v) => format!("{v:.2}"),
            None => "null".to_string(),
        };
        let comma = if i + 1 == benches.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{ \"name\": \"{}\", \"iters\": {}, \"ns_per_iter\": {:.1}, \
             \"ops_per_sec\": {:.1}, \"speedup_vs_reference\": {} }}{comma}",
            b.name, b.iters, b.ns_per_iter, b.ops_per_sec, speedup
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Parse `(name, ns_per_iter)` pairs back out of a `BENCH_*.json` document.
///
/// A ~30-line field scanner, not a JSON parser: it only understands the
/// exact document shape [`to_json`] emits, which is all the regression gate
/// needs. Unknown text is skipped; missing fields skip the entry.
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in json.split('{').skip(1) {
        let Some(name) = field_str(chunk, "\"name\":") else { continue };
        let Some(ns) = field_num(chunk, "\"ns_per_iter\":") else { continue };
        out.push((name, ns));
    }
    out
}

fn field_str(chunk: &str, key: &str) -> Option<String> {
    let rest = &chunk[chunk.find(key)? + key.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(chunk: &str, key: &str) -> Option<f64> {
    let rest = chunk[chunk.find(key)? + key.len()..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))?;
    rest[..end].parse().ok()
}

/// Compare current results against a baseline document. Returns the list of
/// regressions: benches whose `ns_per_iter` exceeds `baseline × tolerance`,
/// and baseline rows no bench produced (a renamed or deleted bench would
/// otherwise leave the gate unable to fail for it). Benches absent from the
/// baseline are reported as informational additions, not failures;
/// improvements never fail.
pub fn regressions(current: &[BenchResult], baseline_json: &str, tolerance: f64) -> Vec<String> {
    let baseline = parse_baseline(baseline_json);
    let mut bad: Vec<String> = baseline
        .iter()
        .filter(|(name, _)| !current.iter().any(|b| b.name == *name))
        .map(|(name, _)| format!("{name}: in the baseline but no bench produced it"))
        .collect();
    for b in current {
        match baseline.iter().find(|(n, _)| *n == b.name) {
            Some((_, base_ns)) => {
                if b.ns_per_iter > base_ns * tolerance {
                    bad.push(format!(
                        "{}: {:.0} ns/iter vs baseline {:.0} ns/iter (limit {:.0}, ×{:.1})",
                        b.name,
                        b.ns_per_iter,
                        base_ns,
                        base_ns * tolerance,
                        b.ns_per_iter / base_ns
                    ));
                }
            }
            None => eprintln!("note: bench `{}` has no baseline entry (new bench?)", b.name),
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchResult> {
        vec![result("alpha", 100, 250.0, Some(500.0)), result("beta", 10, 1e6, None)]
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let json = to_json("quick", 1, &sample());
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "alpha");
        assert!((parsed[0].1 - 250.0).abs() < 0.5);
        assert_eq!(parsed[1].0, "beta");
        assert!((parsed[1].1 - 1e6).abs() < 1.0);
    }

    #[test]
    fn speedup_is_reference_over_optimized() {
        let r = result("x", 1, 100.0, Some(400.0));
        assert!((r.speedup_vs_reference.unwrap() - 4.0).abs() < 1e-9);
        assert!((r.ops_per_sec - 1e7).abs() < 1.0);
    }

    #[test]
    fn regression_gate_fires_only_on_slowdowns() {
        let baseline = to_json("full", 1, &sample());
        // Unchanged: pass.
        assert!(regressions(&sample(), &baseline, 1.5).is_empty());
        let with_alpha = |ns: f64| vec![result("alpha", 100, ns, None), sample().remove(1)];
        // 2× slower than baseline with a 1.5× band: fail.
        let bad = regressions(&with_alpha(500.0), &baseline, 1.5);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("alpha:"));
        // 2× faster: pass (improvements are never regressions).
        assert!(regressions(&with_alpha(125.0), &baseline, 1.5).is_empty());
        // Unknown bench: informational only.
        let mut novel = sample();
        novel.push(result("gamma", 1, 1.0, None));
        assert!(regressions(&novel, &baseline, 1.5).is_empty());
    }

    #[test]
    fn baseline_row_without_a_bench_is_a_regression() {
        let baseline = to_json("full", 1, &sample());
        let renamed = vec![result("alpha", 100, 250.0, None), result("beta_v2", 10, 1e6, None)];
        let bad = regressions(&renamed, &baseline, 1.5);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("beta:"), "{bad:?}");
    }

    #[test]
    fn timer_reports_sane_magnitudes() {
        let mut x = 0u64;
        let ns = time_fn(10, 100, || {
            x = std::hint::black_box(x.wrapping_add(1));
        });
        assert!((0.0..1e7).contains(&ns), "{ns}");
        assert_eq!(x, 110);
    }
}
