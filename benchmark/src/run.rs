//! One run of one workload: set-up, the timed closed loop, verification
//! and the metrics of the contract.
//!
//! One process, one thread, one client: the next op starts when the
//! previous one has returned and been verified.

use crate::defs::{END_TO_END, PER_LAYER};
use crate::json::{obj, str, Value};
use crate::proc;
use crate::recon::{TraceCounts, KERNELS};
use crate::relay::{self, Relay};
use crate::sim::{self, Sim};
use crate::span::{aggregate, span_us, write_jsonl, Tracer};
use crate::stats::{median, percentile, supported};
use crate::workload::{Layers, Outcome, Workload};
use graphene_blockchain::{Mempool, Transaction};
use std::fs;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up ops draw their inputs from op indices no timed op reaches.
const WARMUP_BASE: u64 = 1 << 40;
/// Set-up is repeated and its median reported, so one slow page-fault
/// storm does not decide `setup_s`.
const SETUP_REPS: usize = 5;
/// In a traced run every this-many-th op runs untraced: the base for
/// `trace.overhead_share`, interleaved so that a drift in the host's speed
/// during the run reaches both sides alike.
const PLAIN_EVERY: u64 = 4;
/// Where a traced run writes its spans, relative to the working directory.
pub const OUT_DIR: &str = "benchmark/out";

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Timed ops behind the reported figures.
    pub samples: usize,
    /// Ops the count metrics were taken over (the count window, or fewer
    /// if the run was too short to complete it).
    pub window_ops: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    /// The contract's result object.
    pub fn to_json(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (name, obj([("value", Value::Num(value)), ("unit", str(unit))]))
                })),
            ),
        ])
    }
}

fn build(args: &RunArgs) -> Result<Box<dyn Workload>, String> {
    if let Some((params, pool)) = relay::spec(&args.workload, args.scale) {
        return Ok(Box::new(Relay::build(&params, pool, args.seed)));
    }
    if let Some(spec) = sim::spec(&args.workload, args.scale) {
        return Ok(Box::new(Sim::new(spec, args.seed)));
    }
    Err(format!("unknown workload `{}`", args.workload))
}

/// Build the inputs and run the warm-up; the time this takes is `setup_s`.
fn set_up(args: &RunArgs) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let mut w = build(args)?;
    for i in 0..w.warmup_ops() {
        let (_, outcome) = w.op(WARMUP_BASE + i);
        if outcome.failed > 0 {
            return Err(format!("warm-up op {i} failed to deliver"));
        }
    }
    Ok((w, start.elapsed().as_secs_f64()))
}

fn sorted_ms(durations: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(built.take()); // one set of inputs alive at a time: peak RSS is one set-up's
        let (w, took) = set_up(args)?;
        setups.push(took);
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up ran");
    let setup_rss_mb = proc::peak_rss_mb();
    let window = w.count_window();

    // Sums over every timed op, and over the count window only.
    let (mut all, mut counted) = (Outcome::default(), Outcome::default());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut counts = TraceCounts::default();

    let cpu_before = proc::cpu_seconds();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut index = 0u64;
    while start.elapsed() < budget {
        let outcome = if args.trace && index % PLAIN_EVERY != 0 {
            tracer.begin_op(index as u32);
            let (took, outcome) = w.traced_op(index, &mut tracer, &mut counts);
            traced.push(took);
            outcome
        } else {
            let (took, outcome) = w.op(index);
            plain.push(took);
            outcome
        };
        all.add(&outcome);
        if index < window {
            counted.add(&outcome);
        }
        index += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_util = (proc::cpu_seconds() - cpu_before) / wall;

    let mut notes = Vec::new();
    let gate = w.check();
    if let Err(why) = &gate {
        notes.push(why.clone());
    }
    let correct = all.failed == 0 && all.attempted > 0 && gate.is_ok();
    let deliveries = counted.deliveries().max(1) as f64;
    let wire_bytes_per_delivery = counted.wire_bytes as f64 / deliveries;
    let msgs_per_delivery = counted.msgs as f64 / deliveries;
    let plain_ms = sorted_ms(&plain);
    let mut report = Report {
        correct,
        attempted: all.attempted,
        failed: all.failed,
        samples: if args.trace { traced.len() } else { plain.len() },
        window_ops: index.min(window),
        metrics: Vec::new(),
        notes,
    };

    if !args.trace {
        let value = |name: &str| match name {
            "op_ms_p50" => percentile(&plain_ms, 50.0),
            "deliveries_per_s" => all.deliveries() as f64 / wall,
            "wire_bytes_per_delivery" => wire_bytes_per_delivery,
            "msgs_per_delivery" => msgs_per_delivery,
            "setup_rss_mb" => setup_rss_mb,
            "setup_s" => median(&setups),
            other => unreachable!("end-to-end metric `{other}` has no measurement"),
        };
        report.metrics = END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect();
        return Ok(report);
    }

    if traced.is_empty() || plain.is_empty() {
        return Err(format!("{} s is too short for a traced run", args.seconds));
    }
    let ops = traced.len() as u64;
    let agg = aggregate(tracer.spans());
    let us = |name: &str| span_us(&agg, name, ops);
    let per_op = |sum: u64| sum as f64 / ops as f64;
    let kernels: f64 = KERNELS.iter().map(|k| us(k)).sum();
    let relay_us = us("core.relay");

    let mut layers: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut set = |name: &'static str, value: f64| {
        let slot =
            layers.get_mut(name).unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    };
    // Spans whose metric is `<span>_us`.
    let timed_spans =
        ["wire.encode", "wire.decode", "core.relay", "core.p1_encode", "core.p1_decode", "core.p2"];
    for span in KERNELS.iter().chain(&timed_spans) {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_us") == Some(span))
            .unwrap_or_else(|| panic!("span `{span}` has no metric"));
        set(metric.name, us(span));
    }
    set("core.self_us", relay_us - kernels);
    set("core.p2_share", per_op(counts.p2));
    set("core.rungs_per_relay", per_op(counts.rungs));
    set("core.ladder_descent_share", per_op(counts.descents));
    set("bloom.probes_per_op", per_op(counts.probes));
    set("bloom.hit_share", counts.probe_hits as f64 / counts.probes.max(1) as f64);
    set("iblt.cells", per_op(counts.iblt_cells));
    set("iblt.peeled_items", per_op(counts.peeled_items));
    set("wire.frame_bytes", per_op(counts.frame_bytes));
    set("alloc.count_per_op", per_op(counts.allocs));
    set("alloc.bytes_per_op", per_op(counts.alloc_bytes));
    set("proc.cpu_util", cpu_util);
    set("proc.peak_rss_mb", proc::peak_rss_mb());
    set("trace.coverage", kernels / relay_us);
    let traced_ms = sorted_ms(&traced);
    if !supported(traced_ms.len(), 90.0) {
        report.notes.push(format!(
            "{} traced ops: p90 has fewer than ten samples beyond it",
            traced_ms.len()
        ));
    }
    set("trace.op_ms_p90", percentile(&traced_ms, 90.0));
    set("trace.overhead_share", percentile(&traced_ms, 50.0) / percentile(&plain_ms, 50.0) - 1.0);
    set(
        "trace.harness_self_us",
        agg.get("op").map_or(0.0, |a| a.self_ns as f64 / 1e3 / ops as f64),
    );
    set("trace.ops", ops as f64);
    set("check.wire_bytes_per_delivery", wire_bytes_per_delivery);
    set("check.msgs_per_delivery", msgs_per_delivery);
    set("blockchain.insert_ns_per_tx", insert_ns_per_tx(&w.sample_pool()));
    w.layer_metrics(&agg, ops, &mut layers);

    report.metrics = PER_LAYER.iter().map(|m| (m.name, layers[m.name], m.unit)).collect();
    match write_trace(&args.workload, &tracer) {
        Ok(path) => report.notes.push(format!("{} spans written to {path}", tracer.spans().len())),
        Err(e) => return Err(format!("writing the trace: {e}")),
    }
    Ok(report)
}

fn write_trace(workload: &str, tracer: &Tracer) -> io::Result<String> {
    fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    write_jsonl(&mut out, tracer.spans())?;
    out.flush()?;
    Ok(path.display().to_string())
}

/// Time building a `Mempool` from `txns` by `insert`: the median of at
/// least three builds, and of as many as make 20 000 inserts. Cloning the
/// batch stays outside the clock.
fn insert_ns_per_tx(txns: &[Transaction]) -> f64 {
    let len = txns.len().max(1);
    let builds: Vec<f64> = (0..20_000usize.div_ceil(len).max(3))
        .map(|_| {
            let batch = txns.to_vec();
            let start = Instant::now();
            let pool: Mempool = batch.into_iter().collect();
            let took = start.elapsed();
            black_box(pool.len());
            took.as_secs_f64() * 1e9 / len as f64
        })
        .collect();
    median(&builds)
}
