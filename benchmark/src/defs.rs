//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`graphene-benchmark manifest`) and
//! a unit test keeps the committed file equal to them.

use crate::json::{obj, str, Value};

/// Seconds one run measures for when `--seconds` is not given, and the
/// `run_seconds` the driver passes.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "relay_synced",
        "n=2000 block, m=4000 pool, receiver holds it all: Protocol 1 only, Merkle check dominates",
    ),
    (
        "relay_bigpool",
        "n=200 block against a 60k-tx backlog: the receiver's mempool scan and Bloom probe dominate, Merkle is small",
    ),
    (
        "relay_missing",
        "n=2000 block, receiver lacks 5%: Protocol 2 runs, filters and IBLTs are built the other way round, rounds 2 to 4",
    ),
    (
        "sim_gossip",
        "500-peer scale-free simulated network, clean links, n=30 block: scheduler, dispatch and peer handler dominate",
    ),
    (
        "sim_faulty",
        "150 peers, lossy corrupting links and hostile servers, n=100 block: timers, retries, failover and bans carry the tail",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "deliveries_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "wire_bytes_per_delivery", unit: "B", better: Better::Lower, bound: 0.03 },
    EndToEnd { name: "msgs_per_delivery", unit: "count", better: Better::Lower, bound: 0.03 },
    EndToEnd { name: "setup_rss_mb", unit: "MB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn layer_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Mean per traced op unless the name says otherwise. A layer is a crate.
pub const PER_LAYER: &[PerLayer] = &[
    layer("hashes.merkle_us", "us"),
    layer("blockchain.pool_scan_us", "us"),
    layer("blockchain.insert_ns_per_tx", "ns"),
    layer("bloom.probe_us", "us"),
    layer("bloom.insert_us", "us"),
    layer("bloom.probes_per_op", "count"),
    layer("bloom.hit_share", "ratio"),
    layer("iblt.build_us", "us"),
    layer("iblt.peel_us", "us"),
    layer("iblt.cells", "count"),
    layer("iblt.peeled_items", "count"),
    layer("iblt-params.lookup_us", "us"),
    layer("wire.encode_us", "us"),
    layer("wire.decode_us", "us"),
    layer("wire.frame_bytes", "B"),
    layer("wire.codec_replay_us", "us"),
    layer("core.relay_us", "us"),
    layer("core.optimal_a_us", "us"),
    layer("core.p1_encode_us", "us"),
    layer("core.p1_decode_us", "us"),
    layer("core.p2_us", "us"),
    layer("core.self_us", "us"),
    layer("core.recon_replay_us", "us"),
    layer("core.p2_share", "ratio"),
    layer("core.rungs_per_relay", "count"),
    layer("core.ladder_descent_share", "ratio"),
    layer("netsim.build_us", "us"),
    layer("netsim.propagate_us", "us"),
    layer("netsim.sched_replay_us", "us"),
    layer("netsim.self_us", "us"),
    layer("netsim.frames_per_op", "count"),
    layer("netsim.events_hwm", "count"),
    layer("netsim.stale_timers", "count"),
    layer("netsim.frames_dropped", "count"),
    layer("netsim.bad_decodes", "count"),
    layer("netsim.failovers", "count"),
    layer("netsim.escalations", "count"),
    layer("netsim.bans", "count"),
    layer("netsim.shed_frames", "count"),
    layer("netsim.resource_hwm_b", "B"),
    layer("netsim.arrival_ms_p50", "ms"),
    layer("netsim.arrival_ms_p99", "ms"),
    layer("alloc.count_per_op", "count"),
    layer("alloc.bytes_per_op", "B"),
    layer_up("proc.cpu_util", "ratio"),
    layer("proc.peak_rss_mb", "MB"),
    layer_up("trace.coverage", "ratio"),
    layer("trace.op_ms_p90", "ms"),
    layer("trace.overhead_share", "ratio"),
    layer("trace.harness_self_us", "us"),
    layer_up("trace.ops", "count"),
    layer("check.wire_bytes_per_delivery", "B"),
    layer("check.msgs_per_delivery", "count"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![("name", str(name)), ("unit", str(unit)), ("better", str(better.as_str()))]
    };
    obj([
        ("command", Value::Arr(vec![str("bash"), str("benchmark/run.sh")])),
        ("paths", Value::Arr(vec![str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj([("name", str(*name)), ("why", str(*why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = metric(m.name, m.unit, m.better);
                        fields.push(("bound", Value::Num(m.bound)));
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| obj(metric(m.name, m.unit, m.better))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed =
            crate::json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(committed, manifest(), "regenerate with `graphene-benchmark manifest`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(
            (2..=8).contains(&WORKLOADS.len()) && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128
        );
    }
}
