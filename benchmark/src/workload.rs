//! What the run loop needs from a workload, and the seed derivation every
//! workload shares.

use crate::recon::TraceCounts;
use crate::span::{Aggregate, Tracer};
use graphene_blockchain::Transaction;
use std::collections::BTreeMap;
use std::time::Duration;

/// What one op delivered and what it cost on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Deliveries attempted: receivers that should end with the block.
    pub attempted: u64,
    /// Of those, receivers that did not end with the Merkle-verified block.
    pub failed: u64,
    pub wire_bytes: u64,
    pub msgs: u64,
}

impl Outcome {
    pub fn add(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wire_bytes += other.wire_bytes;
        self.msgs += other.msgs;
    }

    pub fn deliveries(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Per-layer metric values by name, filled in by the run loop and the
/// workload.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Ops run before timing starts (part of set-up).
    fn warmup_ops(&self) -> u64;

    /// Count metrics are taken over the first this-many timed ops, which
    /// every run completes, so they repeat exactly for a seed whatever the
    /// number of ops the run's time allowed.
    fn count_window(&self) -> u64;

    /// One closed-loop op: the product call is timed, its output is
    /// verified after the clock stops.
    fn op(&mut self, index: u64) -> (Duration, Outcome);

    /// The same op under spans, followed by the layer replays. Returns the
    /// duration of the span around the product call.
    fn traced_op(
        &mut self,
        index: u64,
        t: &mut Tracer,
        counts: &mut TraceCounts,
    ) -> (Duration, Outcome);

    /// The transactions of one receiver mempool of this workload, for the
    /// mempool-insert replay.
    fn sample_pool(&self) -> Vec<Transaction>;

    /// Workload-specific gates beyond per-delivery verification (for
    /// example: the injected faults did fire). `Err` names the miss.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Add this workload's own layer metrics, from the span totals of
    /// `traced_ops` traced ops.
    fn layer_metrics(
        &self,
        _agg: &BTreeMap<&'static str, Aggregate>,
        _traced_ops: u64,
        _out: &mut Layers,
    ) {
    }
}

/// SplitMix64 over `(seed, stream)`: nearby seeds and indices give
/// unrelated generator states.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
