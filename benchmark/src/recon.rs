//! One reconciliation, traced from outside: the end-to-end
//! `relay_with_recovery` call in a span, then each layer's public
//! function replayed on the same block and mempool.
//!
//! The relay workloads run this as their traced op; the simulator
//! workloads run it once per propagation on that op's scenario and scale
//! it by the number of deliveries.

use crate::alloc;
use crate::span::Tracer;
use graphene::protocol1::{receiver_decode, sender_encode};
use graphene::protocol2::{finalize_p2, receiver_complete, receiver_request, sender_respond};
use graphene::{optimal_a, relay_with_recovery, GrapheneConfig, LadderReport, RecoveryPolicy};
use graphene_blockchain::{Scenario, TxId};
use graphene_bloom::BloomFilter;
use graphene_hashes::{merkle_root, short_id_8};
use graphene_iblt::Iblt;
use graphene_iblt_params::params_for;
use graphene_wire::{Decode, Encode, Message};
use std::hint::black_box;

/// Kernel spans: the leaves whose sum `trace.coverage` compares with
/// `core.relay`. Children of the `replay.kernels` span.
pub const KERNELS: &[&str] = &[
    "blockchain.pool_scan",
    "bloom.probe",
    "bloom.insert",
    "iblt.build",
    "iblt.peel",
    "iblt-params.lookup",
    "core.optimal_a",
    "hashes.merkle",
];

/// Counts read at the layer boundaries of the traced ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCounts {
    /// Allocations and bytes requested inside the product call.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub probes: u64,
    pub probe_hits: u64,
    pub iblt_cells: u64,
    pub peeled_items: u64,
    pub frame_bytes: u64,
    pub p2: u64,
    pub rungs: u64,
    pub descents: u64,
    pub ops: u64,
}

impl TraceCounts {
    pub fn note_ladder(&mut self, report: &LadderReport) {
        self.ops += 1;
        self.rungs += report.rungs.len() as u64;
        self.descents += u64::from(!report.clean());
        // Protocol 1 alone is the inv/getdata round plus one more.
        self.p2 += u64::from(report.rungs[0].rounds > 2);
    }

    /// Run `f` (the product call) and add what it allocated.
    pub fn counting_allocs<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (count, bytes) = alloc::snapshot();
        let out = f();
        let (count_after, bytes_after) = alloc::snapshot();
        self.allocs += count_after - count;
        self.alloc_bytes += bytes_after - bytes;
        out
    }
}

/// The product's default entry point, exactly as the untraced run calls it.
pub fn relay(s: &Scenario, cfg: &GrapheneConfig, policy: &RecoveryPolicy) -> LadderReport {
    relay_with_recovery(black_box(&s.block), None, black_box(&s.receiver_mempool), cfg, policy)
}

/// A filter of the same geometry as `like`, rebuilt over `ids`.
fn rebuild_filter(like: &BloomFilter, ids: &[TxId]) -> BloomFilter {
    let mut f = BloomFilter::from_parts(
        graphene_bloom::BitVec::new(like.bit_len()),
        like.hash_count(),
        1.0,
        like.salt(),
        like.strategy(),
    );
    f.insert_batch(ids);
    f
}

/// An IBLT of the same geometry as `like`, rebuilt over `shorts`.
fn rebuild_iblt(like: &Iblt, shorts: &[u64]) -> Iblt {
    let mut t = Iblt::new(like.cell_count(), like.hash_count(), like.salt());
    for s in shorts {
        t.insert(*s);
    }
    t
}

/// Replay each layer's public function on `s`. Opens `replay.core` (the
/// protocol functions and the wire codec, in relay order) and
/// `replay.kernels` (the [`KERNELS`] leaves, sized from what the protocol
/// functions produced).
#[allow(clippy::result_large_err)] // `receiver_decode`'s Err carries Protocol 2's state by design
pub fn replay_layers(t: &mut Tracer, s: &Scenario, cfg: &GrapheneConfig, counts: &mut TraceCounts) {
    let m = s.receiver_mempool.len();
    let n = s.block.len();

    let (p1, p2) = t.span("replay.core", |t| {
        let (msg, _) = t.span("core.p1_encode", |_| sender_encode(&s.block, m as u64, None, cfg));
        let framed = Message::GrapheneBlock(msg);
        let frame = t.span("wire.encode", |_| framed.to_vec());
        let decoded = t.span("wire.decode", |_| Message::decode_exact(black_box(&frame)));
        counts.frame_bytes += frame.len() as u64;
        let Ok(Message::GrapheneBlock(msg)) = decoded else {
            panic!("a frame this process encoded does not decode");
        };
        let p1 = t.span("core.p1_decode", |_| receiver_decode(&msg, &s.receiver_mempool, cfg));
        let p2 = match p1 {
            Ok(_) => None,
            Err((_, mut state)) => Some(t.span("core.p2", |_| {
                let (req, _) = receiver_request(&state, s.block.id(), n, m, cfg);
                let rec = sender_respond(&s.block, &req, m, cfg);
                let root = msg.header.merkle_root;
                let done = receiver_complete(&mut state, &rec, root, &msg.order_bytes, cfg);
                // The extra round: fetch what falsely passed R, then finalize.
                if let Some(ok) = done.ok().filter(|ok| !ok.needs_fetch.is_empty()) {
                    let mut resolved = ok.resolved;
                    for id in s.block.txns().iter().map(|tx| tx.id()) {
                        if ok.needs_fetch.contains(&short_id_8(id)) {
                            resolved.insert(short_id_8(id), *id);
                        }
                    }
                    black_box(finalize_p2(&resolved, root, &msg.order_bytes, cfg).is_ok());
                }
                (req, rec)
            })),
        };
        (msg, p2)
    });

    t.span("replay.kernels", |t| {
        let block_ids: Vec<TxId> = s.block.ids();
        let block_shorts: Vec<u64> = block_ids.iter().map(short_id_8).collect();

        let pool_ids: Vec<TxId> = t.span("blockchain.pool_scan", |_| {
            s.receiver_mempool.iter().map(|tx| *tx.id()).collect()
        });
        let hits = t.span("bloom.probe", |_| p1.bloom_s.contains_batch(&pool_ids));
        let candidates: Vec<TxId> =
            pool_ids.iter().enumerate().filter(|(j, _)| hits.get(*j)).map(|(_, id)| *id).collect();
        counts.probes += pool_ids.len() as u64;
        counts.probe_hits += candidates.len() as u64;
        let mut cand_shorts: Vec<u64> = candidates.iter().map(short_id_8).collect();

        // Filter S (sender, over the block) and, when Protocol 2 ran,
        // filter R (receiver, over its candidates).
        t.span("bloom.insert", |_| {
            black_box(rebuild_filter(&p1.bloom_s, &block_ids));
            if let Some((req, _)) = &p2 {
                black_box(rebuild_filter(&req.bloom_r, &candidates));
            }
        });

        // IBLT I and the receiver's I′; with Protocol 2 also J and J′
        // (J′ adds the delivered transactions to the candidates).
        let (i, mut i_prime) = t.span("iblt.build", |_| {
            (rebuild_iblt(&p1.iblt_i, &block_shorts), rebuild_iblt(&p1.iblt_i, &cand_shorts))
        });
        counts.iblt_cells += p1.iblt_i.cell_count() as u64;
        let mut j_pair = p2.as_ref().map(|(_, rec)| {
            cand_shorts.extend(rec.missing.iter().map(|tx| short_id_8(tx.id())));
            counts.iblt_cells += rec.iblt_j.cell_count() as u64;
            t.span("iblt.build", |_| {
                (rebuild_iblt(&rec.iblt_j, &block_shorts), rebuild_iblt(&rec.iblt_j, &cand_shorts))
            })
        });

        // Subtract and peel. The Protocol 2 replay peels J ⊖ J′ alone; the
        // ping-pong passes against I ⊖ I′ stay in `core.p2`'s self time.
        let mut peeled = 0;
        t.span("iblt.peel", |_| {
            for (left, prime) in std::iter::once((&i, &mut i_prime))
                .chain(j_pair.as_mut().map(|(j, j_prime)| (&*j, j_prime)))
            {
                if prime.subtract_from(left).is_ok() {
                    if let Ok(r) = prime.peel() {
                        peeled += r.only_left.len() + r.only_right.len();
                    }
                }
            }
        });
        counts.peeled_items += peeled as u64;

        t.span("core.optimal_a", |_| black_box(optimal_a(n, m, cfg.beta, cfg.iblt_rate_denom)));
        t.span("iblt-params.lookup", |_| {
            black_box(params_for(black_box(p1.iblt_i.cell_count() / 2), cfg.iblt_rate_denom))
        });

        let mut sorted = block_ids;
        sorted.sort();
        let root = t.span("hashes.merkle", |_| merkle_root(&sorted));
        assert_eq!(root, s.block.header().merkle_root, "replayed Merkle root differs");
    });
}
