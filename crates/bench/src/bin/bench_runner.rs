//! Deterministic benchmark runner for the regression gate.
//!
//! This binary runs every benchmark for a *fixed* iteration count so the
//! workload is identical from run to run, then emits a small JSON document
//! (`BENCH_*.json`). CI runs it in `--quick` mode on one thread and diffs
//! against the committed baseline with a tolerance band; see
//! `EXPERIMENTS.md` ("Benchmark regression gate") for the policy.
//!
//! ```text
//! bench_runner [--quick] [--out PATH] [--compare BASELINE] [--tolerance X]
//! ```
//!
//! Exit status is nonzero iff `--compare` was given and at least one bench
//! regressed beyond the tolerance band or a baseline row has no bench.

use graphene::candidates::Candidates;
use graphene::config::GrapheneConfig;
use graphene::params::optimal_a;
use graphene_bench::bench_scenario;
use graphene_bench::reference::{
    ref_candidates, ref_confirm_shared, ref_iblt_apply, ref_merkle_root, ref_subtract_peel,
    RefBloom, RefGcs, ReferenceQueue,
};
use graphene_bench::runner::{cpu_model, regressions, result, time_fn, to_json, BenchResult};
use graphene_blockchain::{Mempool, Transaction};
use graphene_bloom::{BitVec, BloomFilter, GcsBuilder};
use graphene_hashes::{merkle_root, sha256, siphash24, siphash24_batch, Digest, SipKey};
use graphene_iblt::{Cell, CellStream, DecodeProgress, Iblt, PeelScratch, RatelessDecoder};
use graphene_iblt_params::hypergraph::Scratch;
use graphene_iblt_params::{params_for, search_c_with, FailureRate, SearchConfig};
use graphene_netsim::{Network, PeerId, RelayProtocol, SimTime};
use std::hint::black_box;

fn ids(n: usize, tag: u64) -> Vec<Digest> {
    (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
}

/// Per-mode iteration counts: (warmup, timed).
struct Iters {
    quick: bool,
}

impl Iters {
    fn of(&self, full: u64) -> (u64, u64) {
        let timed = if self.quick { (full / 10).max(1) } else { full };
        ((timed / 10).max(1), timed)
    }
}

fn bench_bloom_insert(it: &Iters) -> BenchResult {
    let set = ids(2000, 1);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut f = BloomFilter::new(set.len(), 0.02, 9);
        f.insert_batch(&set);
        black_box(f.inserted());
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut f = RefBloom::new(set.len(), 0.02, 9);
        for id in &set {
            f.insert(id);
        }
        black_box(f.hash_count());
    });
    result("bloom_insert_double_n2000", iters, ns, Some(ref_ns))
}

fn bench_bloom_contains(it: &Iters) -> BenchResult {
    // The membership sweep every receiver filter pass runs, with the
    // receiver's probe mix: half the pool is in the block, so half the
    // probes pay the full k-probe member path and half exit on a clear bit.
    let set = ids(2000, 2);
    let probes = [&set[..], &ids(2000, 3)].concat();
    let mut f = BloomFilter::new(set.len(), 0.02, 9);
    let mut r = RefBloom::new(set.len(), 0.02, 9);
    f.insert_batch(&set);
    for id in &set {
        r.insert(id);
    }
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        black_box(f.contains_batch(&probes).count_ones());
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut hits = 0usize;
        for id in &probes {
            hits += r.contains(id) as usize;
        }
        black_box(hits);
    });
    result("bloom_contains_double_n4000probes", iters, ns, Some(ref_ns))
}

fn bench_bloom_probe_pool(it: &Iters) -> BenchResult {
    // The receiver's mempool pass on the repo benchmark's `relay_bigpool`:
    // `S` for a 200-transaction block (4 580 bits, k = 16) read over a
    // 60 200-transaction pool where it lies. Three probes in a thousand are
    // members; half of the rest end on their first bit.
    let pool: Mempool =
        (0..60_200u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect();
    let mut f = BloomFilter::new(200, 1.67e-5, 9);
    let mut r = RefBloom::new(200, 1.67e-5, 9);
    assert_eq!((f.bit_len(), f.hash_count()), (4580, 16));
    for tx in &pool.txns()[..200] {
        f.insert(tx.id());
        r.insert(tx.id());
    }
    let (warmup, iters) = it.of(50);
    let ns = time_fn(warmup, iters, || {
        black_box(f.contains_batch_by(pool.txns(), Transaction::id).count_ones());
    });
    let ref_ns = time_fn(warmup, iters, || {
        black_box(pool.iter().filter(|tx| r.contains(tx.id())).count());
    });
    result("bloom_probe_pool_m60200_n200", iters, ns, Some(ref_ns))
}

fn bench_siphash_x4(it: &Iters) -> BenchResult {
    // The interleaved SipHash kernel: 4096 single-word messages hashed
    // a lane each versus the scalar dependency chain.
    let vals: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    let key = SipKey::new(3, 0x5350_4c49_5431);
    let (warmup, iters) = it.of(2000);
    let ns = time_fn(warmup, iters, || {
        let mut acc = 0u64;
        siphash24_batch([key], &vals, |&v| [v], |_, [h]| acc ^= h);
        black_box(acc);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut acc = 0u64;
        for v in &vals {
            acc ^= siphash24(key, &v.to_le_bytes());
        }
        black_box(acc);
    });
    result("siphash_x4_4096vals", iters, ns, Some(ref_ns))
}

fn bench_merkle_root(it: &Iters) -> BenchResult {
    // The check that ends every delivery, at the relay workloads' block
    // size: each level in `SHA_LANES` chunks through the pair kernel,
    // reduced in one buffer, against the pairwise fold through the
    // streaming hasher. On an AVX-512 host production hashes full chunks
    // in `zmm` lanes; the rest, and everything on a host with only the
    // SHA extensions, compresses on those like the fold (production
    // staged per chunk, the fold pair by pair); elsewhere production runs
    // the 16-lane pass.
    let txids = ids(2000, 23);
    let (warmup, iters) = it.of(500);
    let ns = time_fn(warmup, iters, || {
        black_box(merkle_root(black_box(&txids)));
    });
    let ref_ns = time_fn(warmup, iters, || {
        black_box(ref_merkle_root(black_box(&txids)));
    });
    result("merkle_root_n2000", iters, ns, Some(ref_ns))
}

fn bench_iblt_peel(it: &Iters) -> BenchResult {
    // The receiver decode hot path: a 50-item difference between two
    // 2000-item tables sized by the paper's parameter search.
    let p = params_for(50, 240);
    let mut sender = Iblt::new(p.c, p.k, 3);
    let mut local = Iblt::new(p.c, p.k, 3);
    for v in 0..2000u64 {
        sender.insert(v);
        if v >= 50 {
            local.insert(v);
        }
    }
    let (warmup, iters) = it.of(500);
    let mut diff = Iblt::new(p.c, p.k, 3);
    let mut scratch = PeelScratch::new();
    let ns = time_fn(warmup, iters, || {
        sender.subtract_into(&local, &mut diff).unwrap();
        black_box(diff.peel_in_place(&mut scratch).unwrap().len());
    });
    // Reference: allocate the difference (`subtract`), copy it again for the
    // peel, per-value index Vecs + HashSet.
    let ref_ns = time_fn(warmup, iters, || {
        black_box(ref_subtract_peel(&sender, &local).unwrap().len());
    });
    result("iblt_subtract_peel_j50", iters, ns, Some(ref_ns))
}

fn bench_iblt_insert_batch(it: &Iters) -> BenchResult {
    // `I` (and the receiver's `I′`) on the repo benchmark's `relay_synced`:
    // 2 000 short IDs into the table `optimal_a` sizes there (a* = 34 at
    // 1/240: 65 cells, k = 5), a key per pass over the values, against the
    // oracle's k + 1 scalar hashes per value.
    let values: Vec<u64> =
        (0..2000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1).collect();
    let p = params_for(34, 240);
    assert_eq!(p.k, 5);
    let (warmup, iters) = it.of(500);
    let ns = time_fn(warmup, iters, || {
        let mut t = Iblt::new(p.c, p.k, 3);
        t.insert_batch(black_box(&values));
        black_box(t.cells()[0].count);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut cells = vec![Cell::default(); p.c];
        for &v in black_box(&values) {
            ref_iblt_apply(&mut cells, p.k, 3, v, 1, p.k);
        }
        black_box(cells[0].count);
    });
    result("iblt_insert_batch_n2000_k5", iters, ns, Some(ref_ns))
}

fn bench_candidates_build(it: &Iters) -> BenchResult {
    // The candidate set of a `relay_synced` decode: 2 016 of a 4 000-id
    // pool passed `S`. One prefix sort with collisions found as neighbours,
    // against the hash map by short ID, collected and sorted, it replaced.
    let pool = ids(4000, 31);
    let mut hits = BitVec::new(pool.len());
    (0..pool.len()).filter(|j| j % 2 == 0 || j % 250 == 1).for_each(|j| hits.set(j));
    assert_eq!(hits.count_ones(), 2016);
    let (warmup, iters) = it.of(500);
    let ns = time_fn(warmup, iters, || {
        black_box(Candidates::from_survivors(black_box(&pool), &hits, |id| id).0.len());
    });
    let ref_ns = time_fn(warmup, iters, || {
        let survivors = black_box(&pool).iter().enumerate().filter(|(j, _)| hits.get(*j));
        black_box(ref_candidates(survivors.map(|(_, id)| *id)).0.len());
    });
    result("candidates_build_m4000_z2016", iters, ns, Some(ref_ns))
}

fn bench_mempool_confirm_shared(it: &Iters) -> BenchResult {
    // What every simulated peer does when a block lands, on the repo
    // benchmark's `sim_faulty` shape: confirm a 100-transaction block out of
    // the 200-transaction pool it still shares with every other peer.
    let s = bench_scenario(100, 41);
    let (base, block_ids) = (s.receiver_mempool, s.block.ids());
    assert_eq!((base.len(), block_ids.len()), (200, 100));
    let (warmup, iters) = it.of(2000);
    let ns = time_fn(warmup, iters, || {
        let mut pool = black_box(&base).clone();
        pool.confirm(&block_ids);
        black_box(pool.len());
    });
    let ref_ns = time_fn(warmup, iters, || {
        black_box(ref_confirm_shared(black_box(&base), &block_ids).len());
    });
    result("mempool_confirm_shared_m200_n100", iters, ns, Some(ref_ns))
}

fn bench_optimal_a(it: &Iters) -> BenchResult {
    // The sender's size optimisation on `relay_synced`: ~116 evaluations of
    // T(a), each one `params_for` lookup.
    let (warmup, iters) = it.of(2000);
    let ns = time_fn(warmup, iters, || {
        black_box(optimal_a(black_box(2000), black_box(4000), 239.0 / 240.0, 240).total);
    });
    result("optimal_a_n2000_m4000", iters, ns, None)
}

/// Strata-estimator assignment, mirroring `graphene-baselines`' Difference
/// Digest: stratum = trailing zeros of an independent hash.
fn stratum_of(salt: u64, value: u64, levels: usize) -> usize {
    let h = siphash24(SipKey::new(salt, 0x5354_5241), &value.to_le_bytes());
    (h.trailing_zeros() as usize).min(levels - 1)
}

fn build_strata(values: impl Iterator<Item = u64>, levels: usize, salt: u64) -> Vec<Iblt> {
    let mut strata: Vec<Iblt> =
        (0..levels).map(|i| Iblt::new(80, 4, salt ^ ((i as u64) << 8))).collect();
    for v in values {
        let s = stratum_of(salt, v, levels);
        strata[s].insert(v);
    }
    strata
}

fn bench_strata_estimate(it: &Iters) -> BenchResult {
    // The Difference Digest estimator decode loop: 12 strata of 80 cells,
    // one subtract + peel each. The old code allocated a fresh difference
    // table and peel scratch per stratum (`subtract` + allocating peel);
    // the new one reuses a single table and `PeelScratch` across all levels.
    let levels = 12usize;
    let salt = 77u64;
    let mine = build_strata((0..2000u64).map(|v| v.wrapping_mul(0x9e37_79b9)), levels, salt);
    let theirs = build_strata((100..2100u64).map(|v| v.wrapping_mul(0x9e37_79b9)), levels, salt);
    let (warmup, iters) = it.of(500);
    let mut diff = Iblt::new(80, 4, salt);
    let mut scratch = PeelScratch::new();
    let ns = time_fn(warmup, iters, || {
        let mut count = 0usize;
        for i in (0..levels).rev() {
            mine[i].subtract_into(&theirs[i], &mut diff).unwrap();
            match diff.peel_in_place(&mut scratch) {
                Ok(r) if r.complete => count += r.len(),
                _ => {
                    count = count.max(1) << (i + 1);
                    break;
                }
            }
        }
        black_box(count);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut count = 0usize;
        for i in (0..levels).rev() {
            match ref_subtract_peel(&mine[i], &theirs[i]) {
                Ok(r) if r.complete => count += r.len(),
                _ => {
                    count = count.max(1) << (i + 1);
                    break;
                }
            }
        }
        black_box(count);
    });
    result("iblt_strata_estimate_12x80", iters, ns, Some(ref_ns))
}

fn bench_gcs_contains(it: &Iters) -> BenchResult {
    let set = ids(1000, 4);
    let probes = ids(200, 5);
    let mut b = GcsBuilder::new(set.len(), 0.01, 6);
    b.insert_batch(&set);
    let g = b.build();
    let r = RefGcs::build(&set, set.len(), 0.01, 6);
    let (warmup, iters) = it.of(500);
    let ns = time_fn(warmup, iters, || {
        black_box(g.contains_batch(&probes).count_ones());
    });
    // The reference decodes the whole stream per query — run far fewer
    // iterations, ns/iter is what matters.
    let (ref_warmup, ref_iters) = it.of(20);
    let ref_ns = time_fn(ref_warmup, ref_iters, || {
        let mut hits = 0usize;
        for id in &probes {
            hits += r.contains(id) as usize;
        }
        black_box(hits);
    });
    result("gcs_contains_200probes_n1000", iters, ns, Some(ref_ns))
}

fn bench_param_search(it: &Iters) -> BenchResult {
    let cfg = SearchConfig { max_trials: 2000, ..SearchConfig::default() };
    let (warmup, iters) = it.of(10);
    let mut scratch = Scratch::default();
    let ns = time_fn(warmup, iters, || {
        black_box(search_c_with(50, 4, FailureRate(1.0 / 24.0), &cfg, &mut scratch));
    });
    result("param_search_j50_rate24", iters, ns, None)
}

fn bench_rateless_encode(it: &Iters) -> BenchResult {
    // The stateless server path: rebuild the coded-cell stream over a
    // 2000-item set and emit one 512-cell window. Every `GetMoreCells`
    // pays this (plus a skip), so the heap-driven generator is hot.
    let items: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1).collect();
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut s = CellStream::new(7, items.iter().copied());
        black_box(s.cells(512).len());
    });
    result("rateless_encode_512cells_n2000", iters, ns, None)
}

fn bench_rateless_decode(it: &Iters) -> BenchResult {
    // Receiver-side incremental peel of a 50-item difference against 2000
    // candidates — the same difference shape as `iblt_peel_d50`, decoded
    // from a pre-generated cell prefix so only the decoder is timed.
    let salt = 9u64;
    let remote: Vec<u64> =
        (0..2000u64).map(|i| i.wrapping_mul(0xa076_1d64_78bd_642f) | 1).collect();
    let local: Vec<u64> = remote[50..].to_vec();
    // Dry-run to find the exact decodable prefix length.
    let mut probe = RatelessDecoder::new(salt, local.iter().copied());
    let mut stream = CellStream::new(salt, remote.iter().copied());
    let mut need = 150usize; // ~3×d first window
    loop {
        let start = stream.emitted();
        let cells = stream.cells(need);
        match probe.push_cells(start, &cells).expect("honest stream") {
            DecodeProgress::Decoded(_) => break,
            DecodeProgress::NeedMore(n) => need = n,
        }
    }
    let total = stream.emitted() as usize;
    let cells = CellStream::new(salt, remote.iter().copied()).cells(total);
    let (warmup, iters) = it.of(200);
    let ns = time_fn(warmup, iters, || {
        let mut d = RatelessDecoder::new(salt, local.iter().copied());
        let r = d.push_cells(0, &cells).expect("honest stream");
        black_box(matches!(r, DecodeProgress::Decoded(_)));
    });
    result("rateless_decode_d50_n2000", iters, ns, None)
}

fn bench_netsim_adaptive(it: &Iters) -> BenchResult {
    // The adaptive failure detector under fire: an 8-peer topology where
    // one relay tarpits every response for 1.4 s. Each iteration pays the
    // full detector stack — RTT tracking, RTO timers, hedged fetches and
    // circuit-breaker bookkeeping — on top of the relay itself.
    use graphene_netsim::{AdversaryConfig, Behavior};
    let s = bench_scenario(150, 13);
    let (warmup, iters) = it.of(20);
    let ns = time_fn(warmup, iters, || {
        let mut net = Network::new(8, RelayProtocol::Graphene(GrapheneConfig::default()), 99);
        net.connect_random(3);
        for i in 0..8 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        net.peer_mut(PeerId(1)).behavior = Behavior::Adversarial(AdversaryConfig {
            tarpit: 1.0,
            tarpit_hold: SimTime::from_millis(1_400),
            seed: 7,
            ..Default::default()
        });
        net.enable_adaptive();
        let r = net.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(120_000));
        assert_eq!(r.peers_reached, 8, "relay incomplete: {r:?}");
        black_box(r.total_bytes);
    });
    result("netsim_adaptive_tarpit_8peers_n150", iters, ns, None)
}

fn bench_event_queue(it: &Iters) -> BenchResult {
    // The timing wheel against the retained heap reference at 100k
    // pending events. The schedule mixes every routing tier — sub-slot,
    // near wheel, overflow wheel, far list — like a propagation run does;
    // each iteration pushes all 100k then drains to empty.
    use graphene_netsim::event::{Event, EventQueue};
    const N: u64 = 100_000;
    let mix = |i: u64| -> u64 {
        // splitmix-style spread over ~130 s of simulated time (µs).
        let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x % 130_000_000
    };
    let (warmup, iters) = it.of(20);
    let ns = time_fn(warmup, iters, || {
        let mut q = EventQueue::new();
        for i in 0..N {
            q.schedule(SimTime(mix(i)), Event::Drain { peer: PeerId((i % 1000) as usize) });
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            last = at;
        }
        black_box(last);
    });
    let ref_ns = time_fn(warmup, iters, || {
        let mut q = ReferenceQueue::new();
        for i in 0..N {
            q.schedule(SimTime(mix(i)), Event::Drain { peer: PeerId((i % 1000) as usize) });
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            last = at;
        }
        black_box(last);
    });
    result("event_queue_push_pop_100k", iters, ns, Some(ref_ns))
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--compare" => compare = Some(args.next().expect("--compare needs a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .expect("--tolerance needs a number")
                    .parse()
                    .expect("tolerance must be a float")
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench_runner [--quick] [--out PATH] [--compare BASELINE] \
                     [--tolerance X]"
                );
                std::process::exit(2);
            }
        }
    }

    let it = Iters { quick };
    let benches = [
        bench_bloom_insert(&it),
        bench_bloom_contains(&it),
        bench_bloom_probe_pool(&it),
        bench_siphash_x4(&it),
        bench_merkle_root(&it),
        bench_iblt_insert_batch(&it),
        bench_iblt_peel(&it),
        bench_candidates_build(&it),
        bench_mempool_confirm_shared(&it),
        bench_optimal_a(&it),
        bench_strata_estimate(&it),
        bench_gcs_contains(&it),
        bench_param_search(&it),
        bench_rateless_encode(&it),
        bench_rateless_decode(&it),
        bench_netsim_adaptive(&it),
        bench_event_queue(&it),
    ];
    for b in &benches {
        let speedup = match b.speedup_vs_reference {
            Some(v) => format!("  ({v:.2}x vs reference)"),
            None => String::new(),
        };
        eprintln!(
            "{:32} {:>12.1} ns/iter {:>14.1} ops/s{}",
            b.name, b.ns_per_iter, b.ops_per_sec, speedup
        );
    }

    let json = to_json(if quick { "quick" } else { "full" }, 1, &cpu_model(), &benches);
    print!("{json}");
    if let Some(path) = &out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if let Some(path) = &compare {
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let bad = regressions(&benches, &baseline, tolerance);
        if !bad.is_empty() {
            eprintln!("PERFORMANCE REGRESSIONS (tolerance ×{tolerance}):");
            for line in &bad {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        eprintln!("no regressions vs {path} (tolerance ×{tolerance})");
    }
}
