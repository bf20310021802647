//! One ladder, two drivers.
//!
//! The recovery ladder lives once, in `graphene::engine`; the synchronous
//! relay (`graphene::session::exchange`) and the simulator's `Peer` only
//! drive it. The differential test holds the two drivers to that: on a
//! lossless link they must exchange the same messages — same types, same
//! wire sizes, same order — and deliver on the same rung, for every rung.
//! The baselines and the mempool sync are drivers too: a golden table holds
//! them to the reports of the hand-written exchanges they replaced, and the
//! simulator to the same bytes. The property test then feeds the bare
//! engine arbitrary input and checks it never panics, always terminates,
//! and never calls an honest responder hostile.

use graphene::engine::{
    build_cmpctblock, respond, respond_plain, Ladder, RecoveryPolicy, RungKind, RxEngine, Step,
};
use graphene::error::P1Failure;
use graphene::mempool_sync::sync_mempools;
use graphene::session::{exchange, ByteBreakdown};
use graphene::{relay_with_recovery, GrapheneConfig, LadderReport, RungReport};
use graphene_baselines::{
    compact_blocks_relay, full_block_relay, xthin_relay, BaselineReport, XthinAccounting,
};
use graphene_blockchain::{
    Block, Mempool, OrderingScheme, PeerView, Scenario, ScenarioParams, Transaction, TxProfile,
};
use graphene_bloom::{BitVec, BloomFilter, HashStrategy, Membership};
use graphene_hashes::{merkle_root, short_id_8};
use graphene_netsim::peer::Peer;
use graphene_netsim::{AdversaryConfig, Network, PeerId, RelayProtocol, SimTime};
use graphene_wire::messages::{
    BlockTxnMsg, FullBlockMsg, GetDataMsg, GetFullBlockMsg, InvMsg, Message, RatelessCellsMsg,
};
use graphene_wire::{Decode, Encode};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;

/// `(wire type byte, wire size)` of every message after the announcement,
/// in order.
type Trace = Vec<(u8, usize)>;

fn scenario(n: usize, held: f64, seed: u64) -> (Block, Mempool) {
    let params = ScenarioParams {
        block_size: n,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: held,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(seed));
    (s.block, s.receiver_mempool)
}

/// The under-assured configuration `recovery.rs` uses to make first
/// attempts fail on a few percent of seeds.
fn flaky() -> GrapheneConfig {
    GrapheneConfig { beta: 0.51, iblt_rate_denom: 3, pingpong: false, ..Default::default() }
}

/// Model a successful 2^64 grind against the short-ID rung: the receiver
/// lacks the block's first transaction but holds a forgery sharing its
/// 8-byte short ID, so mempool-first resolution picks the forgery, the
/// Merkle root disagrees and only the full block delivers.
fn forge_collision(block: &Block, pool: &mut Mempool) {
    let victim = &block.txns()[0];
    let mut evil = *victim.id();
    evil.0[31] ^= 0xff;
    assert_eq!(short_id_8(&evil), short_id_8(victim.id()));
    pool.remove(victim.id());
    pool.insert(Transaction::forge_with_id(&b"forged"[..], evil));
}

fn server_peer(block: &Block, pool: &Mempool, cfg: &GrapheneConfig) -> Peer {
    let mut server = Peer::new(PeerId(0), RelayProtocol::Graphene(*cfg), pool.clone());
    server.originate(block.clone(), &[]);
    server
}

/// The synchronous driver against the stateless responder. The mempool-size
/// hint is a parameter of the responder; it is given what the simulated
/// server below passes.
fn sync_trace(
    block: &Block,
    pool: &Mempool,
    cfg: &GrapheneConfig,
    policy: &RecoveryPolicy,
) -> (Trace, RungKind) {
    let server = server_peer(block, pool, cfg);
    let hint = server.mempool.len().max(block.len());
    let mut engine = RxEngine::new(block.id(), Ladder::Graphene(*cfg, Some(*policy)));
    let mut trace = Trace::new();
    let ids = exchange(
        &mut engine,
        pool,
        |req| respond(block, None, req, hint, cfg),
        |_, msg, _| trace.push((msg.type_byte(), msg.wire_size())),
    );
    assert_eq!(ids, Some(block.ids()), "the synchronous driver must deliver");
    (trace, engine.rung())
}

/// Two simulator peers on a lossless in-order link: every frame is handed
/// over at once, and a reply that leaves the receiver waiting is followed
/// by its session timer.
fn peer_trace(
    block: &Block,
    pool: &Mempool,
    cfg: &GrapheneConfig,
    policy: &RecoveryPolicy,
) -> (Trace, RungKind) {
    let id = block.id();
    let mut server = server_peer(block, pool, cfg);
    let mut rx = Peer::new(PeerId(1), RelayProtocol::Graphene(*cfg), pool.clone());
    rx.policy = *policy;
    let mut trace = Trace::new();
    let mut rung = RungKind::Graphene;
    let mut out = rx.handle(PeerId(0), Message::Inv(InvMsg { block_id: id }), &[]);
    for _ in 0..64 {
        let (_, epoch) = *out.timers.last().expect("every request arms the session timer");
        let mut next = None;
        for (_, req) in std::mem::take(&mut out.send) {
            trace.push((req.type_byte(), req.wire_size()));
            rung = rx.session_rung(&id).expect("session open while requesting");
            for (_, reply) in server.handle(PeerId(1), req, &[]).send {
                trace.push((reply.type_byte(), reply.wire_size()));
                next = Some(rx.handle(PeerId(0), reply, &[]));
            }
        }
        if rx.has_block(&id) {
            return (trace, rung);
        }
        out = match next {
            Some(o) if !o.send.is_empty() => o,
            _ => rx.handle_timeout(id, epoch),
        };
    }
    panic!("the simulated pair never delivered: {trace:?}");
}

/// The same pair inside a real `Network` (scheduler, frame codec, timers):
/// bytes per message type, announcements aside.
fn network_bytes(
    block: &Block,
    pool: &Mempool,
    protocol: RelayProtocol,
    policy: &RecoveryPolicy,
) -> BTreeMap<u8, u64> {
    let mut net = Network::new(2, protocol, 7);
    for i in 0..2 {
        net.peer_mut(PeerId(i)).mempool = pool.clone();
        net.peer_mut(PeerId(i)).policy = *policy;
    }
    net.connect(PeerId(0), PeerId(1));
    let r = net.propagate(PeerId(0), block.clone(), SimTime::from_millis(600_000));
    assert_eq!(r.peers_reached, 2, "{r:?}");
    (0x02..=0x42u8).map(|ty| (ty, net.metrics.bytes_for(ty))).filter(|(_, b)| *b > 0).collect()
}

/// Which way down the ladder a trace went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    P1,
    P2,
    P2ExtraFetch,
    InflatedRetry,
    Rateless,
    ShortIdFetch,
    FullBlock,
}

fn classify(trace: &Trace, rung: RungKind) -> Path {
    let has = |ty: u8| trace.iter().any(|(t, _)| *t == ty);
    match rung {
        RungKind::Graphene if has(0x13) => Path::P2ExtraFetch,
        RungKind::Graphene if has(0x11) => Path::P2,
        RungKind::Graphene => Path::P1,
        RungKind::GrapheneRetry => Path::InflatedRetry,
        RungKind::Rateless => Path::Rateless,
        RungKind::ShortIdFetch => Path::ShortIdFetch,
        RungKind::FullBlock => Path::FullBlock,
    }
}

#[test]
fn both_drivers_exchange_the_same_messages_on_every_rung() {
    let plain = RecoveryPolicy::default();
    let no_retries = RecoveryPolicy { graphene_retries: 0, ..plain };
    // (config, policy, held fraction, seeds, forged short-ID collision).
    // The flaky rows fail their first attempt on a few percent of seeds.
    let grid = [
        (GrapheneConfig::default(), plain, 1.0, 8, false),
        (GrapheneConfig::default(), plain, 0.5, 8, false),
        (flaky(), plain, 0.5, 100, false),
        (flaky(), RecoveryPolicy::rateless_first(), 0.5, 100, false),
        (flaky(), no_retries, 0.5, 100, false),
        (flaky(), no_retries, 0.5, 100, true),
    ];
    let mut covered: BTreeMap<Path, u32> = BTreeMap::new();
    for (cfg, policy, held, seeds, forge) in grid {
        for seed in 0..seeds {
            let (block, mut pool) = scenario(100, held, seed);
            if forge {
                forge_collision(&block, &mut pool);
            }
            let (sync, sync_rung) = sync_trace(&block, &pool, &cfg, &policy);
            let (sim, sim_rung) = peer_trace(&block, &pool, &cfg, &policy);
            let path = classify(&sync, sync_rung);
            let at = format!("{path:?}, held={held} seed={seed} forge={forge}");
            assert_eq!(sync, sim, "drivers disagree on the message sequence ({at})");
            assert_eq!(sync_rung, sim_rung, "drivers delivered on different rungs ({at})");

            // The accounted entry point reports the same exchange.
            let report = relay_with_recovery(&block, None, &pool, &cfg, &policy);
            let inv = Message::Inv(InvMsg { block_id: block.id() }).wire_size();
            assert_eq!(report.delivered, sync_rung, "{at}");
            assert_eq!(report.bytes.total(), inv + sync.iter().map(|(_, b)| b).sum::<usize>());

            // First trace down each path: the full simulator agrees too.
            let seen = covered.entry(path).or_insert(0);
            *seen += 1;
            if *seen == 1 {
                let mut by_type: BTreeMap<u8, u64> = BTreeMap::new();
                for (ty, bytes) in &sync {
                    *by_type.entry(*ty).or_insert(0) += *bytes as u64;
                }
                let net = network_bytes(&block, &pool, RelayProtocol::Graphene(cfg), &policy);
                assert_eq!(net, by_type, "{at}");
            }
        }
    }
    let all = [
        Path::P1,
        Path::P2,
        Path::P2ExtraFetch,
        Path::InflatedRetry,
        Path::Rateless,
        Path::ShortIdFetch,
        Path::FullBlock,
    ];
    for path in all {
        assert!(covered.contains_key(&path), "no scenario went down {path:?}: {covered:?}");
    }
}

// --- Whole relays against the reports of the parent build -----------------

/// The relay shapes of the recorded table, each run on [`TABLE_SEEDS`] seeds.
const TABLE_SHAPES: [&str; 8] = [
    "synced",
    "missing5",
    "missing50",
    "special_mn",
    "prefilled",
    "miner_order",
    "rateless_flaky",
    "forged_collision",
];
const TABLE_SEEDS: u64 = 40;

/// One relay of `shape`: block, receiver pool, the sender's view of the
/// receiver (prefilling), configuration and policy.
fn table_case(
    shape: &str,
    seed: u64,
) -> (Block, Mempool, Option<PeerView>, GrapheneConfig, RecoveryPolicy) {
    let generate_seeded = |seed: u64, n: usize, extra: f64, held: f64, ordering| {
        let params = ScenarioParams {
            block_size: n,
            extra_mempool_multiple: extra,
            block_fraction_in_mempool: held,
            ordering,
            ..Default::default()
        };
        let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(1000 + seed));
        (s.block, s.receiver_mempool)
    };
    let generate = |n, extra, held, ordering| generate_seeded(seed, n, extra, held, ordering);
    let cfg = GrapheneConfig::default();
    let policy = RecoveryPolicy::default();
    let ctor = OrderingScheme::Ctor;
    match shape {
        "synced" => {
            let (block, pool) = generate(200, 1.0, 1.0, ctor);
            (block, pool, None, cfg, policy)
        }
        "missing5" => {
            let (block, pool) = generate(200, 1.0, 0.95, ctor);
            (block, pool, None, cfg, policy)
        }
        "missing50" => {
            let (block, pool) = generate(200, 1.0, 0.5, ctor);
            (block, pool, None, cfg, policy)
        }
        // §3.3.1: 40 % held and spam topping the pool up to exactly n, so
        // `S` passes everything and the recovery carries `F`.
        "special_mn" => {
            let (block, pool) = generate(300, 0.6, 0.4, ctor);
            assert_eq!(pool.len(), block.len());
            (block, pool, None, cfg, policy)
        }
        // Four transactions were never announced to the receiver and travel
        // prefilled; she holds one of them anyway (a prefilled duplicate of
        // a candidate) and lacks the other three.
        "prefilled" => {
            let (block, mut pool) = generate(200, 1.0, 1.0, ctor);
            let mut view = PeerView::new();
            for (i, id) in block.ids().iter().enumerate() {
                if i % 50 != (seed % 50) as usize {
                    view.record(*id);
                } else if i >= 50 {
                    pool.remove(id);
                }
            }
            (block, pool, Some(view), cfg, policy)
        }
        "miner_order" => {
            let (block, pool) = generate(200, 1.0, 0.95, OrderingScheme::MinerChosen);
            let cfg = GrapheneConfig { ordering: OrderingScheme::MinerChosen, ..cfg };
            (block, pool, None, cfg, policy)
        }
        // The flaky configuration leaves the first rung on about one seed
        // in fifty; the first twenty seeds here are ones that do (found by
        // scanning 0..1100), so the cell stream runs.
        "rateless_flaky" => {
            const DESCENDING: [u64; 20] = [
                88, 101, 356, 385, 428, 475, 531, 547, 549, 578, 664, 680, 722, 756, 927, 951, 962,
                995, 1071, 1081,
            ];
            let seed = DESCENDING.get(seed as usize).copied().unwrap_or(seed);
            let (block, pool) = generate_seeded(seed, 100, 1.0, 0.5, ctor);
            (block, pool, None, flaky(), RecoveryPolicy::rateless_first())
        }
        // §6.1, a manufactured collision between two *candidates*: the pool
        // holds a block transaction and a forgery that shares its 8-byte
        // short ID and was ground until it passes `S`. Which of the two
        // comes later in the pool alternates with the seed.
        "forged_collision" => {
            let (block, mut pool) = generate(200, 1.0, 1.0, ctor);
            let victim = block.txns()[seed as usize % block.len()].clone();
            let m = pool.len() as u64 + 1;
            let (p1, _) = graphene::protocol1::sender_encode(&block, m, None, &cfg);
            let evil = (1u32..)
                .map(|grind| {
                    let mut id = *victim.id();
                    id.0[8..12].copy_from_slice(&grind.to_le_bytes());
                    id.0[31] ^= 0xff;
                    id
                })
                .find(|id| p1.bloom_s.contains(id))
                .expect("some forgery passes S");
            assert_eq!(short_id_8(&evil), short_id_8(victim.id()));
            pool.insert(Transaction::forge_with_id(&b"forged"[..], evil));
            if seed % 2 == 1 {
                pool.remove(victim.id());
                pool.insert(victim);
            }
            let decoded = graphene::protocol1::receiver_decode(&p1, &pool, &cfg);
            assert!(
                matches!(decoded, Err((P1Failure::ShortIdCollision, _))),
                "seed {seed}: the forgery must collide among the candidates"
            );
            (block, pool, None, cfg, policy)
        }
        other => panic!("no such shape: {other}"),
    }
}

/// A [`LadderReport`] on one line: the delivered rung, every rung as
/// `kind/attempt/bytes/rounds/ok`, the total rounds, then the byte lanes in
/// declaration order. A field added to either struct stops this compiling.
fn report_line(report: &LadderReport) -> String {
    let LadderReport { delivered, rungs, bytes, rounds, ordered_ids: _ } = report;
    let rungs: Vec<String> = rungs
        .iter()
        .map(|RungReport { kind, attempt, bytes, rounds, success }| {
            format!("{}/{attempt}/{bytes}/{rounds}/{}", kind.as_str(), u8::from(*success))
        })
        .collect();
    let ByteBreakdown {
        inv,
        getdata,
        bloom_s,
        iblt_i,
        prefilled,
        order,
        p1_overhead,
        bloom_r,
        p2_request_overhead,
        missing_txns,
        iblt_j,
        bloom_f,
        p2_response_overhead,
        extra_fetch,
        rateless,
        fallback,
    } = bytes;
    format!(
        "{} [{}] rounds={rounds} bytes={inv},{getdata},{bloom_s},{iblt_i},{prefilled},{order},\
         {p1_overhead},{bloom_r},{p2_request_overhead},{missing_txns},{iblt_j},{bloom_f},\
         {p2_response_overhead},{extra_fetch},{rateless},{fallback}",
        delivered.as_str(),
        rungs.join(" "),
    )
}

/// The candidate set, both IBLT builds and the parameter lookup sit under
/// every rung of the ladder: whole relays — Protocol 1 alone, Protocol 2
/// with and without ping-pong, the `m ≈ n` case with `F`, prefilled bodies,
/// miner-chosen order, the rateless rung, a candidate-vs-candidate short-ID
/// collision — must report what `tests/ladder_reports.txt` records. The
/// table was last recorded at the hash diet (PR 23), which changed what is
/// in every filter and IBLT on purpose; a change that does not mean to move
/// the wire must leave every line where it is.
#[test]
fn relays_report_what_the_recorded_table_says() {
    let recorded = include_str!("ladder_reports.txt");
    let mut lines = recorded.lines();
    for shape in TABLE_SHAPES {
        for seed in 0..TABLE_SEEDS {
            let line = table_line(shape, seed);
            assert_eq!(Some(line.as_str()), lines.next(), "{shape} seed {seed}");
        }
    }
    assert_eq!(lines.next(), None, "the table has rows no relay produced");
}

/// One line of the table: the relay of `shape` on `seed`, which must deliver.
fn table_line(shape: &str, seed: u64) -> String {
    let (block, pool, view, cfg, policy) = table_case(shape, seed);
    let report = relay_with_recovery(&block, view.as_ref(), &pool, &cfg, &policy);
    assert_eq!(report.ordered_ids, block.ids(), "{shape} {seed}");
    format!("{shape} {seed}: {}", report_line(&report))
}

/// Re-record `tests/ladder_reports.txt` from this build, for a change
/// that moves wire contents on purpose and says so:
/// `cargo test --release --test ladder rerecord -- --ignored`.
#[test]
#[ignore = "overwrites tests/ladder_reports.txt"]
fn rerecord_ladder_reports() {
    let mut table = String::new();
    for shape in TABLE_SHAPES {
        for seed in 0..TABLE_SEEDS {
            table += &table_line(shape, seed);
            table.push('\n');
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/ladder_reports.txt");
    std::fs::write(path, table).expect("the table is writable");
}

// --- `Done` means verified -------------------------------------------------

/// What a server does to the replies it owes: nothing, one of the
/// [`AdversaryConfig::mangle`] modes, or one of the two lies `mangle` has no
/// mode for.
#[derive(Clone, Copy, Debug)]
enum Lie {
    Honest,
    Mangle(AdversaryConfig),
    /// Serve another block's payloads.
    OtherBlock,
    /// The right header over the right transactions, two of them swapped
    /// (bodies, short IDs or repair bodies, whichever the payload lists).
    Swapped,
}

fn swapped(msg: Message) -> Message {
    fn swap<T>(v: &mut [T]) {
        if v.len() >= 2 {
            v.swap(0, 1);
        }
    }
    match msg {
        Message::FullBlock(mut m) => {
            swap(&mut m.txns);
            Message::FullBlock(m)
        }
        Message::XthinBlock(mut m) => {
            swap(&mut m.short_ids);
            Message::XthinBlock(m)
        }
        Message::CmpctBlock(mut m) => {
            swap(&mut m.short_ids);
            Message::CmpctBlock(m)
        }
        Message::BlockTxn(mut m) => {
            swap(&mut m.txns);
            Message::BlockTxn(m)
        }
        other => other,
    }
}

/// Drive a bare engine against `serve`, lying on the first `lies` replies,
/// and hold every `Done` to the contract drivers rely on. Returns whether
/// the block was delivered before the ladder ran out.
fn done_means_verified(
    at: &str,
    (block, other): (&Block, &Block),
    pool: &Mempool,
    ladder: Ladder,
    serve: &dyn Fn(&Block, &Message) -> Option<Message>,
    (lie, lies): (Lie, usize),
) -> bool {
    let mut engine = RxEngine::new(block.id(), ladder);
    let mut req = engine.start(pool);
    for round in 0..64 {
        let reply = match lie {
            _ if round >= lies => serve(block, &req),
            Lie::Honest => serve(block, &req),
            Lie::Mangle(cfg) => serve(block, &req).and_then(|m| cfg.mangle(round as u64, m)),
            Lie::OtherBlock => serve(other, &req),
            Lie::Swapped => serve(block, &req).map(swapped),
        };
        let step = match &reply {
            Some(msg) => engine.on_message(msg, pool),
            None => engine.on_timeout(pool),
        };
        let step = match step {
            // A driver bans and fails over, or waits for its timer: either
            // way the next thing this engine sees is a timeout.
            Step::Misbehaviour(_) | Step::Ignore => engine.on_timeout(pool),
            step => step,
        };
        match step {
            Step::Send { msg, .. } => req = msg,
            Step::Done { header, ordered_ids } => {
                assert_eq!(merkle_root(&ordered_ids), header.merkle_root, "{at}: unverified ids");
                assert_eq!(header.id(), block.id(), "{at}: another block's header");
                assert_eq!(ordered_ids, block.ids(), "{at}: Done must mean the block");
                return true;
            }
            Step::Exhausted => return false,
            Step::Misbehaviour(_) | Step::Ignore => unreachable!("a timeout sends or exhausts"),
        }
    }
    panic!("{at}: the ladder neither delivered nor ran out");
}

/// The contract of [`Step::Done`] — the ids hash to the header's Merkle
/// root and the header to the session's block id — on every ladder, for
/// honest servers on the recorded relay shapes and for servers that lie in
/// each way the simulator's adversary can, plus two it cannot: whatever
/// arrives, `Done` carries the block's ids or is never returned. The
/// simulator's peer builds its `Block` from that verdict without hashing
/// the tree again, so this is what licenses it.
#[test]
fn done_means_verified_on_every_ladder_under_every_lie() {
    let one = |set: fn(&mut AdversaryConfig)| {
        let mut cfg = AdversaryConfig { seed: 0xbad, ..Default::default() };
        set(&mut cfg);
        Lie::Mangle(cfg)
    };
    let lies = [
        one(|c| c.malformed_iblt = 1.0),
        one(|c| c.garbage = 1.0),
        one(|c| c.count_skew = 1.0),
        one(|c| c.oversized_filter = 1.0),
        one(|c| c.stall = 1.0),
        Lie::OtherBlock,
        Lie::Swapped,
    ];
    for shape in TABLE_SHAPES {
        for seed in 0..2 {
            let (block, pool, view, cfg, policy) = table_case(shape, seed);
            let (other, _) = scenario(block.len().min(50), 1.0, 77 + seed);
            let hint = pool.len().max(block.len());
            let full = |b: &Block| {
                respond_plain(b, &Message::GetFullBlock(GetFullBlockMsg { block_id: b.id() }))
            };
            let graphene = |b: &Block, req: &Message| respond(b, view.as_ref(), req, hint, &cfg);
            let compact = |b: &Block, req: &Message| match req {
                Message::GetData(_) => Some(Message::CmpctBlock(build_cmpctblock(b))),
                _ => respond_plain(b, req),
            };
            let full_block = |b: &Block, req: &Message| match req {
                Message::GetData(_) => full(b),
                _ => respond_plain(b, req),
            };
            let plain = |b: &Block, req: &Message| respond_plain(b, req);
            type Serve<'a> = &'a dyn Fn(&Block, &Message) -> Option<Message>;
            let ladders: [(&str, Ladder, Serve); 6] = [
                ("graphene", Ladder::Graphene(cfg, None), &graphene),
                ("graphene+policy", Ladder::Graphene(cfg, Some(policy)), &graphene),
                (
                    "graphene+rateless",
                    Ladder::Graphene(cfg, Some(RecoveryPolicy::rateless_first())),
                    &graphene,
                ),
                ("plain/compact", Ladder::Plain, &compact),
                ("plain/full", Ladder::Plain, &full_block),
                ("xthin", Ladder::Xthin { filter_fpr: 0.001 }, &plain),
            ];
            for (name, ladder, serve) in ladders {
                let at = format!("{shape} {seed} {name}");
                let blocks = (&block, &other);
                let honest =
                    done_means_verified(&at, blocks, &pool, ladder, serve, (Lie::Honest, 0));
                assert!(honest, "{at}: an honest server must deliver");
                for lie in lies {
                    // A first lie only, then honesty over whatever state
                    // the lie left behind; and lies to the end.
                    for upto in [1, usize::MAX] {
                        let at = format!("{at} {lie:?} x{upto}");
                        done_means_verified(&at, blocks, &pool, ladder, serve, (lie, upto));
                    }
                }
            }
        }
    }
}

// --- The one-attempt drivers against the exchanges they replaced ----------

/// A [`BaselineReport`] as `(success, rounds, total, txn_bytes,
/// receiver_filter_bytes)`; a field added to it stops this compiling.
fn fields(report: BaselineReport) -> (bool, u32, usize, usize, usize) {
    let BaselineReport { success, rounds, total, txn_bytes, receiver_filter_bytes } = report;
    (success, rounds, total, txn_bytes, receiver_filter_bytes)
}

/// The one-attempt drivers reproduce the hand-written reports, and the
/// figures and the simulator measure the same baselines: what two simulated
/// peers put on a lossless link is what the baseline relay reports.
#[test]
fn one_attempt_drivers_match_the_hand_written_reports_and_the_simulator() {
    // `(n, held fraction, seed, XThin filter FPR, receiver pool emptied,
    // forged short-ID collision)` → the Compact Blocks, XThin and full-block
    // reports, as the hand-written relays of the parent commit produced them.
    // In the forged row (§6.1) the forgery shadows the block's first
    // transaction, so XThin resolves every position, fails the Merkle check
    // and stops there. One number is younger than the rest: XThin's total in
    // the n = 500 row read 30065 until the filter took `h2` from `h1`
    // (PR 23) — which of the receiver's lacking transactions are false
    // positives of her filter moved, and with them one byte of the repair
    // request. The simulator is held to the same number below.
    #[rustfmt::skip]
    let golden_relays = [
        ((1, 1.0, 1, 0.001, false, false), [(true, 1, 422, 250, 0), (true, 1, 187, 0, 18), (true, 1, 412, 250, 0)]),
        ((100, 1.0, 2, 0.001, false, false), [(true, 1, 1016, 250, 0), (true, 1, 1335, 0, 374), (true, 1, 25261, 25000, 0)]),
        ((100, 0.6, 3, 0.001, false, false), [(true, 2, 10920, 10000, 0), (true, 1, 11303, 10000, 302), (true, 1, 25261, 25000, 0)]),
        ((100, 0.6, 3, 0.001, true, false), [(true, 2, 26040, 25000, 0), (true, 1, 26077, 25000, 16), (true, 1, 25261, 25000, 0)]),
        ((100, 1.0, 4, 0.001, false, true), [(true, 1, 1016, 250, 0), (false, 1, 1586, 250, 374), (true, 1, 25261, 25000, 0)]),
        ((500, 0.8, 5, 0.05, false, false), [(true, 2, 28694, 25250, 0), (true, 2, 30064, 25000, 716), (true, 1, 125663, 125000, 0)]),
        ((2000, 0.95, 6, 0.001, false, false), [(true, 2, 37694, 25250, 0), (true, 1, 48287, 25000, 7024), (true, 1, 502163, 500000, 0)]),
        ((2000, 0.6, 7, 0.05, false, false), [(true, 2, 213846, 200000, 0), (true, 2, 219591, 200000, 2509), (true, 1, 502163, 500000, 0)]),
    ];
    for ((n, held, seed, fpr, empty, forge), golden) in golden_relays {
        let (block, mut pool) = scenario(n, held, seed);
        if empty {
            pool = Mempool::new();
        }
        if forge {
            forge_collision(&block, &mut pool);
        }
        let acct = XthinAccounting { mempool_filter_fpr: fpr };
        let reports = [
            compact_blocks_relay(&block, &pool),
            xthin_relay(&block, &pool, &acct),
            full_block_relay(&block),
        ];
        let at = format!("n={n} held={held} seed={seed} empty={empty} forge={forge}");
        let protocols = [
            RelayProtocol::CompactBlocks,
            RelayProtocol::Xthin { filter_fpr: fpr },
            RelayProtocol::FullBlocks,
        ];
        let inv = Message::Inv(InvMsg { block_id: block.id() }).wire_size() as u64;
        // Where one attempt fails the simulated peer goes on to the full
        // block; only a delivered relay has the same exchange on both sides.
        for (protocol, report) in protocols.into_iter().zip(&reports).filter(|(_, r)| r.success) {
            let at = format!("{protocol:?} {at}");
            let by_type = network_bytes(&block, &pool, protocol, &RecoveryPolicy::default());
            assert_eq!(inv + by_type.values().sum::<u64>(), report.total as u64, "{at}");
            // Each round trip is one request type and one response type.
            assert_eq!(by_type.len() as u32, 2 * report.rounds, "{at}: {by_type:?}");
        }
        assert_eq!(reports.map(fields), golden, "{at}");
    }

    // `(n, common fraction, seed, flaky config, sender keeps only the quarter
    // of his pool with the smallest IDs)` → `(sender, receiver)` pool sizes
    // afterwards and the report. The first row is the hand-written sync's of
    // the commit before PR 15; the others were re-recorded at PR 23, when the
    // filters' false positives moved (rows two to four keep their seeds; the
    // last two are flaky seeds found again, 0..400 scanned, that still fail
    // to reconcile: one with `H` empty — a one-byte `S` passes everything —
    // one shipping `H` alone).
    #[rustfmt::skip]
    let golden_syncs = [
        ((50, 1.0, 0, false, false), (50, 50), "SyncReport { success: true, bytes: ByteBreakdown { inv: 0, getdata: 38, bloom_s: 1, iblt_i: 61, prefilled: 0, order: 0, p1_overhead: 88, bloom_r: 0, p2_request_overhead: 0, missing_txns: 0, iblt_j: 0, bloom_f: 0, p2_response_overhead: 0, extra_fetch: 0, rateless: 0, fallback: 0 }, h_transfer: 0, rounds: 2, union_size: 50 }"),
        ((200, 0.9, 0, false, false), (220, 220), "SyncReport { success: true, bytes: ByteBreakdown { inv: 0, getdata: 38, bloom_s: 1, iblt_i: 61, prefilled: 0, order: 0, p1_overhead: 88, bloom_r: 134, p2_request_overhead: 40, missing_txns: 3020, iblt_j: 685, bloom_f: 130, p2_response_overhead: 39, extra_fetch: 84, rateless: 0, fallback: 0 }, h_transfer: 3058, rounds: 6, union_size: 220 }"),
        ((1000, 0.0, 0, false, false), (2000, 2000), "SyncReport { success: true, bytes: ByteBreakdown { inv: 0, getdata: 40, bloom_s: 1, iblt_i: 61, prefilled: 0, order: 0, p1_overhead: 90, bloom_r: 614, p2_request_overhead: 42, missing_txns: 151000, iblt_j: 3405, bloom_f: 179, p2_response_overhead: 41, extra_fetch: 948, rateless: 0, fallback: 0 }, h_transfer: 151040, rounds: 6, union_size: 2000 }"),
        ((200, 0.3, 10, false, true), (237, 237), "SyncReport { success: true, bytes: ByteBreakdown { inv: 0, getdata: 38, bloom_s: 80, iblt_i: 461, prefilled: 0, order: 0, p1_overhead: 88, bloom_r: 29, p2_request_overhead: 40, missing_txns: 5587, iblt_j: 525, bloom_f: 0, p2_response_overhead: 39, extra_fetch: 84, rateless: 0, fallback: 0 }, h_transfer: 28275, rounds: 6, union_size: 237 }"),
        ((50, 0.0, 18, true, false), (50, 97), "SyncReport { success: false, bytes: ByteBreakdown { inv: 0, getdata: 38, bloom_s: 1, iblt_i: 253, prefilled: 0, order: 0, p1_overhead: 88, bloom_r: 44, p2_request_overhead: 40, missing_txns: 7097, iblt_j: 413, bloom_f: 16, p2_response_overhead: 39, extra_fetch: 0, rateless: 0, fallback: 0 }, h_transfer: 0, rounds: 4, union_size: 100 }"),
        ((200, 0.3, 7, true, true), (226, 222), "SyncReport { success: false, bytes: ByteBreakdown { inv: 0, getdata: 38, bloom_s: 80, iblt_i: 253, prefilled: 0, order: 0, p1_overhead: 88, bloom_r: 26, p2_request_overhead: 40, missing_txns: 3322, iblt_j: 333, bloom_f: 0, p2_response_overhead: 39, extra_fetch: 0, rateless: 0, fallback: 0 }, h_transfer: 26614, rounds: 4, union_size: 230 }"),
    ];
    for ((n, common, seed, flaky_cfg, quarter), pools_after, golden) in golden_syncs {
        let cfg = if flaky_cfg { flaky() } else { GrapheneConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let (sender, receiver) = Scenario::mempool_sync(n, common, TxProfile::Fixed(150), &mut rng);
        let keep = sender.sorted_ids().into_iter().take(if quarter { n / 4 } else { n });
        let sender: Mempool = keep.filter_map(|id| sender.get(&id).cloned()).collect();
        let (report, sender_after, receiver_after) = sync_mempools(&sender, &receiver, &cfg);
        let at = format!("n={n} common={common} seed={seed} flaky={flaky_cfg} quarter={quarter}");
        assert_eq!(format!("{report:?}"), golden, "{at}");
        assert_eq!((sender_after.len(), receiver_after.len()), pools_after, "{at}");
    }
}

// --- The bare engine under arbitrary input --------------------------------

/// Timer inputs after which any ladder has answered `Exhausted`, whatever
/// arrived in between: every timer input spends a retry or climbs a rung,
/// and no message ever gives either back.
/// A Protocol 1 answer whose `S` is useless — every bit set, a hash count
/// the sender never chose. Handed to the engine already decoded, it is an
/// answer to recover from; on the wire under the reserved flag 2 the frame
/// is refused (the driver drops a bad decode: `Ignore`).
#[test]
fn hostile_filter_is_an_error_not_a_panic() {
    let (block, pool) = scenario(40, 0.6, 1);
    let cfg = GrapheneConfig::default();
    let mut engine = RxEngine::new(block.id(), Ladder::Graphene(cfg, None));
    let request = engine.start(&pool);
    let Some(Message::GrapheneBlock(mut p1)) = respond(&block, None, &request, pool.len(), &cfg)
    else {
        panic!("Protocol 1 request must be answered with a GrapheneBlock");
    };
    let all_ones = BitVec::from_bytes(&[0xff; 8], 64).expect("8 bytes hold 64 bits");
    p1.bloom_s = BloomFilter::from_parts(all_ones, 9, 0.0, 7, HashStrategy::DoubleHashing);
    let hostile = Message::GrapheneBlock(p1);
    let step = engine.on_message(&hostile, &pool);
    assert!(
        matches!(step, Step::Send { .. } | Step::Misbehaviour(_) | Step::Ignore),
        "unexpected step {step:?}"
    );

    // On the wire the filter is flag | bit length | k | …: claim flag 2.
    let mut frame = hostile.to_vec();
    assert!(Message::decode_exact(&frame).is_ok());
    let filter = [&[0u8, 0x40, 0, 0, 0, 9][..], &7u64.to_le_bytes()].concat();
    let at = frame.windows(filter.len()).position(|w| w == filter).expect("S is in the frame");
    frame[at] = 2;
    assert!(Message::decode_exact(&frame).is_err(), "reserved filter flag decoded");
}

fn timer_bound(policy: &RecoveryPolicy) -> u32 {
    policy.graphene_retries + policy.rateless_max_batches + 4
}

fn garbage_txns(tag: u32, count: usize) -> Vec<Transaction> {
    (0..count as u32)
        .map(|i| Transaction::new([tag.to_le_bytes(), i.to_le_bytes()].concat()))
        .collect()
}

proptest! {
    #[test]
    fn engine_survives_arbitrary_input(
        seed in 0u64..6,
        ladder_kind in 0u8..4,
        script in proptest::collection::vec(any::<u32>(), 0..60),
    ) {
        let (block, pool) = scenario(40, 0.6, seed);
        let (other, _) = scenario(30, 0.5, seed + 100);
        let cfg = flaky();
        let policy = RecoveryPolicy { rateless: ladder_kind == 1, ..Default::default() };
        let ladder = match ladder_kind {
            0 | 1 => Ladder::Graphene(cfg, Some(policy)),
            2 => Ladder::Plain,
            _ => Ladder::Xthin { filter_fpr: 0.01 },
        };
        // What an honest server of `b` answers: the stateless responder,
        // or for a plain `GetData` a compact block.
        let honest = |b: &Block, req: &Message| match (ladder_kind, req) {
            (2, Message::GetData(_)) => Some(Message::CmpctBlock(build_cmpctblock(b))),
            (2 | 3, _) => respond_plain(b, req),
            _ => respond(b, None, req, pool.len(), &cfg),
        };

        let mut engine = RxEngine::new(block.id(), ladder);
        let mut requests = vec![engine.start(&pool)];
        let mut timers = 0u32;
        let mut exhausted = false;
        for op in script {
            let arg = (op >> 8) as usize;
            let pick = &requests[arg % requests.len()];
            let newest = &requests[requests.len() - 1];
            let (input, from_responder) = match op % 13 {
                0 | 1 | 12 => {
                    timers += 1;
                    (None, false)
                }
                2..=4 => (honest(&block, newest), true),
                5 => (honest(&block, pick), true), // stale or duplicate, still honest
                6 => (honest(&other, pick), false), // somebody else's block
                7 => {
                    let txns = garbage_txns(op, arg % 5);
                    (Some(Message::BlockTxn(BlockTxnMsg { block_id: block.id(), txns })), false)
                }
                8 => {
                    let mut txns = block.txns().to_vec();
                    txns[arg % 40] = garbage_txns(op, 1).remove(0);
                    (Some(Message::FullBlock(FullBlockMsg { header: *block.header(), txns })), false)
                }
                9 => match honest(&block, newest) {
                    // A §6.1 phantom in the IBLT, or cells under a foreign salt.
                    Some(Message::GrapheneBlock(mut m)) => {
                        m.iblt_i.insert_partial(op as u64 | 1, 2);
                        (Some(Message::GrapheneBlock(m)), false)
                    }
                    Some(Message::RatelessCells(m)) => {
                        let m = RatelessCellsMsg { salt: m.salt ^ 1, ..m };
                        (Some(Message::RatelessCells(m)), false)
                    }
                    reply => (reply, false),
                },
                10 => {
                    let mut cmpct = build_cmpctblock(&block);
                    cmpct.prefilled.push((0, garbage_txns(op, 1).remove(0)));
                    (Some(Message::CmpctBlock(cmpct)), false)
                }
                _ => {
                    let get = GetDataMsg { block_id: block.id(), mempool_count: arg as u64 };
                    (Some(Message::GetData(get)), false) // a request is not a response
                }
            };
            let step = match &input {
                Some(msg) => engine.on_message(msg, &pool),
                None if op % 13 == 12 => engine.abandon_rung(&pool),
                None => engine.on_timeout(&pool),
            };
            match step {
                Step::Send { msg, .. } => requests.push(msg),
                Step::Done { ordered_ids, .. } => {
                    prop_assert_eq!(ordered_ids, block.ids(), "Done must mean the block");
                    return Ok(());
                }
                Step::Misbehaviour(why) => {
                    prop_assert!(!from_responder, "honest frame judged hostile: {}", why);
                }
                Step::Exhausted => exhausted = true,
                Step::Ignore => {}
            }
            prop_assert!(exhausted || timers <= timer_bound(&policy), "ladder outlived its bound");
        }
        // Left alone, the ladder runs out within the bound.
        while !exhausted {
            timers += 1;
            prop_assert!(timers <= timer_bound(&policy) + 1, "ladder never exhausted");
            exhausted = matches!(engine.on_timeout(&pool), Step::Exhausted);
        }
    }
}
