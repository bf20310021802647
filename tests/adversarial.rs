//! Adversarial and robustness integration tests: hostile bytes, hostile
//! structures, and the §6.1 attacks.

use graphene::config::GrapheneConfig;
use graphene::protocol1;
use graphene_blockchain::{Scenario, ScenarioParams};
use graphene_iblt::{DecodeError, Iblt};
use graphene_wire::messages::Message;
use graphene_wire::{Decode, Encode};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Decoding arbitrary bytes must never panic — it may only return an error
/// or, coincidentally, a valid message.
#[test]
fn fuzz_decode_never_panics() {
    proptest!(|(bytes in proptest::collection::vec(any::<u8>(), 0..512))| {
        let _ = Message::decode_exact(&bytes);
    });
}

/// Flipping any single byte of a valid frame must produce either a decode
/// error or a structurally valid (but different) message — never a panic.
#[test]
fn bitflip_valid_frames() {
    let cfg = GrapheneConfig::default();
    let params = ScenarioParams { block_size: 60, ..Default::default() };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(5));
    let (msg, _) = protocol1::sender_encode(&s.block, 120, None, &cfg);
    let bytes = Message::GrapheneBlock(msg).to_vec();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x40;
        let _ = Message::decode_exact(&corrupted); // must not panic
    }
}

/// A corrupted Graphene payload that still decodes as a frame must not
/// crash the receiver; at worst the relay fails and falls back.
#[test]
fn corrupted_payload_handled_gracefully() {
    let cfg = GrapheneConfig::default();
    let params =
        ScenarioParams { block_size: 100, extra_mempool_multiple: 1.0, ..Default::default() };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(6));
    let (msg, _) = protocol1::sender_encode(&s.block, s.receiver_mempool.len() as u64, None, &cfg);
    let bytes = Message::GrapheneBlock(msg).to_vec();
    let mut survived = 0usize;
    for i in (13..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xff;
        if let Ok(Message::GrapheneBlock(m)) = Message::decode_exact(&corrupted) {
            // Whatever happens, no panic; Merkle validation rejects bad
            // reconstructions.
            if let Ok(ok) = protocol1::receiver_decode(&m, &s.receiver_mempool, &cfg) {
                assert_eq!(
                    ok.ordered_ids,
                    s.block.ids(),
                    "corruption at byte {i} produced a WRONG accepted block"
                );
                survived += 1;
            }
        }
    }
    // Some corruptions land in don't-care bits and still succeed — fine —
    // but none may yield an incorrect accepted block (asserted above).
    let _ = survived;
}

/// §6.1 malformed-IBLT attack: an endless-loop IBLT must be detected or
/// terminate; it must never hang. (A 5-second wall clock guard would hide
/// in CI; instead the peel's double-decode defense gives a deterministic
/// bound.)
#[test]
fn malformed_iblt_terminates() {
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::RngExt;
        let salt: u64 = rng.random();
        let honest = {
            let mut t = Iblt::new(30, 3, salt);
            for _ in 0..8 {
                t.insert(rng.random());
            }
            t
        };
        // Attacker mangles the serialized cells arbitrarily.
        let mut bytes = honest.to_bytes();
        for _ in 0..6 {
            let idx = 13 + (rng.random::<u64>() as usize) % (bytes.len() - 13);
            bytes[idx] ^= rng.random::<u8>();
        }
        if let Some(mut evil) = Iblt::from_bytes(&bytes) {
            match evil.peel() {
                Ok(r) => {
                    // Partial or complete — fine, just must terminate.
                    assert!(r.len() <= 30 + 8);
                }
                Err(DecodeError::Malformed { .. }) => {}
                Err(DecodeError::GeometryMismatch { .. }) => unreachable!("no subtraction"),
            }
        }
    }
}

/// Fault injection end-to-end: with both packet loss *and* corruption on
/// every link, frames are dropped and mangled in flight, recovery must go
/// through the 2 s retry timer, and the relay must still converge on every
/// peer.
#[test]
fn faulty_links_trigger_retries_and_still_converge() {
    use graphene_netsim::{LinkParams, Network, PeerId, RelayProtocol, SimTime};

    let params = ScenarioParams {
        block_size: 120,
        extra_mempool_multiple: 1.0,
        block_fraction_in_mempool: 1.0,
        ..Default::default()
    };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(42));
    // Full mesh: a block announcement (`Inv`) is fire-and-forget, so a peer
    // whose every neighbor's announcement is lost can never start a session
    // — redundancy, not the timer, covers that frame (as in the real
    // network, where peers hear about a block from several neighbors).
    // Network seed 6 draws faults that make recovery wait out a retry
    // timer (the first found scanning 4..64; 35 of the seeds 0..64 do).
    let build = |link: LinkParams| {
        let mut net = Network::new(4, RelayProtocol::Graphene(GrapheneConfig::default()), 6);
        for i in 0..4 {
            net.peer_mut(PeerId(i)).mempool = s.receiver_mempool.clone();
        }
        net.set_default_link(link);
        for i in 0..4 {
            for j in i + 1..4 {
                net.connect(PeerId(i), PeerId(j));
            }
        }
        net
    };

    // Fault-free baseline on the same topology for the timing comparison.
    let mut clean = build(LinkParams::default());
    let clean_r = clean.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(600_000));
    assert_eq!(clean_r.peers_reached, 4, "baseline failed: {clean_r:?}");

    let faulty_link = LinkParams { drop_chance: 0.2, corrupt_chance: 0.2, ..LinkParams::default() };
    let mut net = build(faulty_link);
    let r = net.propagate(PeerId(0), s.block.clone(), SimTime::from_millis(600_000));
    assert_eq!(r.peers_reached, 4, "relay did not converge under faults: {r:?}");
    // Both fault types must actually have fired (deterministic for the
    // fixed network seed)...
    assert!(r.frames.1 > 0, "no frames dropped at 20% loss: {r:?}");
    assert!(net.metrics.bad_decodes() > 0, "no corrupted frames reached a decoder");
    // ...and recovery must have waited out at least one 2 s retry timer.
    let (clean_t, faulty_t) = (clean_r.completion_time.unwrap(), r.completion_time.unwrap());
    assert!(
        faulty_t >= clean_t + SimTime::from_millis(2_000),
        "completed in {faulty_t:?} vs clean {clean_t:?} — no retry timer fired"
    );
}

/// §6.1 manufactured collision: two mempool transactions with the same
/// 8-byte short ID force the ShortIdCollision error rather than a wrong
/// block.
#[test]
fn short_id_collision_is_detected_not_miscoded() {
    use graphene::error::P1Failure;
    use graphene_blockchain::{Mempool, Transaction};
    use graphene_hashes::short_id_8;

    let cfg = GrapheneConfig::default();
    let params =
        ScenarioParams { block_size: 50, extra_mempool_multiple: 1.0, ..Default::default() };
    let s = Scenario::generate(&params, &mut StdRng::seed_from_u64(7));

    // Model a successful 2^64 grind: a mempool transaction whose forged ID
    // shares the victim's 8-byte prefix but differs in the tail.
    let victim = &s.block.txns()[0];
    let target = short_id_8(victim.id());
    let mut evil_id = *victim.id();
    evil_id.0[31] ^= 0xff;
    assert_eq!(short_id_8(&evil_id), target);
    assert_ne!(&evil_id, victim.id());

    let mut pool: Mempool = s.receiver_mempool.clone();
    pool.insert(Transaction::forge_with_id(&b"attacker payload"[..], evil_id));

    let (msg, _) = protocol1::sender_encode(&s.block, pool.len() as u64, None, &cfg);
    match protocol1::receiver_decode(&msg, &pool, &cfg) {
        // Both the victim and the forgery are in the pool, both pass S (the
        // victim is a block member; the forgery passes iff S's bits say so),
        // so the candidate map sees two distinct txids with one short ID.
        Err((P1Failure::ShortIdCollision, _)) => {}
        // If the forgery happened not to pass S, the decode must still be
        // correct.
        Ok(ok) => assert_eq!(ok.ordered_ids, s.block.ids()),
        Err((other, _)) => panic!("unexpected failure: {other:?}"),
    }
}
