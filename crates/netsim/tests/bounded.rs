//! Property-based boundedness: after an arbitrary interleaving of
//! announcements, hostile messages, timer fires, queue pressure and
//! crash/restore cycles, every capped per-peer structure respects its cap
//! and the accounted memory total stays under the configured ceiling.

use graphene::GrapheneConfig;
use graphene_blockchain::{Block, Mempool, OrderingScheme, Transaction};
use graphene_bloom::BloomFilter;
use graphene_hashes::Digest;
use graphene_netsim::peer::{Output, Peer, ANN_FLAG};
use graphene_netsim::{FanoutPolicy, PeerId, RelayProtocol, ResourceLimits, SimTime};
use graphene_wire::messages::{BlockTxnMsg, InvMsg, Message, TxInvMsg, XthinGetDataMsg};
use graphene_wire::Encode;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Tight caps so random interleavings actually hit every limit.
fn tight_limits() -> ResourceLimits {
    ResourceLimits {
        max_sessions: 4,
        max_pending_announcements: 3,
        max_body_bytes: 64,
        max_misbehavior_entries: 3,
        max_queue_frames: 5,
        max_queue_bytes: 4096,
        max_rateless_state_bytes: 4096,
        proc_delay_per_frame: SimTime::ZERO,
        proc_delay_per_kb: SimTime::ZERO,
    }
}

fn block_id(tag: u8) -> Digest {
    block_for(tag).id()
}

fn block_for(tag: u8) -> Block {
    let txns = vec![Transaction::new(vec![tag, 1]), Transaction::new(vec![tag, 2])];
    Block::assemble(Digest::ZERO, 1, txns, OrderingScheme::Ctor)
}

/// One step of the interleaving, decoded from `(op, a, b)` bytes.
fn apply_op(p: &mut Peer, op: u8, a: u8, b: u8) {
    let from = PeerId(1 + (a as usize % 7));
    let neighbors = [PeerId(1), PeerId(2), PeerId(3)];
    match op % 8 {
        // A block announcement (possibly a repeat).
        0 => {
            p.handle(from, Message::Inv(InvMsg { block_id: block_id(b % 10) }), &neighbors);
        }
        // Loose-tx announcements.
        1 => {
            let txids = vec![*Transaction::new(vec![b, 3]).id()];
            p.handle(from, Message::TxInv(TxInvMsg { txids }), &neighbors);
        }
        // Repair bodies for a (maybe-open) session: exercises orphan caps.
        2 => {
            let txns: Vec<Transaction> =
                (0..4).map(|i| Transaction::new(vec![b, i, 9, 9, 9, 9])).collect();
            p.handle(
                from,
                Message::BlockTxn(BlockTxnMsg { block_id: block_id(b % 10), txns }),
                &neighbors,
            );
        }
        // A provable §6.2 cap violation: drives misbehavior/ban growth.
        3 => {
            let hostile = Message::XthinGetData(XthinGetDataMsg {
                block_id: block_id(b % 10),
                mempool_filter: BloomFilter::new(75_000, 0.001, 7),
            });
            p.handle(from, hostile, &neighbors);
        }
        // Session and announcement timers, current and stale epochs.
        4 => {
            p.handle_timeout(block_id(b % 10), (a % 4) as u32);
        }
        5 => {
            p.handle_timeout(block_id(b % 10), (a % 4) as u32 | ANN_FLAG);
        }
        // Raw queue pressure (frames awaiting a drain that never comes).
        6 => {
            let msg = Message::Inv(InvMsg { block_id: block_id(b % 10) });
            let bytes = msg.to_vec().len();
            p.enqueue(from, msg, bytes);
        }
        // Crash/restore mid-interleaving.
        _ => {
            let snap = p.snapshot();
            p.restore(snap);
        }
    }
}

fn assert_bounded(p: &Peer, limits: &ResourceLimits) -> Result<(), TestCaseError> {
    let acct = p.accounting();
    prop_assert!(p.open_sessions() <= limits.max_sessions, "sessions {}", p.open_sessions());
    prop_assert!(
        p.pending_announcement_count() <= limits.max_pending_announcements,
        "pending {}",
        p.pending_announcement_count()
    );
    prop_assert!(
        p.misbehavior_entries() <= limits.max_misbehavior_entries,
        "misbehavior {}",
        p.misbehavior_entries()
    );
    prop_assert!(acct.queue_frames <= limits.max_queue_frames, "queue {}", acct.queue_frames);
    prop_assert!(acct.queue_bytes <= limits.max_queue_bytes);
    prop_assert!(
        acct.body_bytes <= limits.max_body_bytes * limits.max_sessions as u64,
        "bodies {}",
        acct.body_bytes
    );
    prop_assert!(
        acct.accounted_bytes() <= limits.accounted_ceiling(),
        "accounted {} over ceiling {}",
        acct.accounted_bytes(),
        limits.accounted_ceiling()
    );
    prop_assert!(acct.hwm_bytes <= limits.accounted_ceiling());
    Ok(())
}

/// Peers of the holder mesh, each wired to every other.
const HOLDERS: usize = 4;
/// Blocks every holder holds from the start.
const HELD: u8 = 5;

/// Peers that hold every block and so trade nothing but `Inv`s: first
/// waves, handshakes, re-announcements and answers.
struct Holders {
    peers: Vec<Peer>,
    limits: ResourceLimits,
    /// `Inv`s in flight: (sender, receiver, block).
    wire: Vec<(usize, usize, Digest)>,
    /// Armed announcement timers: (peer, block, epoch).
    timers: VecDeque<(usize, Digest, u32)>,
    /// (holder, block, neighbor): the holder sent the neighbor an `Inv`
    /// while its entry for the block was live — the model of the told mark.
    told: HashSet<(usize, Digest, usize)>,
}

impl Holders {
    fn new(limits: ResourceLimits, fanout: FanoutPolicy) -> Holders {
        let peers = (0..HOLDERS)
            .map(|i| {
                let protocol = RelayProtocol::Graphene(GrapheneConfig::default());
                let mut p = Peer::new(PeerId(i), protocol, Mempool::new());
                p.limits = limits;
                p.set_fanout(fanout);
                for tag in 0..HELD {
                    p.originate(block_for(tag), &[]);
                }
                p
            })
            .collect();
        Holders { peers, limits, wire: Vec::new(), timers: VecDeque::new(), told: HashSet::new() }
    }

    fn neighbors(i: usize) -> Vec<PeerId> {
        (0..HOLDERS).filter(|&j| j != i).map(PeerId).collect()
    }

    /// Queue what peer `at` sent and armed, mark what it sent under a live
    /// entry told, forget the marks of every entry it no longer has (no
    /// single call both drops an entry and opens one), and check its caps.
    fn absorb(&mut self, at: usize, out: Output) -> Result<(), TestCaseError> {
        prop_assert!(out.send_delayed.is_empty());
        let p = &self.peers[at];
        for (to, msg) in out.send {
            let Message::Inv(m) = msg else {
                return Err(TestCaseError::fail(format!("holder {at} sent {msg:?}")));
            };
            if p.pending_announcement(&m.block_id).is_some() {
                self.told.insert((at, m.block_id, to.0));
            }
            self.wire.push((at, to.0, m.block_id));
        }
        self.timers.extend(out.timers.into_iter().map(|(block, epoch)| (at, block, epoch)));
        self.told.retain(|&(h, b, _)| h != at || p.pending_announcement(&b).is_some());
        assert_bounded(p, &self.limits)
    }

    /// Hand the `Inv` at `idx` to its receiver, leaving a copy in flight
    /// when `duplicate`. The receiver answers exactly when its entry for
    /// the block is still live and has not told the sender.
    fn deliver(&mut self, idx: usize, duplicate: bool) -> Result<(), TestCaseError> {
        let (from, to, block_id) = if duplicate { self.wire[idx] } else { self.wire.remove(idx) };
        let untold = !self.told.contains(&(to, block_id, from));
        let inv = Message::Inv(InvMsg { block_id });
        let out = self.peers[to].handle(PeerId(from), inv, &Self::neighbors(to));
        let live = self.peers[to].pending_announcement(&block_id).is_some();
        prop_assert!(out.send.iter().all(|(n, _)| n.0 == from), "answered a bystander");
        prop_assert_eq!(
            out.send.len(),
            usize::from(untold && live),
            "holder {} answering {}'s Inv (untold {}, live entry {})",
            to,
            from,
            untold,
            live
        );
        self.absorb(to, out)
    }

    /// Fire the timer at `idx` if it is still current.
    fn fire(&mut self, idx: usize) -> Result<(), TestCaseError> {
        let Some((at, block_id, epoch)) = self.timers.remove(idx) else {
            return Ok(());
        };
        if !self.peers[at].timer_current(&block_id, epoch) {
            return Ok(());
        }
        let out = self.peers[at].handle_timeout(block_id, epoch);
        self.absorb(at, out)
    }

    fn step(&mut self, op: u8, a: u8, b: u8) -> Result<(), TestCaseError> {
        let (i, j) = (usize::from(a) % HOLDERS, usize::from(b) % HOLDERS);
        let block = block_for(b % HELD);
        match op % 8 {
            // A first wave to every neighbor, as on completing the block.
            0 => {
                let out = self.peers[i].originate(block, &Self::neighbors(i));
                self.absorb(i, out)
            }
            // A reconnect handshake; both directions make `Inv`s cross.
            1 if i != j => {
                let out = self.peers[i].handshake(PeerId(j));
                self.absorb(i, out)
            }
            // An `Inv` its sender never tracked (a flood past the cap).
            2 if i != j => {
                self.wire.push((j, i, block.id()));
                Ok(())
            }
            // Delivered out of order, or duplicated.
            3 | 4 if !self.wire.is_empty() => {
                let idx = usize::from(a) % self.wire.len();
                self.deliver(idx, op % 8 == 4)
            }
            // Dropped.
            5 if !self.wire.is_empty() => {
                let idx = usize::from(a) % self.wire.len();
                self.wire.remove(idx);
                Ok(())
            }
            6 if !self.timers.is_empty() => {
                let idx = usize::from(b) % self.timers.len();
                self.fire(idx)
            }
            // Crash/restore: the restart generation makes every timer the
            // peer armed before it stale.
            7 => {
                let snap = self.peers[i].snapshot();
                self.peers[i].restore(snap);
                self.timers.retain(|t| t.0 != i);
                self.absorb(i, Output::default())
            }
            _ => Ok(()),
        }
    }

    /// Deliver and fire everything left, oldest first: the exchange must
    /// die out within `budget` steps.
    fn drain(&mut self, budget: usize) -> Result<(), TestCaseError> {
        for _ in 0..budget {
            if !self.wire.is_empty() {
                self.deliver(0, false)?;
            } else if !self.timers.is_empty() {
                self.fire(0)?;
            } else {
                return Ok(());
            }
        }
        Err(TestCaseError::fail(format!(
            "still {} Invs in flight and {} timers after {budget} steps",
            self.wire.len(),
            self.timers.len()
        )))
    }
}

proptest! {
    /// Caps hold after every step of an arbitrary interleaving, not just
    /// at the end. Ops are drawn as a flat byte tape: 3 bytes per step.
    #[test]
    fn peer_state_stays_bounded(
        tape in proptest::collection::vec(any::<u8>(), 3..360),
    ) {
        let limits = tight_limits();
        let mut p = Peer::new(
            PeerId(0),
            RelayProtocol::Graphene(GrapheneConfig::default()),
            Mempool::new(),
        );
        p.limits = limits;
        for step in tape.chunks_exact(3) {
            apply_op(&mut p, step[0], step[1], step[2]);
            assert_bounded(&p, &limits)?;
        }
    }

    /// The same holds when the peer also *originates* blocks (the
    /// announcement-tracking side of the ledger).
    #[test]
    fn originator_state_stays_bounded(
        tags in proptest::collection::vec(any::<u8>(), 1..40),
        tape in proptest::collection::vec(any::<u8>(), 3..180),
    ) {
        let limits = tight_limits();
        let mut p = Peer::new(
            PeerId(0),
            RelayProtocol::Graphene(GrapheneConfig::default()),
            Mempool::new(),
        );
        p.limits = limits;
        for t in tags {
            p.originate(block_for(t % 16), &[PeerId(1), PeerId(2)]);
        }
        assert_bounded(&p, &limits)?;
        for step in tape.chunks_exact(3) {
            apply_op(&mut p, step[0], step[1], step[2]);
            assert_bounded(&p, &limits)?;
        }
    }

    /// Holders trading `Inv`s — crossing first waves and handshakes,
    /// duplicated, dropped and reordered frames, untracked floods, timers
    /// and crash/restore, with more blocks than announcement slots — stay
    /// bounded, answer a neighbor at most once per entry, and fall silent
    /// once nothing new happens.
    #[test]
    fn inv_exchanges_between_holders_terminate(
        fanout in any::<u8>(),
        tape in proptest::collection::vec(any::<u8>(), 3..360),
    ) {
        let fanout = match fanout % 2 {
            0 => FanoutPolicy::Flood,
            _ => FanoutPolicy::Adaptive { initial: 1 },
        };
        let mut mesh = Holders::new(tight_limits(), fanout);
        for step in tape.chunks_exact(3) {
            mesh.step(step[0], step[1], step[2])?;
        }
        mesh.drain(50_000)?;
    }
}
